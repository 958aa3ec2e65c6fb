"""Prefix tree over semantic IDs with end-of-ad markers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .sid import SemanticId


class TrieError(ValueError):
    pass


@dataclass
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    end_of_ad: str | None = None
    # the children's codes in ascending order, filled in once by build()
    sorted_codes: tuple[int, ...] = field(default=(), repr=False, compare=False)


@dataclass
class Trie:
    root: TrieNode
    depth: int
    ad_count: int


def build(sids: dict[str, SemanticId]) -> Trie:
    """Insert every S-ID sequence code by code, marking ad ends at leaves.

    Insertion is idempotent for repeated identical sequences; ragged lengths
    are rejected.
    """
    root = TrieNode()
    depth = 0
    count = 0
    for ad_id in sorted(sids):
        sid = sids[ad_id]
        if depth == 0:
            depth = len(sid)
        elif len(sid) != depth:
            raise TrieError(
                f"ragged S-ID length for {ad_id!r}: {len(sid)} != {depth}"
            )
        cur = root
        for code in sid.codes:
            if code not in cur.children:
                cur.children[code] = TrieNode()
            cur = cur.children[code]
        if cur.end_of_ad is None:
            count += 1
        cur.end_of_ad = ad_id
    stack = [root]
    while stack:
        node = stack.pop()
        node.sorted_codes = tuple(sorted(node.children))
        stack.extend(node.children.values())
    return Trie(root=root, depth=depth, ad_count=count)


def _walk(trie: Trie, codes) -> TrieNode | None:
    cur = trie.root
    for code in codes:
        nxt = cur.children.get(code)
        if nxt is None:
            return None
        cur = nxt
    return cur


def valid_children(trie: Trie, prefix) -> list[int]:
    """Codes of children under the node reached by prefix, ascending.

    An absent prefix or a leaf yields an empty list.
    """
    node = _walk(trie, prefix)
    if node is None:
        return []
    return list(node.sorted_codes)


def contains(trie: Trie, sid: SemanticId) -> bool:
    node = _walk(trie, sid.codes)
    return node is not None and node.end_of_ad is not None
