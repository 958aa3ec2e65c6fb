"""Prefix tree over semantic IDs with end-of-ad markers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .sid import SemanticId


class TrieError(ValueError):
    pass


@dataclass
class TrieNode:
    # build() is the only writer and inserts in ascending code order, so the
    # dict iterates its codes in that order
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    end_of_ad: str | None = None


@dataclass
class Trie:
    root: TrieNode
    depth: int
    ad_count: int


def build(sids: dict[str, SemanticId]) -> Trie:
    """Insert every S-ID code by code in (codes, ad_id) order, so each node's
    children are in ascending code order, and mark ad ends at leaves.

    A repeated sequence keeps one leaf, owned by the greatest ad_id; ragged
    lengths are rejected.
    """
    root = TrieNode()
    depth = 0
    count = 0
    for ad_id, sid in sorted(sids.items(), key=lambda kv: (kv[1].codes, kv[0])):
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
    return list(node.children)


def contains(trie: Trie, sid: SemanticId) -> bool:
    node = _walk(trie, sid.codes)
    return node is not None and node.end_of_ad is not None
