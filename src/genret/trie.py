"""Prefix tree over semantic IDs with end-of-ad markers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .sid import SemanticId


class TrieError(ValueError):
    pass


@dataclass
class TrieNode:
    # build() is the only writer and inserts in ascending code order, so the
    # dict iterates its codes in that order
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    end_of_ad: str | None = None


class Level(NamedTuple):
    """What a decode reads of level l and the level below it, each level's
    nodes numbered from 0 breadth-first, in lexicographic prefix order."""

    count: int          # the nodes of level l
    parent: np.ndarray  # parent[j]: node j of level l + 1's parent, in level l
    code: np.ndarray    # code[j]: the code on the edge into node j of level l + 1
    every: np.ndarray   # arange over level l + 1


@dataclass
class Trie:
    """The node tree, and the same nodes numbered as a decode reads them:
    levels[l] views level l (prefixes of length l) and the level below it,
    and leaf k, node k of the last level, holds ad leaf_ads[k], whose
    SemanticId is leaf_sids[k], as object arrays that a decode gathers its
    ranked leaves from. build() is the only writer, and every array is
    read-only."""

    root: TrieNode
    levels: tuple[Level, ...]  # one per level above the leaves; () when empty
    leaf_ads: np.ndarray
    leaf_sids: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def ad_count(self) -> int:
        return len(self.leaf_ads)


def build(sids: dict[str, SemanticId]) -> Trie:
    """Insert every S-ID code by code in (codes, ad_id) order, so each node's
    children are in ascending code order, mark ad ends at leaves, then number
    each level's nodes breadth-first.

    A repeated sequence keeps one leaf, owned by the greatest ad_id; ragged
    lengths are rejected.
    """
    root = TrieNode()
    depth = 0
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
        cur.end_of_ad = ad_id
    levels, level = [], [root]
    for _ in range(depth):
        parent, codes, level_below = zip(*[(n, code, child) for n, node in enumerate(level)
                                           for code, child in node.children.items()])
        levels.append(Level(len(level), np.array(parent, dtype=np.intp),
                            np.array(codes, dtype=np.intp), np.arange(len(level_below))))
        level = level_below
    leaf_ads = [node.end_of_ad for node in level] if depth else []
    trie = Trie(root=root, levels=tuple(levels),
                leaf_ads=np.fromiter(leaf_ads, dtype=object, count=len(leaf_ads)),
                leaf_sids=np.fromiter(map(sids.__getitem__, leaf_ads), dtype=object,
                                      count=len(leaf_ads)))
    for array in (trie.leaf_ads, trie.leaf_sids, *(a for view in levels for a in view[1:])):
        array.flags.writeable = False
    return trie


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
