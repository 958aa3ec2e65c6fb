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
    """What a decode reads of level l and the level below it, numbered
    within each level: node j of level l + 1 is node
    ``level_start[l + 1] + j`` of the whole trie."""

    count: int          # the nodes of level l
    parent: np.ndarray  # parent[j]: node j of level l + 1's parent, in level l
    code: np.ndarray    # code[j]: the code on the edge into node j of level l + 1
    every: np.ndarray   # arange over level l + 1


@dataclass
class Trie:
    """The node tree, and the same nodes numbered breadth-first with children
    in code order: the root is 0, and level l (prefixes of length l) is the
    range level_start[l]:level_start[l + 1], in lexicographic prefix order.
    levels[l] holds level l's slices of the arrays, built once, as a decode
    reads them. build() is the only writer, and every array is read-only."""

    root: TrieNode
    depth: int
    ad_count: int
    level_start: tuple[int, ...]
    parent: np.ndarray  # parent[n]; -1 for the root
    code: np.ndarray    # the code on the edge into n; -1 for the root
    # the ad_id and the SemanticId of leaf level_start[depth] + k, at k, as
    # object arrays that a decode gathers its ranked leaves from
    leaf_ads: np.ndarray
    leaf_sids: np.ndarray
    levels: tuple[Level, ...]  # one per level above the leaves; () when empty


def build(sids: dict[str, SemanticId]) -> Trie:
    """Insert every S-ID code by code in (codes, ad_id) order, so each node's
    children are in ascending code order, mark ad ends at leaves, then number
    the nodes breadth-first.

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
    level_start, parent, codes, level = [0], [-1], [-1], [root]
    for _ in range(depth):
        level_start.append(len(parent))
        below = []
        for n, node in enumerate(level, level_start[-2]):
            for code, child in node.children.items():
                parent.append(n)
                codes.append(code)
                below.append(child)
        level = below
    level_start.append(len(parent))
    leaf_ads = [node.end_of_ad for node in level] if depth else []
    parent, codes = np.array(parent, dtype=np.intp), np.array(codes, dtype=np.intp)
    levels = tuple(Level(lo - start, parent[lo:hi] - start, codes[lo:hi], np.arange(hi - lo))
                   for start, lo, hi in zip(level_start, level_start[1:-1], level_start[2:]))
    trie = Trie(root=root, depth=depth, ad_count=count, level_start=tuple(level_start),
                parent=parent, code=codes,
                leaf_ads=np.fromiter(leaf_ads, dtype=object, count=len(leaf_ads)),
                leaf_sids=np.fromiter(map(sids.__getitem__, leaf_ads), dtype=object,
                                      count=len(leaf_ads)),
                levels=levels)
    for array in (trie.parent, trie.code, trie.leaf_ads, trie.leaf_sids,
                  *(a for view in levels for a in view[1:])):
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
