import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genret.sid import SemanticId
from genret.trie import TrieError, build, contains, valid_children

from conftest import collision_tries

# three-ad example: Ad_66 [a_12,b_7,c_4]; Ad_245 [a_12,b_7,c_14];
# Ad_112 [a_12,b_6,c_22]
EXAMPLE_SIDS = {
    "Ad_66": SemanticId((12, 7, 4)),
    "Ad_245": SemanticId((12, 7, 14)),
    "Ad_112": SemanticId((12, 6, 22)),
}


@pytest.fixture
def example_trie():
    return build(EXAMPLE_SIDS)


def test_example_shape(example_trie):
    t = example_trie
    assert t.ad_count == 3
    assert t.depth == 3
    assert valid_children(t, []) == [12]
    assert valid_children(t, [12]) == [6, 7]
    assert valid_children(t, [12, 7]) == [4, 14]
    assert valid_children(t, [12, 6]) == [22]
    assert valid_children(t, [99]) == []


def test_contains_and_lookup(example_trie):
    assert contains(example_trie, SemanticId((12, 7, 4)))
    assert not contains(example_trie, SemanticId((12, 7)))
    assert not contains(example_trie, SemanticId((12, 6, 4)))


def test_empty_input():
    t = build({})
    assert t.ad_count == 0
    assert valid_children(t, []) == []


def test_idempotent_reinsertion():
    once = build({"x": SemanticId((1, 2, 0))})
    twice = build({"x": SemanticId((1, 2, 0)), "y": SemanticId((1, 2, 0))})
    # same sequence twice: same structure, marker owned by the last inserter
    assert valid_children(twice, []) == valid_children(once, [])
    assert twice.ad_count == 1


def test_ragged_lengths_rejected():
    with pytest.raises(TrieError):
        build({"a": SemanticId((1, 2, 0)), "b": SemanticId((1, 2, 3, 0))})


def test_leaf_has_no_children(example_trie):
    assert valid_children(example_trie, [12, 7, 4]) == []


@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5),
                         st.integers(0, 2)), min_size=1, max_size=40))
def test_membership_exhaustive(codes_set):
    sids = {f"ad{i}": SemanticId(c) for i, c in enumerate(sorted(codes_set))}
    t = build(sids)
    assert t.ad_count == len(sids)
    universe = itertools.product(range(6), range(6), range(3))
    for codes in universe:
        assert contains(t, SemanticId(codes)) == (codes in codes_set)
    # valid_children equals the brute-force next-token sets
    for prefix_len in range(3):
        prefixes = {c[:prefix_len] for c in codes_set}
        for prefix in prefixes:
            expected = sorted({c[prefix_len] for c in codes_set
                               if c[:prefix_len] == prefix})
            assert valid_children(t, list(prefix)) == expected


def reference_owners(sids):
    """Leaf owners as inserting in ad-id order leaves them: the last
    inserter of a repeated sequence, the greatest ad id, owns its leaf."""
    owners = {}
    for ad_id in sorted(sids):
        owners[sids[ad_id].codes] = ad_id
    return owners


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
                min_size=1, max_size=30)
       .flatmap(lambda codes: st.permutations(list(enumerate(codes)))))
def test_children_in_code_order_for_any_insertion_order(entries):
    # dict insertion order is the order the entries were drawn in; repeated
    # code sequences make duplicate S-IDs
    sids = {f"ad{i}": SemanticId(codes) for i, codes in entries}
    t = build(sids)
    owners = {}
    stack = [(t.root, ())]
    while stack:
        node, codes = stack.pop()
        assert list(node.children) == sorted(node.children)
        if node.end_of_ad is not None:
            owners[codes] = node.end_of_ad
        stack.extend((child, codes + (c,)) for c, child in node.children.items())
    assert owners == reference_owners(sids)
    assert t.ad_count == len(owners)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                min_size=1, max_size=30)
       .flatmap(lambda codes: st.permutations(list(enumerate(codes)))))
def test_breadth_first_arrays_agree_with_the_node_walk(entries):
    sids = {f"ad{i}": SemanticId(codes) for i, codes in entries}
    t = build(sids)
    assert t.level_start[0] == 0 and t.level_start[-1] == len(t.parent) == len(t.code)
    assert (t.parent[0], t.code[0]) == (-1, -1)
    number = {(): 0}
    for level in range(1, t.depth + 1):
        # level l is the distinct l-code prefixes, contiguous and in
        # lexicographic order
        prefixes = sorted({sid.codes[:level] for sid in sids.values()})
        lo, hi = t.level_start[level], t.level_start[level + 1]
        assert hi - lo == len(prefixes)
        for n, prefix in enumerate(prefixes, lo):
            number[prefix] = n
            assert t.parent[n] == number[prefix[:-1]]
            assert t.code[n] == prefix[-1]
    # each node's children by the arrays are its children by the node walk
    for prefix, n in number.items():
        assert t.code[t.parent == n].tolist() == valid_children(t, list(prefix))
    first = t.level_start[t.depth]
    owners = reference_owners(sids)
    assert len(t.leaf_ads) == len(t.leaf_sids) == len(owners) == t.ad_count
    for codes, ad_id in owners.items():
        leaf_ad, leaf_sid = t.leaf_ads[number[codes] - first], t.leaf_sids[number[codes] - first]
        assert leaf_ad == ad_id and leaf_sid is sids[ad_id]


def test_empty_trie_arrays():
    t = build({})
    assert t.level_start == (0, 1) and len(t.leaf_ads) == len(t.leaf_sids) == 0
    assert t.parent.tolist() == [-1] and t.code.tolist() == [-1]
    assert t.levels == ()


@given(collision_tries(max_levels=4))
def test_levels_are_the_slices_they_replace(tree):
    """levels[l] is level l's node count and, for level l + 1, each node's
    parent numbered within level l, its code and an arange: the slices of
    level_start, parent and code that a decode would otherwise cut. The
    tries hold collision groups and repeated S-IDs, at depths 2 to 5."""
    _, t = tree
    assert len(t.levels) == t.depth
    for level, view in enumerate(t.levels):
        start, lo, hi = t.level_start[level:level + 3]
        assert view.count == lo - start
        for array, expected in ((view.parent, t.parent[lo:hi] - start),
                                (view.code, t.code[lo:hi]), (view.every, np.arange(hi - lo))):
            assert array.dtype == np.intp
            np.testing.assert_array_equal(array, expected)
    assert t.levels[-1].every.tolist() == list(range(len(t.leaf_ads)))
