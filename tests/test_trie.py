import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genret.sid import SemanticId
from genret.trie import TrieError, build, contains, valid_children

from conftest import collision_tries, reference_owners

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


def check_levels(sids, t):
    """levels numbers each level's nodes from 0 in lexicographic prefix
    order, as the brute-force prefix sets give them: levels[l] holds level
    l's node count and, for level l + 1, each node's parent as its index in
    level l, its code and an arange, as intp arrays. The children they give
    each node are the node walk's, and leaf k is the last level's node k."""
    assert len(t.levels) == t.depth
    prefixes, index = [()], {(): 0}  # prefix -> its node's index within its level
    for level, view in enumerate(t.levels):
        below = sorted({sid.codes[:level + 1] for sid in sids.values()})
        index.update((prefix, j) for j, prefix in enumerate(below))
        assert view.count == len(prefixes)
        assert view.parent.tolist() == [index[prefix[:-1]] for prefix in below]
        assert view.code.tolist() == [prefix[-1] for prefix in below]
        assert view.every.tolist() == list(range(len(below)))
        assert all(array.dtype == np.intp for array in view[1:])
        for prefix in prefixes:
            assert (view.code[view.parent == index[prefix]].tolist()
                    == valid_children(t, list(prefix)))
        prefixes = below
    owners = reference_owners(sids)
    assert len(t.leaf_ads) == len(t.leaf_sids) == len(owners) == t.ad_count
    assert t.levels[-1].every.tolist() == list(range(len(t.leaf_ads)))
    for codes, ad_id in owners.items():
        assert t.leaf_ads[index[codes]] == ad_id and t.leaf_sids[index[codes]] is sids[ad_id]
        assert valid_children(t, list(codes)) == []


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                min_size=1, max_size=30)
       .flatmap(lambda codes: st.permutations(list(enumerate(codes)))))
def test_levels_agree_with_the_node_walk_for_any_insertion_order(entries):
    sids = {f"ad{i}": SemanticId(codes) for i, codes in entries}
    check_levels(sids, build(sids))


@given(collision_tries(max_levels=4))
def test_levels_agree_with_the_node_walk_on_collision_groups(tree):
    """The tries hold collision groups and repeated S-IDs, at depths 2 to 5."""
    check_levels(*tree)


def test_empty_trie_levels():
    t = build({})
    assert t.levels == () and t.depth == 0
    assert len(t.leaf_ads) == len(t.leaf_sids) == t.ad_count == 0
