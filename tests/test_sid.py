import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from genret.sid import SemanticId, SidError, parse_token, render_token


def test_render_tokens():
    sid = SemanticId((122, 28, 35, 15, 0))
    assert sid.tokens() == ("a_122", "b_28", "c_35", "d_15", "e_0")
    assert sid.render() == "<a_122, b_28, c_35, d_15, e_0>"


def test_parse_round_trip():
    text = "<a_122, b_28, c_35, d_15, e_0>"
    assert SemanticId.parse(text).render() == text


def test_base_and_disambiguation():
    sid = SemanticId((1, 2, 3, 7))
    assert sid.base == (1, 2, 3)
    assert sid.disambiguation == 7


def test_token_helpers():
    assert render_token(0, 12) == "a_12"
    assert parse_token("c_35") == (2, 35)
    with pytest.raises(SidError):
        parse_token("zz_1")


def test_wrong_level_prefix_rejected():
    with pytest.raises(SidError):
        SemanticId.parse("<b_1, a_2>")


@given(st.lists(st.integers(0, 2000), min_size=2, max_size=8))
def test_round_trip_property(codes):
    sid = SemanticId(tuple(codes))
    assert SemanticId.parse(sid.render()) == sid


_codes = st.lists(st.integers(0, 2000), min_size=2, max_size=8).map(tuple)


@given(_codes)
def test_tokens_render_each_code(codes):
    sid = SemanticId(codes)
    expected = tuple(render_token(i, c) for i, c in enumerate(codes))
    assert sid.tokens() == expected
    assert sid.tokens() == expected  # the kept tuple, read again
    assert sid.render() == "<" + ", ".join(expected) + ">"


@given(_codes, _codes)
def test_kept_tokens_are_invisible(codes, other):
    """An S-ID whose tokens were read equals, hashes, prints, pickles and
    replaces as one whose tokens were not."""
    read, fresh = SemanticId(codes), SemanticId(codes)
    read.tokens()
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) == f"SemanticId(codes={codes!r})"
    assert [f.name for f in dataclasses.fields(read)] == ["codes"]
    for sid in (read, fresh):
        back = pickle.loads(pickle.dumps(sid))
        assert back == sid and back.tokens() == sid.tokens()
        moved = dataclasses.replace(sid, codes=other)
        assert moved == SemanticId(other)
        assert moved.tokens() == SemanticId(other).tokens()
    assert (read == SemanticId(other)) == (codes == other)
