import dataclasses
import pickle

import pytest
from hypothesis import example, given, strategies as st

from genret.sid import SemanticId, SidError, parse_token, render_token, rendered_tokens

from conftest import render_scan


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


# renders and near misses: bare tokens, a one-level render, a skipped or
# repeated level, a render starting past a, Unicode digits (a_\u0661),
# leading zeros, no space after a comma, and nesting
_NEAR_RENDERS = ["a_1", "b_2", "c_0", "A_1", "a_", "_1", "a_01", "a_\u0661", "b_1\u0661",
                 "<a_1>", "<b_0, c_0>", "<a_1, c_2>", "<a_1, b_2, b_3>",
                 "<a_1, b_2, c_3, c_4>", "<a_1,b_2>", "<a_01, b_2>", "<a_\u0661, b_2>",
                 "<a_1, b_1\u0661>",
                 "<<a_1, b_2>>", "<a_1, b_2 >", "<", ">", ",", ", ", " ", "\n", "^"]
_renders = st.lists(st.integers(0, 120), min_size=2, max_size=26).map(
    lambda codes: SemanticId(tuple(codes)).render())
_texts = st.one_of(
    st.lists(st.one_of(st.sampled_from(_NEAR_RENDERS), _renders), max_size=12).map("".join),
    st.text("<>, _abcz01\u0661", max_size=40))


@given(_texts)
@example(" ".join(_NEAR_RENDERS))
@example("<a_1, b_2, c_3, d_4, e_5, f_6, g_7, h_8, i_9, j_10, k_11, l_12, m_13, "
         "n_14, o_15, p_16, q_17, r_18, s_19, t_20, u_21, v_22, w_23, x_24, y_25, z_26>")
def test_rendered_tokens_are_the_spans_that_parse_and_re_render(text):
    """The tokens of each <...> span that SemanticId.parse accepts and
    that re-renders to itself, by an oracle that uses no regex."""
    assert rendered_tokens(text) == render_scan(text)


@given(st.lists(st.integers(0, 2000), min_size=2, max_size=26).map(tuple))
def test_rendered_tokens_of_a_render(codes):
    sid = SemanticId(codes)
    assert rendered_tokens(f"x {sid.render()}; a_1") == sid.tokens()
