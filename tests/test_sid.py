import dataclasses
import pickle
import string

import pytest
from hypothesis import example, given, strategies as st

from genret.sid import (SemanticId, SidError, is_token, parse_token, render_token,
                        rendered_tokens)

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


def test_a_code_must_fit_an_int64_index():
    """The trie and the id tables index codes as int64, so a code of 2**63
    fails where the S-ID is built, not later with an OverflowError."""
    assert SemanticId((2**63 - 1, 0)).codes == (2**63 - 1, 0)
    for codes in ((2**63, 0), (0, 2**64), (-1, 0)):
        with pytest.raises(SidError, match=r"code outside \[0, 2\*\*63\)"):
            SemanticId(codes)


def test_token_helpers():
    assert render_token(0, 12) == "a_12"
    assert parse_token("c_35") == (2, 35)
    with pytest.raises(SidError):
        parse_token("zz_1")


# --- the grammar: a token and a render parse only as render spells them -------

def oracle_token(text):
    """Whether text is a letter a-z, "_" and a code as str(int) writes it
    (ASCII digits, no leading zero), with no regex."""
    letter, underscore, digits = text[:1], text[1:2], text[2:]
    return (letter != "" and letter in string.ascii_lowercase and underscore == "_"
            and digits != "" and all(d in "0123456789" for d in digits)
            and str(int(digits)) == digits)


def oracle_render_codes(text):
    """The codes whose SemanticId render is text, or None, with no regex."""
    pieces = text[1:-1].split(", ")
    if not (len(text) >= 2 and 2 <= len(pieces) <= 26 and all(map(oracle_token, pieces))):
        return None
    codes = tuple(int(p[2:]) for p in pieces)
    return codes if SemanticId(codes).render() == text else None


# near misses of a token: leading zeros, a non-ASCII digit (a_\u0661), a
# sign, whitespace, an upper-case or non-ASCII letter, a missing part
_NEAR_TOKENS = ["a_007", "a_00", "a_\u0661", "b_1\u0661", "a_\u00b2", "a_1\n", "a_1 ",
                " a_1", "A_1", "a_+1", "a_-1", "\u00e4_1", "aa_1", "a__1", "a_", "_1", "a1",
                "", "a_0", "z_10"]
_tokens = st.one_of(
    st.sampled_from(_NEAR_TOKENS),
    st.builds(render_token, st.integers(0, 25), st.integers(0, 10**6)),
    st.builds("{}_{}".format, st.sampled_from(["a", "b", "z", "A", "\u00e4", ""]),
              st.text("0123456789\u0661\u00b2+- \n", max_size=4)),
    st.text("ab_019\u0661\n +A", max_size=6))


@given(_tokens)
@example("a_007")
@example("a_\u0661")
@example("a_1\n")
@example("A_1")
@example("a_+1")
def test_a_token_is_a_letter_and_a_code_as_str_writes_it(text):
    assert is_token(text) == oracle_token(text)
    if oracle_token(text):
        assert parse_token(text) == (string.ascii_lowercase.index(text[0]), int(text[2:]))
        assert render_token(*parse_token(text)) == text
    else:
        with pytest.raises(SidError):
            parse_token(text)


@st.composite
def _render_like(draw):
    """Level-ordered tokens, some swapped for any token, joined by ", " or
    a near miss of it and bracketed by "<" and ">" or a near miss of them."""
    tokens = [render_token(i % 26, c) for i, c in enumerate(
        draw(st.lists(st.integers(0, 120), max_size=27)))]
    for i in draw(st.lists(st.integers(0, max(len(tokens) - 1, 0)), max_size=2)):
        if tokens:
            tokens[i] = draw(_tokens)
    opening, separator, closing = (
        draw(st.one_of(st.just(exact), st.sampled_from(misses))) for exact, misses in (
            ("<", ["", " <", "<<", "< ", "\n<"]),
            (", ", [",", ",  ", " , ", ", \n", "; "]),
            (">", ["", "> ", " >", ">>", ">\n"])))
    return opening + separator.join(tokens) + closing


@given(st.one_of(_render_like(), st.text("<>, _abz01\u0661\n", max_size=30)))
@example("<a_1,b_2>")
@example(" <a_1, b_2>")
@example("<a_1,  b_2>")
@example("<a_1, b_2>\n")
@example("<a_007, b_2>")
@example("<a_\u0661, b_2>")
@example("<a_1\n, b_2>")
@example("<a_1, b_2>")
def test_parse_accepts_exactly_what_render_writes(text):
    """SemanticId.parse(text) succeeds iff text is SemanticId(codes).render()
    for some codes, and then returns those codes."""
    try:
        codes = SemanticId.parse(text).codes
    except SidError:
        codes = None
    assert codes == oracle_render_codes(text)


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
