"""Vocabulary: the one map from a token or an S-ID code to a model id.

``ids`` is ``lookup`` of each token of a sequence. ``code_ids`` is
``lookup`` of each code's rendered token: it gathers from one table per
level, or looks up token by token in a vocabulary with a code at or above
TABLE_CODES, which has no tables. Compiled responses reach their ids
through it, and equal ``ids`` of each S-ID's tokens."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from genret.alignment import CorpusPair, compile_corpus
from genret.sid import SemanticId, render_token
from genret.vocab import TABLE_CODES, Vocabulary, vocab_from_sids

# spellings near render_token's that are not S-ID tokens: leading zeros,
# a non-ASCII digit, trailing whitespace; and tokens far from any
NON_CANONICAL = ["a_007", "b_01", "c_00", "a_\u0661", "a_1\n", "z_0 "]
EXTRA = ["cat:x", "<sep>", "a_", "_1", "A_1", "a1"]


@st.composite
def vocabularies(draw):
    """Vocabularies of small codes, and some with one code too wide for
    tables."""
    codes = st.tuples(st.integers(0, 4), st.integers(0, 12))
    sid_tokens = [render_token(*c) for c in draw(st.lists(codes, max_size=20))]
    if draw(st.booleans()):
        sid_tokens.append(render_token(draw(st.integers(0, 4)), TABLE_CODES))
    extra = draw(st.lists(st.sampled_from(NON_CANONICAL + EXTRA), max_size=8))
    return Vocabulary.build(sid_tokens, extra)


_ID_TOKENS = st.one_of(
    st.sampled_from(["a_0", "b_1", "c_2", "a_9", "<unk>", "<sep>", "<task>",
                     "cat:x", "cat:", "novel", ""]),
    st.builds(lambda level, code: f"{'abc'[level]}_{code}",
              st.integers(0, 2), st.integers(0, 4)),
    st.builds("cat:{}".format, st.text(max_size=3)),
    st.text(max_size=4))


@given(st.lists(_ID_TOKENS, max_size=12))
def test_ids_equal_lookup_per_token(tokens):
    sids = {f"ad{i}": SemanticId((i % 3, i // 3)) for i in range(9)}
    vocab = vocab_from_sids(sids, extra_tokens=("cat:x", "novel"))
    got = vocab.ids(tokens)
    want = np.array([vocab.lookup(t) for t in tokens], dtype=np.intp)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(vocabularies(), st.integers(0, 25), st.integers(0, 15))
@example(Vocabulary.build(["a_1"], ["a_001", "b_01"]), 0, 1)
@example(Vocabulary.build([], ["a_007"]), 0, 7)
@example(Vocabulary.build([], ["b_01"]), 1, 1)
@example(Vocabulary(["<unk>", "a_1", "a_01", "a_1"]), 0, 1)
@example(Vocabulary.build(["a_3", f"a_{TABLE_CODES}"]), 0, TABLE_CODES)  # no tables
def test_code_id_equals_rendered_lookup(vocab, level, code):
    ids = vocab.code_ids(level, np.array([code], dtype=np.intp))
    assert ids.tolist() == [vocab.lookup(render_token(level, code))]


@settings(max_examples=200, deadline=None)
@given(vocabularies(), st.integers(0, 25), st.lists(st.integers(0, 15), max_size=12))
@example(Vocabulary.build([], ["a_007"]), 0, [7, 0])
@example(Vocabulary.build(["b_3"]), 0, [3])
@example(Vocabulary.build(["a_3", f"a_{TABLE_CODES}"]), 0, [3, 7, TABLE_CODES])  # no tables
def test_code_ids_gathers_code_id(vocab, level, codes):
    """code_ids of many codes is the id of each code alone."""
    ids = vocab.code_ids(level, np.array(codes, dtype=np.intp))
    assert ids.dtype == np.intp
    assert ids.tolist() == [vocab.lookup(render_token(level, code)) for code in codes]


@st.composite
def responses(draw):
    """S-IDs of one depth, with codes past a vocabulary's tables, at levels
    past them, and at TABLE_CODES."""
    depth = draw(st.integers(2, 7))
    code = st.one_of(st.integers(0, 15), st.just(TABLE_CODES))
    return [SemanticId(tuple(codes)) for codes in draw(
        st.lists(st.lists(code, min_size=depth, max_size=depth), max_size=8))]


@settings(max_examples=200, deadline=None)
@given(vocabularies(), responses())
@example(Vocabulary.build(["a_3", f"a_{TABLE_CODES}"]),  # no tables
         [SemanticId((3, 0)), SemanticId((TABLE_CODES, 3)), SemanticId((7, 1))])
@example(Vocabulary.build(["a_1", "b_2"], ["a_01"]), [])
def test_compiled_responses_are_the_tokens_ids(vocab, sids):
    """compile_corpus's responses are ``ids`` of each S-ID's tokens, row by
    row, as one (P, n) intp array."""
    pairs = [CorpusPair(prompt="p", response=sid, stage="explicit") for sid in sids]
    got = compile_corpus(pairs, vocab)[1]
    assert got.dtype == np.intp
    assert got.shape == (len(sids), len(sids[0]) if sids else 0)
    assert got.tolist() == [vocab.ids(sid.tokens()).tolist() for sid in sids]
