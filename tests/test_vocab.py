"""Vocabulary.code_id: the one map from an S-ID code to a model id."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from genret.sid import SemanticId, render_token
from genret.vocab import TABLE_CODES, Vocabulary, vocab_from_sids

# spellings that parse as S-ID tokens but are not render_token's, and
# tokens that are not S-ID tokens at all
NON_CANONICAL = ["a_007", "b_01", "c_00", "a_\u0661", "a_1\n", "z_0 "]
EXTRA = ["cat:x", "<sep>", "a_", "_1", "A_1", "a1"]


@st.composite
def vocabularies(draw):
    codes = st.tuples(st.integers(0, 4), st.integers(0, 12))
    sid_tokens = [render_token(*c) for c in draw(st.lists(codes, max_size=20))]
    extra = draw(st.lists(st.sampled_from(NON_CANONICAL + EXTRA), max_size=8))
    return Vocabulary.build(sid_tokens, extra)


@settings(max_examples=200, deadline=None)
@given(vocabularies(), st.integers(0, 25), st.integers(0, 15))
@example(Vocabulary.build(["a_1"], ["a_001", "b_01"]), 0, 1)
@example(Vocabulary.build([], ["a_007"]), 0, 7)
@example(Vocabulary.build([], ["b_01"]), 1, 1)
@example(Vocabulary(["<unk>", "a_1", "a_01", "a_1"]), 0, 1)
def test_code_id_equals_rendered_lookup(vocab, level, code):
    assert vocab.code_id(level, code) == vocab.lookup(render_token(level, code))


@given(st.lists(st.integers(0, 9), min_size=2, max_size=5))
def test_sid_ids_are_the_tokens_ids(codes):
    sid = SemanticId(tuple(codes))
    vocab = vocab_from_sids({"ad": SemanticId((1, 2, 0))}, extra_tokens=["a_01"])
    assert vocab.sid_ids(sid) == [vocab.lookup(t) for t in sid.tokens()]


@settings(max_examples=200, deadline=None)
@given(vocabularies(), st.integers(0, 25), st.lists(st.integers(0, 15), max_size=12))
@example(Vocabulary.build([], ["a_007"]), 0, [7, 0])
@example(Vocabulary.build(["b_3"]), 0, [3])
@example(Vocabulary.build(["a_3", f"a_{TABLE_CODES}"]), 0, [3, 7])  # no tables
def test_code_ids_gathers_code_id(vocab, level, codes):
    ids = vocab.code_ids(level, np.array(codes, dtype=np.intp))
    assert ids.tolist() == [vocab.code_id(level, code) for code in codes]
