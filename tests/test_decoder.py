import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genret import rqvae, synth
from genret.alignment import build_stage_corpora, train_staged, user_context
from genret.catalog import load_catalog
from genret.decoder import DecodeError, decode, decode_exhaustive
from genret.embed import embed_catalog
from genret.prompting import load_events, load_profiles
from genret.scorer import NeuralScorer, NgramScorer, RowState, ScorerContext
from genret.sid import SemanticId
from genret.trie import build
from genret.vocab import TABLE_CODES, Vocabulary, vocab_from_sids

from conftest import RowScorer, TableScorer, collision_tries, reference_decode

CTX = ScorerContext()


def test_worked_example_beam2(example_trie, example_scorer):
    result = decode(example_scorer, CTX, example_trie, beam_width=2)
    assert [(a, s.codes) for a, s, _ in result.entries] == [
        ("Ad_66", (12, 7, 4)), ("Ad_112", (12, 6, 22))]
    scores = [score for _, _, score in result.entries]
    assert scores[0] == pytest.approx(0.24, abs=1e-12)
    assert scores[1] == pytest.approx(0.192, abs=1e-12)


def test_worked_example_beam3(example_trie, example_scorer):
    # exhaustive products: 0.6*0.5*0.8=0.24, 0.6*0.4*0.8=0.192, 0.6*0.5*0.4=0.12
    result = decode(example_scorer, CTX, example_trie, beam_width=3)
    assert result.ad_ids() == ["Ad_66", "Ad_112", "Ad_245"]
    scores = [score for _, _, score in result.entries]
    assert scores == pytest.approx([0.24, 0.192, 0.12], abs=1e-12)


def test_worked_example_beam1(example_trie, example_scorer):
    result = decode(example_scorer, CTX, example_trie, beam_width=1)
    assert result.ad_ids() == ["Ad_66"]
    assert result.entries[0][2] == pytest.approx(0.24, abs=1e-12)


def test_exhaustive_single_ad():
    sids = {"only": SemanticId((3, 1, 0))}
    trie = build(sids)
    vocab = vocab_from_sids(sids)
    table = {(): {"a_3": 0.5}, ("a_3",): {"b_1": 0.25},
             ("a_3", "b_1"): {"c_0": 0.5}}
    result = decode_exhaustive(TableScorer(table, vocab), CTX, trie)
    assert result.ad_ids() == ["only"]
    assert result.entries[0][2] == pytest.approx(0.0625, abs=1e-15)


def test_exhaustive_matches_beam3(example_trie, example_scorer):
    beam = decode(example_scorer, CTX, example_trie, beam_width=3)
    full = decode_exhaustive(example_scorer, CTX, example_trie)
    assert beam.ad_ids() == full.ad_ids()
    assert [s for _, _, s in beam.entries] == [s for _, _, s in full.entries]


def _random_setup(rng, n_ads=12, levels=3, span=4):
    codes = set()
    while len(codes) < n_ads:
        codes.add(tuple(int(rng.integers(span)) for _ in range(levels)))
    sids = {f"ad{i}": SemanticId(c) for i, c in enumerate(sorted(codes))}
    trie = build(sids)
    vocab = vocab_from_sids(sids)

    class RandomScorer(RowScorer):
        def __init__(self):
            self.vocab = vocab
            self.seed = int(rng.integers(1 << 31))

        def prob_dist(self, context, prefix):
            local = np.random.default_rng(
                (self.seed, hash(tuple(prefix)) & 0x7FFFFFFF))
            dist = local.random(len(vocab)) + 1e-6
            return dist / dist.sum()

    return sids, trie, RandomScorer()


def test_no_pruning_equivalence_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        sids, trie, scorer = _random_setup(rng)
        beam = decode(scorer, CTX, trie, beam_width=len(sids) + 3)
        full = decode_exhaustive(scorer, CTX, trie)
        assert beam.ad_ids() == full.ad_ids()
        np.testing.assert_allclose([s for _, _, s in beam.entries],
                                   [s for _, _, s in full.entries], rtol=1e-12)


def test_validity_and_monotonicity_fuzz():
    from genret.trie import contains

    rng = np.random.default_rng(11)
    for _ in range(20)  :
        sids, trie, scorer = _random_setup(rng)
        for b in (1, 2, 5):
            result = decode(scorer, CTX, trie, beam_width=b)
            scores = [s for _, _, s in result.entries]
            assert all(contains(trie, sid) for _, sid, _ in result.entries)
            assert all(a >= b2 for a, b2 in zip(scores, scores[1:]))
            assert len(result) <= b


def test_beam_width_not_nested_in_general():
    # Layered pruning does not guarantee nested result sets: a wider beam can
    # keep a weaker parent whose children outscore everything the narrow beam
    # kept. This documents a concrete counterexample.
    sids = {"A": SemanticId((0, 0)), "B": SemanticId((1, 0)),
            "B2": SemanticId((1, 1))}
    trie = build(sids)
    vocab = vocab_from_sids(sids)
    table = {
        (): {"a_0": 0.6, "a_1": 0.4},
        ("a_0",): {"b_0": 0.1},
        ("a_1",): {"b_0": 0.9, "b_1": 0.8},
    }
    scorer = TableScorer(table, vocab)
    narrow = set(decode(scorer, CTX, trie, beam_width=1).ad_ids())
    wide = set(decode(scorer, CTX, trie, beam_width=2).ad_ids())
    assert narrow == {"A"}
    assert wide == {"B", "B2"}  # not a superset of the B=1 result


def test_beam_nested_once_no_pruning_occurs():
    # nestedness does hold between widths at or above the ad count
    rng = np.random.default_rng(13)
    for _ in range(10):
        sids, trie, scorer = _random_setup(rng)
        n = len(sids)
        base = set(decode(scorer, CTX, trie, beam_width=n).ad_ids())
        assert base <= set(decode(scorer, CTX, trie, beam_width=n + 5).ad_ids())


def test_determinism(example_trie, example_scorer):
    a = decode(example_scorer, CTX, example_trie, 2)
    b = decode(example_scorer, CTX, example_trie, 2)
    assert a.entries == b.entries


# the beam search and its exhaustive oracle, which check a scorer alike
SEARCHES = (lambda scorer, trie: decode(scorer, CTX, trie, 2),
            lambda scorer, trie: decode_exhaustive(scorer, CTX, trie))


def _with_b6(example_scorer, p):
    """The example scorer with P(b_6) set to p."""
    class BadScorer(RowScorer):
        vocab = example_scorer.vocab

        def prob_dist(self, context, prefix):
            dist = example_scorer.prob_dist(context, prefix)
            dist[self.vocab.lookup("b_6")] = p
            return dist

    return BadScorer()


def test_scorer_contract_errors(example_trie, example_scorer):
    for search in SEARCHES:
        with pytest.raises(DecodeError, match="contract violated: p=-0.5 for token b_6"):
            search(_with_b6(example_scorer, -0.5), example_trie)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scorer_contract_nonfinite(example_trie, example_scorer, bad):
    for search in SEARCHES:
        with pytest.raises(DecodeError, match=f"contract violated: p={bad} for token b_6"):
            search(_with_b6(example_scorer, bad), example_trie)


def test_scorer_contract_batch_shape(example_trie, example_scorer):
    """A state whose probs is not one value per candidate breaks the
    contract: one too many, one too few, or a column of them."""
    wrong_shapes = (lambda n: (n + 1,), lambda n: (n - 1,), lambda n: (n, 1))
    for shape_of in wrong_shapes:
        class WrongShapeState(RowState):
            def probs(self, rows, ids):
                return np.full(shape_of(len(ids)), 0.5)

        class WrongShapeScorer(RowScorer):
            vocab = example_scorer.vocab

            def begin(self, context):
                return WrongShapeState(example_scorer.prob_dist, context)

        with pytest.raises(DecodeError, match="contract violated: probs returned shape"):
            decode(WrongShapeScorer(), CTX, example_trie, 2)


def test_empty_trie_error(example_scorer):
    with pytest.raises(DecodeError, match="inventory"):
        decode(example_scorer, CTX, build({}), 2)


def test_prefix_score_monotone(example_trie, example_scorer):
    # each candidate's score is <= the product up to any earlier layer
    result = decode(example_scorer, CTX, example_trie, 3)
    for _, sid, score in result.entries:
        assert score <= 1.0
        assert score <= math.prod([0.6])  # layer-1 prefix bound


class CountingScorer:
    """Answers from another scorer's rows through ``RowState``, recording
    each ``probs`` call as (the state's prefixes, the rows asked); a
    ``prob_dist`` call fails the test."""

    def __init__(self, rows):
        self.rows = rows
        self.vocab = rows.vocab
        self.begun = 0
        self.calls = []

    def begin(self, context):
        calls = self.calls
        self.begun += 1

        class CountingState(RowState):
            def probs(self, rows, ids):
                calls.append((list(self.prefixes), rows.tolist()))
                return super().probs(rows, ids)

        return CountingState(self.rows.prob_dist, context)

    def prob_dist(self, context, prefix):
        raise AssertionError("decode asked for a single prefix")


def test_one_scorer_call_per_level(example_trie, example_scorer):
    counting = CountingScorer(example_scorer)
    result = decode(counting, CTX, example_trie, beam_width=2)
    assert result.entries == decode_exhaustive(example_scorer, CTX,
                                               example_trie).entries[:2]
    assert counting.begun == 1
    assert len(counting.calls) == example_trie.depth
    assert counting.calls[0] == ([()], [0])
    vocab = example_scorer.vocab
    # the beam at the last level, in code order, and each one's child
    b6, b7 = ((vocab.lookup("a_12"), vocab.lookup(b)) for b in ("b_6", "b_7"))
    assert counting.calls[2] == ([b6, b7], [0, 1, 1])

    rng = np.random.default_rng(17)
    for beam_width in (1, 3, 8):
        sids, trie, scorer = _random_setup(rng, n_ads=40, levels=4, span=3)
        counting = CountingScorer(scorer)
        decode(counting, CTX, trie, beam_width)
        assert counting.begun == 1
        assert len(counting.calls) == trie.depth
        for level, (prefixes, rows) in enumerate(counting.calls):
            # one row per kept prefix, each asked for every child it has
            assert len(prefixes) <= beam_width and set(rows) == set(range(len(prefixes)))
            assert all(len(p) == level for p in prefixes)
            assert rows == sorted(rows)


def test_prefixes_reach_the_scorer_as_ids(monkeypatch):
    """No token is looked up one by one, and no prefix is mapped to ids:
    NgramScorer maps nothing, NeuralScorer maps exactly its context's
    tokens once per state, which is once per prob_dist call and once per
    decode, not once per level, and a decode at beam 8 maps no S-ID token,
    since Vocabulary.code_ids maps each candidate code to its id."""
    sids, trie, _ = _random_setup(np.random.default_rng(19), n_ads=40, levels=4, span=3)
    vocab = vocab_from_sids(sids)
    ngram = NgramScorer(vocab)
    ngram.train([((), [vocab.lookup(t) for t in sid.tokens()]) for sid in sids.values()])
    context = ScorerContext(tokens=("cat:x", "novel"))
    levels = [[()], [(vocab.lookup("a_0"),), (vocab.lookup("a_1"),)],
              [(vocab.lookup("a_1"), vocab.lookup("b_2"))]]
    looked_up, mapped = [], []
    real_lookup, real_ids = Vocabulary.lookup, Vocabulary.ids
    monkeypatch.setattr(Vocabulary, "lookup",
                        lambda self, token: looked_up.append(token) or real_lookup(self, token))
    monkeypatch.setattr(Vocabulary, "ids",
                        lambda self, tokens: mapped.append(tuple(tokens)) or real_ids(self, tokens))
    prefixes = [p for level in levels for p in level]
    for prefix in prefixes:
        ngram.prob_dist(context, prefix)
    assert mapped == []
    neural = NeuralScorer(vocab, seed=2)
    for prefix in prefixes + prefixes:
        neural.prob_dist(context, prefix)
    assert mapped == [context.tokens] * (2 * len(prefixes))

    assert trie.depth > 1
    for scorer, calls in ((ngram, 0), (neural, 1)):
        mapped.clear()
        assert len(decode(scorer, context, trie, beam_width=8)) == 8
        assert mapped == [context.tokens] * calls
    mapped.clear()
    assert len(decode_exhaustive(ngram, context, trie)) == trie.ad_count
    assert mapped == [] and looked_up == []


def test_neural_decode_equals_exhaustive_on_trained_index(tmp_path):
    # the check the benchmark applies to the neural scorer: a whole-inventory
    # beam gives exactly the oracle's ads and scores
    seed = 3
    paths = synth.gen_data(synth.SyntheticSpec(seed=seed), tmp_path)
    catalog = load_catalog(paths["catalog"])
    profiles = load_profiles(paths["profiles"])
    table = embed_catalog(catalog, 32, seed)
    model = rqvae.train(rqvae.RqVaeConfig(epochs=30, seed=seed), table)
    sids = rqvae.assign_sids(model, table)
    trie = build(sids)
    events = load_events(paths["events"], sids)
    corpora = build_stage_corpora(catalog, sids, profiles, events, seed=seed)
    scorer, _ = train_staged(NeuralScorer(vocab_from_sids(sids), seed=seed),
                             {"main": corpora["main"]}, order=("main",), seed=seed)
    for uid in sorted(events)[:5]:
        context = user_context(profiles[uid], events[uid], catalog)
        beam = decode(scorer, context, trie, trie.ad_count)
        full = decode_exhaustive(scorer, context, trie)
        assert len(beam) == trie.ad_count
        assert beam.entries == full.entries


# a few probabilities, so that candidate scores tie exactly, and zeros, whose
# zero scores tie too
TIE_VALUES = (0.0, 0.0, 0.125, 0.25, 0.25, 0.5, 1.0 / 3.0, 1.0)
# normal probabilities, some one ulp apart, so that scores tie exactly or
# differ in their last bits; and the same with a subnormal
ULP_VALUES = (0.125, 0.25, 0.25, *np.nextafter(0.25, [0.0, 1.0]).tolist(), 0.5,
              float(np.nextafter(0.5, 0.0)), 1.0 / 3.0, float(np.nextafter(1.0 / 3.0, 1.0)))
SUBNORMAL_VALUES = ULP_VALUES + (5e-324,)


class TieScorer(RowScorer):
    """Each prefix's row drawn from ``values`` by a seed of its own. Each
    (token id, value) of ``bad`` is put in about half the rows, so a contract
    violation can come at any level and at more than one candidate."""

    def __init__(self, vocab, seed, bad=(), values=TIE_VALUES):
        self.vocab = vocab
        self.seed = seed
        self.bad = bad
        self.values = values

    def prob_dist(self, context, prefix):
        rng = np.random.default_rng([self.seed, len(prefix), *prefix])
        dist = rng.choice(self.values, size=len(self.vocab))
        for token_id, value in self.bad:
            if rng.random() < 0.5:
                dist[token_id] = value
        return dist


def _bits(result):
    return [(ad_id, sid, score.hex()) for ad_id, sid, score in result.entries]


@settings(max_examples=300, deadline=None)
@given(collision_tries(), st.integers(0, 2**31 - 1), st.data())
def test_decode_equals_the_pruning_oracle(tree, seed, data):
    """decode equals the oracle bit for bit on exact ties, on scores one
    ulp apart and with a subnormal."""
    sids, trie = tree
    beam = data.draw(st.integers(1, trie.ad_count), label="beam")
    values = data.draw(st.sampled_from((TIE_VALUES, ULP_VALUES, SUBNORMAL_VALUES)),
                       label="values")
    scorer = TieScorer(vocab_from_sids(sids), seed, values=values)
    result = decode(scorer, CTX, trie, beam)
    assert _bits(result) == _bits(reference_decode(scorer, CTX, trie, beam))
    assert all(entry[1] is sids[entry[0]] for entry in result.entries)


def test_products_that_underflow_tie_and_rank_by_codes():
    """Two paths whose products both underflow to 0.0 tie, so they rank by
    their codes, as decode_exhaustive ranks them, although a sum of logs
    would tell them apart."""
    sids = {"A": SemanticId((0, 0)), "B": SemanticId((1, 0))}
    trie, vocab = build(sids), vocab_from_sids(sids)
    table = {(): {"a_0": 1e-200, "a_1": 1e-190},
             ("a_0",): {"b_0": 1e-200}, ("a_1",): {"b_0": 1e-190}}
    scorer = TableScorer(table, vocab)
    full = decode_exhaustive(scorer, CTX, trie)
    assert full.entries == [("A", sids["A"], 0.0), ("B", sids["B"], 0.0)]
    assert decode(scorer, CTX, trie, 2).entries == full.entries


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_probability_reports_a_positive_zero(example_trie, example_scorer, zero):
    scorer = _with_b6(example_scorer, zero)
    for result in (decode(scorer, CTX, example_trie, example_trie.ad_count),
                   decode_exhaustive(scorer, CTX, example_trie)):
        zeros = [score for _, sid, score in result.entries if sid.codes[1] == 6]
        assert zeros and all(math.copysign(1.0, score) == 1.0 for score in zeros)


BAD_VALUES = (-0.5, -math.inf, math.inf, math.nan, -1e-300)


@settings(max_examples=200, deadline=None)
@given(collision_tries(), st.integers(0, 2**31 - 1), st.data())
def test_decode_names_the_oracles_contract_violation(tree, seed, data):
    sids, trie = tree
    vocab = vocab_from_sids(sids)
    beam = data.draw(st.integers(1, trie.ad_count), label="beam")
    bad = data.draw(st.lists(st.tuples(st.integers(0, len(vocab) - 1),
                                       st.sampled_from(BAD_VALUES)),
                             min_size=1, max_size=3), label="bad")
    scorer = TieScorer(vocab, seed, bad)
    try:
        expected = _bits(reference_decode(scorer, CTX, trie, beam))
    except DecodeError as exc:
        with pytest.raises(DecodeError) as raised:
            decode(scorer, CTX, trie, beam)
        assert str(raised.value) == str(exc)
    else:
        assert _bits(decode(scorer, CTX, trie, beam)) == expected


def _fan_out_setup():
    """400 ads over 4 base codes and a suffix that numbers each collision
    group, of 80 to 120 ads; so the last level holds 10 times the beam's
    candidates or more at beams 1 (one group), 8 and 32 (all 400)."""
    sizes = (80, 100, 100, 120)
    sids = {f"ad{len(sizes) * s + g:03d}": SemanticId((g // 2, g % 2, s))
            for g, size in enumerate(sizes) for s in range(size)}
    return sids, build(sids), (1, 8, 32)


def test_decode_equals_the_pruning_oracle_with_trained_scorers():
    rng = np.random.default_rng(23)
    setups = [(*_random_setup(rng, n_ads=40, levels=4, span=3)[:2], (1, 3, 8, 40, 128))
              for _ in range(5)] + [_fan_out_setup()]
    for sids, trie, beams in setups:
        vocab = vocab_from_sids(sids)
        ngram = NgramScorer(vocab)
        ngram.train([((), vocab.ids(sid.tokens())) for sid in list(sids.values())[::2]])
        context = ScorerContext(tokens=("cat:x", "a_1"))
        for scorer in (ngram, NeuralScorer(vocab, seed=int(rng.integers(100)))):
            for beam in beams:
                assert _bits(decode(scorer, context, trie, beam)) == _bits(
                    reference_decode(scorer, context, trie, beam))


def test_the_shared_trie_and_ngram_arrays_are_read_only():
    """Every decode reads the trie's arrays and the n-gram's tables, and the
    decoder and the scorers compute in place beside them: writing into any
    of them raises ValueError, and a decode and prob_dist still run."""
    sids, _, _ = _random_setup(np.random.default_rng(31), n_ads=40, levels=4, span=3)
    trie, vocab = build(sids), vocab_from_sids(sids)
    ngram = NgramScorer(vocab)
    ngram.train([((), vocab.ids(sid.tokens())) for sid in list(sids.values())[::2]])
    table, component, child = ngram._smoothed()[2:5]
    shared = [trie.parent, trie.code, trie.leaf_ads, trie.leaf_sids, table, component,
              child, *(array for view in trie.levels for array in view[1:])]
    assert len(shared) == 7 + 3 * trie.depth
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = array[:1]
    context = ScorerContext(tokens=("cat:x", "a_1"))
    for beam in (1, 8, trie.ad_count):
        assert _bits(decode(ngram, context, trie, beam)) == _bits(
            reference_decode(ngram, context, trie, beam))
    assert ngram.prob_dist(context, vocab.ids(["a_1", "b_0"])).sum() == pytest.approx(1.0)


def test_decode_equals_the_pruning_oracle_through_a_vocabulary_without_tables():
    """An ad whose S-ID holds a code at or above TABLE_CODES leaves its
    vocabulary without per-level tables, so code_ids looks up each rendered
    token: decode still equals the oracle bit for bit at beams 1 and 8."""
    sids, _, _ = _random_setup(np.random.default_rng(29), n_ads=40, levels=4, span=3)
    sids["ad_wide"] = SemanticId((1, TABLE_CODES, 0, 0))
    trie, vocab = build(sids), vocab_from_sids(sids)
    assert vocab._level_ids is None
    ngram = NgramScorer(vocab)
    ngram.train([((), vocab.ids(sid.tokens())) for sid in sids.values()])
    context = ScorerContext(tokens=("cat:x", "a_1"))
    for scorer in (ngram, NeuralScorer(vocab, seed=3)):
        for beam in (1, 8):
            assert _bits(decode(scorer, context, trie, beam)) == _bits(
                reference_decode(scorer, context, trie, beam))
