import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genret import decoder
from genret.alignment import PreferenceTriplet, dpo_update
from genret.scorer import (MAX_ORDER, NeuralScorer, NgramScorer, ScorerContext,
                           ScorerError, load_scorer, tokenize_text)
from genret.sid import SemanticId
from genret.trie import build as build_trie
from genret.vocab import Vocabulary, vocab_from_sids

from conftest import RowScorer, one_pair

SIDS = {f"ad{i}": SemanticId((i % 3, i // 3)) for i in range(9)}
CTX = ScorerContext(tokens=("cat", ":", "x"), bucket=("g", 1))


@pytest.fixture
def vocab():
    return vocab_from_sids(SIDS)


def ids(vocab, tokens):
    """The tokens' ids as Python ints, the form a prefix or response takes."""
    return [vocab.lookup(t) for t in tokens]


def test_tokenize_keeps_markers_whole():
    toks = tokenize_text("The user clicked <a_12> then; stopped.")
    assert "<a_12>" in toks
    assert toks[:3] == ["The", "user", "clicked"]
    assert ";" in toks and "." in toks


def test_tokenize_splits_punctuation():
    assert tokenize_text("age: 30") == ["age", ":", "30"]


# --- n-gram scorer -----------------------------------------------------------

def test_untrained_uniform(vocab):
    scorer = NgramScorer(vocab)
    dist = scorer.prob_dist(CTX, [])
    np.testing.assert_allclose(dist, np.full(len(vocab), 1 / len(vocab)),
                               atol=1e-12)


def test_counts_dominate_as_alpha_vanishes(vocab):
    scorer = NgramScorer(vocab, smoothing_alpha=1e-9)
    for _ in range(10):
        scorer.observe(CTX.bucket, ids(vocab, ["a_0"]), vocab.lookup("b_1"))
    dist = scorer.prob_dist(CTX, ids(vocab, ["a_0"]))
    assert dist[vocab.lookup("b_1")] > 0.999


def test_observed_closed_form(vocab):
    # one observation, alpha=0.5, order weights (1,2,4)/7
    scorer = NgramScorer(vocab, smoothing_alpha=0.5, max_order=2)
    scorer.observe(CTX.bucket, ids(vocab, ["a_0"]), vocab.lookup("b_1"))
    v = len(vocab)
    tid = vocab.lookup("b_1")
    dist = scorer.prob_dist(CTX, ids(vocab, ["a_0"]))
    # a one-token prefix clamps the order-2 window to the order-1 window, so
    # that slot holds count 2; the order-0 slot holds count 1
    w0, w1, w2 = 1 / 7, 2 / 7, 4 / 7
    expected = (w0 * (1.0 + 0.5) / (1.0 + 0.5 * v)
                + (w1 + w2) * (2.0 + 0.5) / (2.0 + 0.5 * v))
    assert dist[tid] == pytest.approx(expected, abs=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_bucket_isolation(vocab):
    scorer = NgramScorer(vocab)
    scorer.observe(("g1",), [], vocab.lookup("a_1"))
    d1 = scorer.prob_dist(ScorerContext(bucket=("g1",)), [])
    d2 = scorer.prob_dist(ScorerContext(bucket=("g2",)), [])
    assert d1[vocab.lookup("a_1")] > d2[vocab.lookup("a_1")]
    np.testing.assert_allclose(d2, np.full(len(vocab), 1 / len(vocab)),
                               atol=1e-12)


def test_ngram_save_load_round_trip(vocab, tmp_path):
    # the loaded scorer must agree to the bit
    scorer = NgramScorer(vocab, smoothing_alpha=0.3)
    scorer.train([(CTX.bucket, ids(vocab, ["a_0", "b_1"])),
                  (CTX.bucket, ids(vocab, ["a_2", "b_0"]))])
    scorer.train([(CTX.bucket, ids(vocab, [a, b])) for a in ("a_0", "a_1", "a_2")
                  for b in ("b_0", "b_1", "b_2", "b_1")])
    path = tmp_path / "scorer.json"
    scorer.save(path)
    loaded = load_scorer(path)
    assert isinstance(loaded, NgramScorer)
    for prefix in [ids(vocab, p) for p in [[], ["a_0"], ["a_1"], ["a_2"], ["b_1"]]]:
        np.testing.assert_array_equal(loaded.prob_dist(CTX, prefix),
                                      scorer.prob_dist(CTX, prefix))


def test_invalid_alpha(vocab):
    with pytest.raises(ScorerError):
        NgramScorer(vocab, smoothing_alpha=0.0)


@pytest.mark.parametrize("alpha, max_order", [(float("nan"), 2), (float("inf"), 2),
                                              (0.1, -1), (0.1, MAX_ORDER + 1)])
def test_ngram_rejects_bad_settings(vocab, alpha, max_order):
    # NaN fails no `<= 0` test, max_order -1 leaves no order to mix, and
    # above MAX_ORDER the weights' total is no finite float
    with pytest.raises(ScorerError):
        NgramScorer(vocab, smoothing_alpha=alpha, max_order=max_order)


def test_ngram_weights_hold_up_to_the_highest_order(vocab):
    weights = NgramScorer(vocab, max_order=MAX_ORDER).interpolation
    assert len(weights) == MAX_ORDER + 1
    assert all(w > 0 for w in weights) and sum(weights) == pytest.approx(1.0)


def test_ngram_snapshot_of_a_huge_order_names_its_file(vocab, tmp_path):
    """2.0**o overflows from order 1024: such a snapshot fails as every bad
    snapshot does, naming its file and the limit, not with an OverflowError."""
    path = tmp_path / "scorer.json"
    NgramScorer(vocab).save(path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "max_order": 2000}))
    with pytest.raises(ScorerError, match=rf"scorer\.json: max_order must be in "
                                          rf"\[0, {MAX_ORDER}\], got 2000"):
        load_scorer(path)


def test_ngram_snapshot_weights_are_checked(vocab, tmp_path):
    """A snapshot's weights must be the ones its max_order gives, and its
    settings must pass the constructor's checks."""
    path = tmp_path / "scorer.json"
    NgramScorer(vocab).save(path)
    payload = json.loads(path.read_text())
    assert payload["interpolation"] == [1 / 7, 2 / 7, 4 / 7]
    assert isinstance(NgramScorer.from_payload(payload), NgramScorer)
    bad = [{"interpolation": [0, 0, 0]}, {"interpolation": [1 / 3] * 3},
           {"interpolation": [4 / 7, 2 / 7, 1 / 7]}, {"max_order": 1},
           {"max_order": -1, "interpolation": []}, {"smoothing_alpha": float("nan")}]
    for change in bad:
        path.write_text(json.dumps({**payload, **change}))
        with pytest.raises(ScorerError):
            load_scorer(path)


def test_ngram_snapshot_of_a_window_longer_than_max_order_names_its_file(tmp_path):
    """train counts windows of at most max_order ids and no decode reads a
    longer one, so a snapshot that holds one was not saved from trained
    counts: it fails naming its file, the bucket and the window."""
    path = tmp_path / "scorer.json"
    path.write_text(json.dumps({
        "kind": "ngram", "version": 1, "smoothing_alpha": 0.1, "max_order": 1,
        "interpolation": [1 / 3, 2 / 3], "tokens": ["<unk>", "a_0", "a_1", "a_2"],
        "counts": [[["g"], [1, 2, 3], [[1, 9.0]]]]}))
    with pytest.raises(ScorerError, match=r"scorer\.json: snapshot counts of bucket \['g'\] "
                                          r"and window \[1, 2, 3\] name a window of 3 ids, "
                                          r"longer than max_order 1"):
        load_scorer(path)


def ngram_payload(g_window, g_counts):
    """A 3-token n-gram snapshot: bucket g's counts after g_window, and
    bucket h's one count."""
    return {"kind": "ngram", "version": 1, "smoothing_alpha": 0.1, "max_order": 2,
            "interpolation": [1 / 7, 2 / 7, 4 / 7], "tokens": ["<unk>", "<sep>", "<task>"],
            "counts": [[["g"], g_window, g_counts], [["h"], [], [[2, 1.0]]]]}


def test_ngram_snapshot_ids_are_checked():
    """Every count's token id and every window id of a snapshot must lie in
    [0, |V|): an entry is coded key·|V| + id, so id |V| would read as the
    next key's entry for id 0 and leave neither row summing to 1."""
    good = NgramScorer.from_payload(ngram_payload([], [[2, 5.0]]))
    for bucket in ("g", "h"):
        row = good.prob_dist(ScorerContext(bucket=(bucket,)), [])
        assert row.sum() == pytest.approx(1.0)
    for window, counts, bad in (([], [[2, 5.0], [3, 50.0]], "3"), ([], [[-1, 1.0]], "-1"),
                                ([3], [[2, 1.0]], "[3]"), ([0, -1], [[2, 1.0]], "-1")):
        with pytest.raises(ScorerError, match=r"bucket \['g'\] and window") as err:
            NgramScorer.from_payload(ngram_payload(window, counts))
        assert bad in str(err.value)


@pytest.mark.parametrize("counts, message", [
    # bucket g's empty-window entry given twice
    ([[["g"], [], [[2, 1.0]]], [["g"], [], [[2, 1.0]]]], "are given twice"),
    # id 2 given twice inside g's entry
    ([[["g"], [], [[2, 1.0], [1, 3.0], [2, 1.0]]]], "give id 2 twice"),
])
def test_ngram_snapshot_repeats_are_checked(counts, message):
    """A snapshot names each (bucket, window) entry once, and each id once
    inside an entry, instead of loading the last of a repeat."""
    with pytest.raises(ScorerError, match=r"bucket \['g'\] and window \[\] " + message):
        NgramScorer.from_payload({**ngram_payload([], []), "counts": counts})


@pytest.mark.parametrize("count", [-5.0, 0.0, float("nan"), float("inf")])
def test_ngram_snapshot_counts_are_checked(tmp_path, count):
    """Every count of a snapshot must be a finite number above 0, as train
    writes them: [[2, -5.0]] would make bucket g's row read [-0.021,
    -0.021, 1.043], and NaN would make it all NaN, failing only at decode."""
    path = tmp_path / "scorer.json"
    path.write_text(json.dumps(ngram_payload([], [[1, 2.0], [2, count]])))
    with pytest.raises(ScorerError, match=r"bucket \['g'\] and window \[\] give id 2 "
                                          r"the count"):
        load_scorer(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a_0", "a_1", "b_0", "b_1", "<unk>"]),
                max_size=5),
       st.integers(0, 1000))
def test_ngram_dist_sums_to_one(prefix, seed):
    vocab = vocab_from_sids(SIDS)
    scorer = NgramScorer(vocab)
    rng = np.random.default_rng(seed)
    tokens = ["a_0", "a_1", "b_0", "b_1", "c_0"]
    for _ in range(10):
        n = int(rng.integers(1, 4))
        seq = [tokens[int(rng.integers(len(tokens)))] for _ in range(n)]
        scorer.train([(CTX.bucket, ids(vocab, seq))])
    dist = scorer.prob_dist(CTX, ids(vocab, prefix))
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    assert (dist >= 0).all()


def loop_prob_dist(scorer, context, prefix_tokens):
    """The per-order loop over counts that the batched component rows
    replace, kept as the reference."""
    v = len(scorer.vocab)
    alpha = scorer.smoothing_alpha
    ids = tuple(scorer.vocab.lookup(t) for t in prefix_tokens)
    dist = np.zeros(v)
    for order, w in enumerate(scorer.interpolation):
        window = ids[max(len(ids) - order, 0):]
        key = (context.bucket, window)
        counts = scorer.counts.get(key)
        total = sum(counts.values()) if counts else 0.0
        component = np.full(v, alpha / (total + alpha * v))
        if counts:
            for tid, c in counts.items():
                component[tid] += c / (total + alpha * v)
        dist += w * component
    return dist


BUCKETS = [("g", 1), ("h",), ()]
TOKENS = ["a_0", "a_1", "a_2", "b_0", "b_1", "b_2"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(BUCKETS),
                          st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4)),
                max_size=12),
       st.lists(st.lists(st.sampled_from(TOKENS + ["novel"]), max_size=4),
                min_size=1, max_size=6),
       st.sampled_from(BUCKETS + [("unseen",)]),
       st.integers(0, 3),
       st.sampled_from([0.1, 0.5, 1e-3]))
def test_ngram_batch_rows_equal_loop_reference(samples, prefixes, bucket,
                                               max_order, alpha):
    vocab = vocab_from_sids(SIDS)
    scorer = NgramScorer(vocab, smoothing_alpha=alpha, max_order=max_order)
    scorer.train([(b, ids(vocab, seq)) for b, seq in samples])
    ctx = ScorerContext(bucket=bucket)
    prefix_ids = [ids(vocab, p) for p in prefixes]
    before = np.array([scorer.prob_dist(ctx, p) for p in prefix_ids])
    assert before.shape == (len(prefixes), len(vocab))
    for row, prefix in zip(before, prefixes):
        np.testing.assert_array_equal(row, loop_prob_dist(scorer, ctx, prefix))
    # a read after observe sees the new count: the cached components are dropped
    scorer.observe(bucket, prefix_ids[0], vocab.lookup("a_0"))
    after = np.array([scorer.prob_dist(ctx, p) for p in prefix_ids])
    for row, prefix in zip(after, prefixes):
        np.testing.assert_array_equal(row, loop_prob_dist(scorer, ctx, prefix))
    tid = vocab.lookup("a_0")
    assert after[0][tid] > before[0][tid]


def ngram_payload_of(vocab, max_order, keys):
    """An n-gram snapshot over vocab whose counts are keys: (bucket, window
    tokens, {token: count}) each."""
    return {"kind": "ngram", "version": 1, "smoothing_alpha": 0.1, "max_order": max_order,
            "interpolation": list(NgramScorer(vocab, max_order=max_order).interpolation),
            "tokens": vocab.tokens,
            "counts": [[list(bucket), ids(vocab, window),
                        [[vocab.lookup(t), c] for t, c in slot.items()]]
                       for bucket, window, slot in keys]}


_seqs = st.lists(st.sampled_from(TOKENS), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["train", "observe", "payload"]), st.integers(0, 3),
       st.sampled_from(BUCKETS + [("unseen",)]), st.data())
def test_ngram_level_rows_equal_loop_reference(source, max_order, bucket, data):
    """Whole levels of n-gram rows, each level kept in one call from the
    candidates of the level before, asked for every id of every row, that
    repeat and come in any order, equal the loop reference's rows bit for
    bit. The counts come from train, from observe alone, or from a snapshot
    whose windows may lack their shorter windows, as (a_0, b_1) in bucket g
    does here from max_order 2 unless (a_0,) is drawn."""
    vocab = vocab_from_sids(SIDS)
    scorer = NgramScorer(vocab, max_order=max_order)
    if source == "train":
        samples = data.draw(st.lists(st.tuples(st.sampled_from(BUCKETS), _seqs.filter(len)),
                                     max_size=12))
        scorer.train([(b, ids(vocab, seq)) for b, seq in samples])
    elif source == "observe":
        for b, prefix, t in data.draw(st.lists(st.tuples(
                st.sampled_from(BUCKETS), _seqs, st.sampled_from(TOKENS)), max_size=12)):
            scorer.observe(b, ids(vocab, prefix), vocab.lookup(t))
    else:
        # a snapshot holds no window longer than max_order
        windows = st.lists(st.sampled_from(TOKENS), max_size=max_order).map(tuple)
        keys = data.draw(st.lists(st.tuples(st.sampled_from(BUCKETS), windows),
                                  max_size=10, unique=True))
        if max_order >= 2 and (BUCKETS[0], ("a_0", "b_1")) not in keys:
            keys.append((BUCKETS[0], ("a_0", "b_1")))
        slots = st.dictionaries(st.sampled_from(TOKENS), st.sampled_from([0.5, 1.0, 3.0]),
                                max_size=3)
        scorer = NgramScorer.from_payload(ngram_payload_of(
            vocab, max_order, [(b, w, data.draw(slots)) for b, w in keys]))
    ctx = ScorerContext(bucket=bucket)
    v = len(vocab)
    state, prefixes = scorer.begin(ctx), [()]

    def assert_level_equals_loop():
        n = len(prefixes)
        got = state.probs(np.arange(n).repeat(v), np.tile(np.arange(v), n))
        for row, prefix in zip(got.reshape(n, v), prefixes):
            np.testing.assert_array_equal(row, loop_prob_dist(scorer, ctx, prefix))

    for _ in range(4):
        assert_level_equals_loop()
        at = data.draw(st.lists(st.integers(0, len(prefixes) - 1), min_size=1, max_size=8))
        toks = data.draw(st.lists(st.sampled_from(TOKENS + ["<unk>"]), min_size=len(at),
                                  max_size=len(at)))
        # candidate r·|V| + t of the level's call is row r's prefix plus id t
        state.keep(np.array(at, dtype=np.intp) * v + np.array(ids(vocab, toks), dtype=np.intp))
        prefixes = [prefixes[r] + (t,) for r, t in zip(at, toks)]
    assert_level_equals_loop()


@pytest.mark.parametrize("max_order", [2, 3])
def test_ngram_reads_a_window_whose_shorter_windows_have_no_counts(max_order):
    """A snapshot may count (a_0, b_1) in bucket g and neither () nor
    (a_0,): a decode along a_0, b_1 still reaches that window's counts."""
    vocab = vocab_from_sids(SIDS)
    scorer = NgramScorer.from_payload(ngram_payload_of(
        vocab, max_order, [(("g",), ("a_0", "b_1"), {"b_2": 5.0})]))
    ctx = ScorerContext(bucket=("g",))
    for prefix in [("a_0", "b_1"), ("b_0", "a_0", "b_1"), ("a_0",), ("a_1", "b_1")]:
        row = scorer.prob_dist(ctx, ids(vocab, prefix))
        np.testing.assert_array_equal(row, loop_prob_dist(scorer, ctx, prefix))
        counted = prefix[-2:] == ("a_0", "b_1")
        assert (row[vocab.lookup("b_2")] > row[vocab.lookup("b_0")]) == counted


@pytest.mark.parametrize("max_order", [0, 1, 2, 3])
@pytest.mark.parametrize("source", ["train", "payload"])
def test_ngram_table_edges_equal_loop_reference(source, max_order):
    """The table's edge slots, read through probs and keep, give the loop
    reference's rows bit for bit at every order: ids 0 and |V| - 1, counted
    and moved by; ids |V| - 2 and |V| - 1 counted after one window; an id
    no window counts; the dead state; the highest-numbered live state, the
    last counted key after train and the last uncounted prefix a snapshot
    leaves; and a bucket training never saw. Every counted window is
    walked from its bucket's root, one level per id, over levels of rows
    extended by every id a window holds and by one no window holds, and
    each level is asked for every id."""
    vocab = vocab_from_sids(SIDS)
    v = len(vocab)
    first, near, last, never = vocab.tokens[0], vocab.tokens[-2], vocab.tokens[-1], "a_1"
    if source == "train":
        scorer = NgramScorer(vocab, max_order=max_order)
        scorer.train([(BUCKETS[0], ids(vocab, [first, last, first])),
                      (BUCKETS[0], ids(vocab, [last, last])),
                      (BUCKETS[1], ids(vocab, [last, near, first])),
                      (BUCKETS[0], ids(vocab, [near, last, near, first]))])
    else:
        # windows whose shorter windows are not counted give uncounted
        # prefix states, the highest-numbered live ones
        keys = [(BUCKETS[1], (), {first: 1.0}), (BUCKETS[0], (first,) * max_order, {last: 2.0}),
                (BUCKETS[0], (last, near, first)[:max_order],
                 {first: 1.0, near: 2.0, last: 3.0}),
                (BUCKETS[1], (near,) * max_order, {near: 1.0, last: 1.0})]
        slots = {}  # a window that two keys share at a low max_order is given once
        for bucket, window, slot in keys:
            slots.setdefault((bucket, window), slot)
        scorer = NgramScorer.from_payload(ngram_payload_of(
            vocab, max_order, [(b, w, slot) for (b, w), slot in slots.items()]))
    roots, dead, table = scorer._smoothed()[:3]
    # one slot per key: a search cannot land on one of two slots that tie
    assert (np.diff(table) > 0).all()
    extend = ids(vocab, [first, near, last, never])
    reached = {}  # bucket -> the states its walk reached, held as state·|V|
    for bucket in BUCKETS[:2] + [("unseen",)]:
        ctx = ScorerContext(bucket=bucket)
        state, prefixes = scorer.begin(ctx), [()]
        seen = reached[bucket] = set()
        for _ in range(4):
            n = len(prefixes)
            got = state.probs(np.arange(n).repeat(v), np.tile(np.arange(v), n))
            for row, prefix in zip(got.reshape(n, v), prefixes):
                np.testing.assert_array_equal(
                    row, loop_prob_dist(scorer, ctx, [vocab.tokens[i] for i in prefix]))
            seen.update(state.states.ravel().tolist())
            # candidate r·|V| + t of the level's call is row r's prefix plus id t
            state.keep((np.arange(n)[:, None] * v + extend).ravel())
            prefixes = [p + (t,) for p in prefixes for t in extend]
    # an unseen bucket reads the dead state alone; from max_order 1 an
    # uncounted move reaches it from a seen bucket too
    assert reached.pop(("unseen",)) == {dead} and ("unseen",) not in roots
    live = set().union(*reached.values())
    assert (dead in live) == (max_order > 0)
    assert dead - v in live


def test_ngram_train_writes_one_snapshot_from_arrays_and_lists(tmp_path):
    """Responses given as numpy int rows, as Vocabulary.ids returns them,
    and the same responses as lists of Python ints write byte-identical
    scorer.json files of plain JSON ints."""
    vocab = vocab_from_sids(SIDS)
    rows = [(BUCKETS[k % 3], vocab.ids(seq)) for k, seq in enumerate(
        [["a_0", "b_1"], ["a_2", "b_0", "b_2"], ["<unk>"], ["b_2", "a_1"], []])]
    paths = []
    for as_list in (False, True):
        scorer = NgramScorer(vocab, max_order=2)
        scorer.train((bucket, row.tolist() if as_list else row) for bucket, row in rows)
        paths.append(tmp_path / f"scorer_{as_list}.json")
        scorer.save(paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_scorer(paths[0]).counts == scorer.counts


def test_ngram_builds_its_tables_once_per_change_of_counts(monkeypatch):
    """Fifty decodes with one scorer build its components and window states
    once; a train or an observe between decodes drops them, and the next
    decode builds them once more."""
    vocab = vocab_from_sids(SIDS)
    scorer = NgramScorer(vocab)
    scorer.train([(b, ids(vocab, [a, b_])) for b in BUCKETS
                  for a, b_ in (("a_0", "b_1"), ("a_2", "b_0"))])
    built = []
    smoothed = NgramScorer._smoothed

    def counting(self):
        before = self._components
        tables = smoothed(self)
        if tables is not before:
            built.append(tables)
        return tables

    monkeypatch.setattr(NgramScorer, "_smoothed", counting)
    trie = build_trie(SIDS)

    def decodes(n):
        for k in range(n):
            decoder.decode(scorer, ScorerContext(bucket=BUCKETS[k % 3]), trie, 1 + k % 4)

    decodes(50)
    assert len(built) == 1
    scorer.train([(BUCKETS[0], ids(vocab, ["a_1", "b_2"]))])
    decodes(50)
    assert len(built) == 2
    scorer.observe(BUCKETS[1], ids(vocab, ["a_1"]), vocab.lookup("b_1"))
    decodes(50)
    assert len(built) == 3


def test_empty_batch_has_no_rows():
    # a state asked for nothing gives nothing, and a level of no rows too
    vocab = vocab_from_sids(SIDS)
    ngram = NgramScorer(vocab)
    ngram.train([(BUCKETS[0], ids(vocab, ["a_0", "b_1"]))])
    none = np.zeros(0, dtype=np.intp)
    for scorer in (ngram, NeuralScorer(vocab, seed=3)):
        for ctx in (CTX, ScorerContext()):
            state = scorer.begin(ctx)
            assert state.probs(none, none).shape == (0,)
            state.keep(none)
            assert state.probs(none, none).shape == (0,)


def test_ngram_read_memory_is_linear_in_counts():
    # 600 (bucket, window) keys over a 20 000-token vocabulary: one dense
    # component row per key would take 600 * 20 000 * 8 bytes = 96 MB
    tokens = [f"t_{i}" for i in range(20_000)]
    scorer = NgramScorer(Vocabulary(["<unk>"] + tokens))
    rng = np.random.default_rng(0)
    for b in range(20):
        for _ in range(15):
            seq = [tokens[int(i)] for i in rng.integers(len(tokens), size=3)]
            scorer.train([((b,), ids(scorer.vocab, seq))])
    assert len(scorer.counts) > 600
    prefixes = [ids(scorer.vocab, p) for p in [(tokens[0], tokens[1]), (tokens[2],), ()]]
    tracemalloc.start()
    try:
        for prefix in prefixes:
            scorer.prob_dist(ScorerContext(bucket=(3,)), prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a row itself needs a few (orders x |V|) arrays, under 2 MB
    assert peak < 8 * 2**20


def observe_loop(counts, max_order, bucket, prefix_ids, next_id):
    """One dict update per window order, for one token: the reference that
    NgramScorer.train's counting of whole samples must equal."""
    ids = tuple(prefix_ids)
    for order in range(max_order + 1):
        window = ids[max(len(ids) - order, 0):]
        slot = counts.setdefault((bucket, window), {})
        slot[next_id] = slot.get(next_id, 0.0) + 1.0


def test_ngram_windows_clip_at_the_prefix_start():
    """At max_order 3 the prefix (1, 2) is the window of orders 2 and 3,
    and (2,) of order 1 alone: no window wraps round to the prefix's end."""
    scorer = NgramScorer(Vocabulary(["<unk>"]), max_order=3)
    scorer.train([(("b",), [1, 2, 3])])
    assert scorer.counts[(("b",), (2,))] == {3: 1.0}
    assert scorer.counts[(("b",), (1, 2))] == {3: 2.0}


def in_order(counts):
    """The counts with every key's and every token's insertion order."""
    return [(key, list(slot.items())) for key, slot in counts.items()]


# buckets that share keys ((1,) and (True,) hash and compare equal) and ids
# that are never vocabulary ids, to count whatever ints come in
_ngram_samples = st.lists(st.tuples(st.sampled_from([("g", 1), ("h",), (), (1,), (True,)]),
                                    st.lists(st.integers(-3, 6), max_size=5)),
                          max_size=8)


@settings(max_examples=120, deadline=None)
@given(st.lists(_ngram_samples, min_size=1, max_size=4), st.integers(0, 4),
       st.lists(st.tuples(st.sampled_from([("g", 1), ("h",)]),
                          st.lists(st.integers(0, 6), max_size=4), st.integers(0, 6)),
                max_size=3),
       st.data())
def test_ngram_train_equals_observe_loop(batches, max_order, observations, data):
    """Counting a batch gives the per-token loop's counts, values and
    insertion order of keys and tokens alike, over ragged samples, shared
    buckets, repeated calls and single observations. A batch arrives as a
    one-shot iterator, as train_staged passes a zip, and some of its
    responses as numpy int arrays, as Vocabulary.ids returns them."""
    scorer = NgramScorer(Vocabulary(["<unk>"]), max_order=max_order)
    reference: dict = {}
    for batch in batches:
        as_array = data.draw(st.lists(st.booleans(), min_size=len(batch),
                                      max_size=len(batch)))
        scorer.train(iter([(bucket, np.array(response, dtype=np.int64) if a else response)
                           for (bucket, response), a in zip(batch, as_array)]))
        for bucket, response in batch:
            for i, tid in enumerate(response):
                observe_loop(reference, max_order, bucket, response[:i], tid)
        assert in_order(scorer.counts) == in_order(reference)
        for bucket, prefix, tid in observations:
            scorer.observe(bucket, prefix, tid)
            observe_loop(reference, max_order, bucket, prefix, tid)
        assert in_order(scorer.counts) == in_order(reference)
    # every count and id is a Python float or int, as scorer.json needs
    for (_, window), slot in scorer.counts.items():
        assert all(type(i) is int for i in (*window, *slot))
        assert all(type(c) is float for c in slot.values())


def test_ngram_counts_do_not_overflow_at_a_wide_vocabulary():
    """Ids up to 2^32 - 1, wider than any vocabulary, each keep their own
    windows and counts at order 3, across windows that differ only in
    their oldest id and across buckets."""
    top = 2**32 - 1
    samples = [((0,), [top] * 4 + [0]), ((0,), [5, 7, 8, 9]), ((0,), [6, 7, 8, 9]),
               ((1,), [5, 7, 8, 9])]
    scorer = NgramScorer(Vocabulary(["<unk>"]), max_order=3)
    scorer.train(samples)
    reference: dict = {}
    for bucket, response in samples:
        for i, tid in enumerate(response):
            observe_loop(reference, 3, bucket, response[:i], tid)
    assert in_order(scorer.counts) == in_order(reference)


def test_ngram_train_holds_no_per_event_temporaries():
    """Training 20 000 samples peaks less than 64 KB above the counts it
    leaves: each event updates the counts in place, and nothing is held
    per event or per sample beyond the one being counted."""
    rng = np.random.default_rng(0)
    samples = [((int(b),), rng.choice(50, size=4, replace=False).tolist())
               for b in rng.integers(200, size=20_000)]
    scorer = NgramScorer(Vocabulary(["<unk>"]))
    tracemalloc.start()
    try:
        scorer.train(iter(samples))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 64 * 2**10


# --- neural scorer -----------------------------------------------------------

def oracle_forward(scorer, ctx_tokens, prefix_tokens):
    """Independent re-computation of the forward pass."""
    p = scorer.params
    ctx = [scorer.vocab.lookup(t) for t in ctx_tokens]
    pre = [scorer.vocab.lookup(t) for t in prefix_tokens]
    pool = np.zeros(scorer.embed_dim)
    if ctx:
        pool += sum(p["emb"][i] for i in ctx) / len(ctx)
    if pre:
        pool += sum(p["emb"][i] for i in pre) / len(pre)
    pool += p["pos"][min(len(pre), scorer.max_prefix)]
    h = np.tanh(p["w1"] @ pool + p["b1"])
    logits = p["w2"] @ h + p["b2"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def test_neural_forward_matches_oracle(vocab):
    scorer = NeuralScorer(vocab, seed=4)
    dist = scorer.prob_dist(CTX, ids(vocab, ["a_0", "b_1"]))
    expected = oracle_forward(scorer, CTX.tokens, ["a_0", "b_1"])
    np.testing.assert_allclose(dist, expected, atol=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_neural_deterministic(vocab):
    a = NeuralScorer(vocab, seed=1).prob_dist(CTX, ids(vocab, ["a_0"]))
    b = NeuralScorer(vocab, seed=1).prob_dist(CTX, ids(vocab, ["a_0"]))
    np.testing.assert_array_equal(a, b)


def test_the_in_place_forward_writes_into_no_input(vocab, monkeypatch):
    """_layers computes in place on the arrays its products make, and on
    nothing else: every parameter, and the pool each call is given, keeps
    its bits through a decode, through seq_logprob_vjp and its pullback,
    and through a DPO step's forwards."""
    policy = NeuralScorer(vocab, seed=7)
    reference = policy.copy()
    layers, given = NeuralScorer._layers, []

    def layers_checked(self, pool):
        before = {k: v.tobytes() for k, v in self.params.items()}
        given.append((pool, pool.tobytes()))
        out = layers(self, pool)
        assert {k: v.tobytes() for k, v in self.params.items()} == before
        return out

    monkeypatch.setattr(NeuralScorer, "_layers", layers_checked)
    start = {k: v.tobytes() for k, v in policy.params.items()}
    decoder.decode(policy, CTX, build_trie(SIDS), 4)
    _, pullback = policy.seq_logprob_vjp([vocab.ids(CTX.tokens)], [vocab.ids(["a_1", "b_0"])])
    pullback()
    pullback([2.0])
    assert {k: v.tobytes() for k, v in policy.params.items()} == start
    triplet = PreferenceTriplet(user=CTX, high_ad=SemanticId((1, 0)),
                                low_ad=SemanticId((2, 1)))
    dpo_update(policy, reference, [triplet], steps=1)
    assert {k: v.tobytes() for k, v in reference.params.items()} == start
    assert len(given) == 2 + 1 + 2  # two levels, one vjp, reference and policy
    assert all(pool.tobytes() == bits for pool, bits in given)


def test_seq_logprob_factorizes(vocab):
    scorer = NeuralScorer(vocab, seed=2)
    ctx, resp = vocab.ids(CTX.tokens), vocab.ids(["a_1", "b_0"])
    manual = (np.log(scorer.prob_dist(CTX, [])[vocab.lookup("a_1")])
              + np.log(scorer.prob_dist(CTX, ids(vocab, ["a_1"]))[vocab.lookup("b_0")]))
    assert one_pair(scorer, ctx, resp)[0] == float(manual)


def test_seq_grad_matches_finite_differences(vocab):
    scorer = NeuralScorer(vocab, embed_dim=6, hidden_dim=8, seed=3)
    ctx, resp = vocab.ids(CTX.tokens), vocab.ids(["a_1", "b_0"])
    _, grads = one_pair(scorer, ctx, resp)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for name, arr in scorer.params.items():
        flat = arr.reshape(-1)
        for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            old = flat[j]
            flat[j] = old + eps
            up = one_pair(scorer, ctx, resp)[0]
            flat[j] = old - eps
            down = one_pair(scorer, ctx, resp)[0]
            flat[j] = old
            fd = (up - down) / (2 * eps)
            g = grads[name].reshape(-1)[j]
            assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-6), name


def test_cross_entropy_training_step_reduces_loss(vocab):
    scorer = NeuralScorer(vocab, seed=5)
    ctx, resp = vocab.ids(CTX.tokens), vocab.ids(["a_2", "b_1"])
    logp0, grads = one_pair(scorer, ctx, resp)
    scorer.apply_grads(grads, -0.5)
    # the loss, -log P, falls
    assert one_pair(scorer, ctx, resp)[0] > logp0


def test_neural_save_load_round_trip(vocab, tmp_path):
    scorer = NeuralScorer(vocab, seed=6)
    path = tmp_path / "neural.json"
    scorer.save(path)
    loaded = load_scorer(path)
    assert isinstance(loaded, NeuralScorer)
    np.testing.assert_allclose(loaded.prob_dist(CTX, ids(vocab, ["a_0"])),
                               scorer.prob_dist(CTX, ids(vocab, ["a_0"])), atol=1e-15)


def test_neural_snapshot_shapes_are_checked(vocab, tmp_path):
    """Each parameter's name and shape must fit the snapshot's vocabulary
    and dimensions: a loaded w2 row too many would be a token the softmax
    spreads mass over, and a short emb would fail only at decode time."""
    path = tmp_path / "neural.json"
    NeuralScorer(vocab, embed_dim=4, hidden_dim=3, max_prefix=2, seed=1).save(path)
    payload = json.loads(path.read_text())
    params = payload["params"]
    assert isinstance(NeuralScorer.from_payload(payload), NeuralScorer)
    bad = {"w2": params["w2"] + params["w2"][:1], "b2": params["b2"] + [0.0],
           "emb": params["emb"][:-1], "pos": params["pos"][:-1],
           "w1": [row[:-1] for row in params["w1"]], "b1": params["b1"][:-1]}
    for name, value in bad.items():
        path.write_text(json.dumps({**payload, "params": {**params, name: value}}))
        with pytest.raises(ScorerError, match=name):
            load_scorer(path)
    missing = {k: v for k, v in params.items() if k != "b1"}
    for changed, name in ((missing, "b1"), ({**params, "w3": [0.0]}, "w3"), ({}, "emb")):
        path.write_text(json.dumps({**payload, "params": changed}))
        with pytest.raises(ScorerError, match=name):
            load_scorer(path)


def test_neural_snapshot_values_are_checked(vocab, tmp_path):
    """A parameter holding NaN, infinity or a string fails the load and is
    named, rather than loading and failing the first decode's contract
    check (or the load failing with numpy's TypeError)."""
    path = tmp_path / "neural.json"
    NeuralScorer(vocab, embed_dim=4, hidden_dim=3, max_prefix=2, seed=1).save(path)
    payload = json.loads(path.read_text())
    params = payload["params"]
    for name, value in (("b2", [float("nan")] + params["b2"][1:]),
                        ("emb", [[float("inf")] * 4] + params["emb"][1:]),
                        ("w1", [["x"] * 4] + params["w1"][1:])):
        path.write_text(json.dumps({**payload, "params": {**params, name: value}}))
        with pytest.raises(ScorerError, match=f"'{name}'.*not a finite number"):
            load_scorer(path)


def test_load_scorer_rejects_a_snapshot_that_is_not_an_object(tmp_path):
    path = tmp_path / "scorer.json"
    for text in ("[]", "3", '"neural"'):
        path.write_text(text)
        with pytest.raises(ScorerError, match="expected a JSON object"):
            load_scorer(path)


DROP = object()  # a change that leaves the key out


@pytest.mark.parametrize("kind, change, message", [
    ("ngram", {"max_order": 1.5}, "'max_order' must be an integer, got 1.5"),
    ("ngram", {"smoothing_alpha": None}, "'smoothing_alpha' must be a number, got null"),
    ("ngram", {"tokens": [0, 1, 2, 3, 4]}, "'tokens' must be"),
    ("neural", {"embed_dim": DROP}, "missing key 'embed_dim'"),
    ("ngram", {"tokens": ["<sep>", "<task>", "a_0", "b_1"]}, "that holds '<unk>'"),
    ("neural", {"tokens": ["<unk>", "<sep>", "<task>", "a_0", "a_0"]}, "distinct strings"),
    ("ngram", {"version": 2}, "'version' must be one of (1,), got 2"),
    ("neural", {"version": 2}, "'version' must be one of (1,), got 2"),
    ("neural", {"params": [0.0]}, "'params' must be a JSON object"),
    ("ngram", {"counts": [[["g"], [], [[1, 2.0]], []]]}, "'counts' must be"),
    ("ngram", {"counts": [[[[1]], [], [[1, 2.0]]]]}, "'counts' must be"),
    ("ngram", {"counts": [[["g"], [0.5], [[1, 2.0]]]]}, "'counts' must be"),
    ("ngram", {"counts": [[["g"], [], [["1", 2.0]]]]}, "'counts' must be"),
    ("ngram", {"interpolation": None}, "'interpolation' must be"),
    ("neural", {"seed": True}, "'seed' must be an integer, got true"),
    ("neural", {"hidden": 3}, "unknown key 'hidden'"),
])
def test_snapshot_headers_are_checked(vocab, tmp_path, kind, change, message):
    """Each kind's snapshot is checked against its spec before a scorer is
    built: a wrong JSON type, a missing or unknown key, a version other
    than 1, or a token list that is not distinct strings holding <unk>
    raises ScorerError naming the file, not a bare TypeError or KeyError,
    and does not load a vocabulary whose ids and tokens disagree."""
    path = tmp_path / "scorer.json"
    (NeuralScorer(vocab, embed_dim=2, hidden_dim=3, max_prefix=2) if kind == "neural"
     else NgramScorer(vocab)).save(path)
    payload = {**json.loads(path.read_text()), **change}
    path.write_text(json.dumps({k: v for k, v in payload.items() if v is not DROP}))
    with pytest.raises(ScorerError) as info:
        load_scorer(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_load_scorer_rejects_a_repeated_key(vocab, tmp_path):
    """A snapshot naming its kind twice would load as whichever kind came
    last; it raises ScorerError naming the file instead."""
    path = tmp_path / "scorer.json"
    NgramScorer(vocab).save(path)
    text = path.read_text()
    path.write_text('{"kind": "neural", ' + text.lstrip()[1:])
    assert text.count('"kind"') == 1
    with pytest.raises(ScorerError) as info:
        load_scorer(path)
    assert str(info.value).startswith(f"{path}: ") and "key 'kind' repeats" in str(info.value)


def test_load_scorer_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "mystery"}')
    with pytest.raises(ScorerError, match="mystery"):
        load_scorer(path)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(["a_0", "b_1", "<unk>", "novel"]), max_size=4))
def test_neural_dist_valid_probability(prefix):
    vocab = vocab_from_sids(SIDS)
    scorer = NeuralScorer(vocab, seed=7)
    dist = scorer.prob_dist(CTX, ids(vocab, prefix))
    assert dist.shape == (len(vocab),)
    assert (dist > 0).all()
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def loop_forward(scorer, ctx_tokens, prefix_tokens):
    """The single-row forward that the batched one replaces, kept as the
    reference: every row of a batch must equal it bit for bit."""
    p = scorer.params
    ctx_ids = [scorer.vocab.lookup(t) for t in ctx_tokens]
    prefix_ids = [scorer.vocab.lookup(t) for t in prefix_tokens]
    pool = np.zeros(scorer.embed_dim)
    if ctx_ids:
        pool = pool + p["emb"][ctx_ids].mean(axis=0)
    if prefix_ids:
        pool = pool + p["emb"][prefix_ids].mean(axis=0)
    pool = pool + p["pos"][min(len(prefix_ids), scorer.max_prefix)]
    h = np.tanh(p["w1"] @ pool + p["b1"])
    logits = p["w2"] @ h + p["b2"]
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


NEURAL_TOKENS = ["a_0", "a_1", "a_2", "b_0", "b_1", "b_2", "<unk>", "novel"]


def level_rows(scorer, context, prefixes) -> np.ndarray:
    """The (B, |V|) rows of one trie level's B id prefixes, all of one
    length, from one state: walked along the prefixes, each level's ids
    asked and kept, then asked for every id of every row at once."""
    v, n = len(scorer.vocab), len(prefixes)
    state = scorer.begin(context)
    rows = np.zeros(n, dtype=np.intp)
    for column in np.array(prefixes, dtype=np.intp).T:
        state.probs(rows, column)
        state.keep(None)
        rows = np.arange(n)
    return state.probs(rows.repeat(v), np.tile(np.arange(v), n)).reshape(n, v)


def assert_rows_equal_loop(scorer, ctx, prefixes):
    batch = level_rows(scorer, ctx, [ids(scorer.vocab, p) for p in prefixes])
    assert batch.shape == (len(prefixes), len(scorer.vocab))
    for row, prefix in zip(batch, prefixes):
        np.testing.assert_array_equal(row, loop_forward(scorer, ctx.tokens, prefix))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(NEURAL_TOKENS), max_size=7),
                min_size=1, max_size=40),
       st.lists(st.sampled_from(NEURAL_TOKENS + ["cat", ":"]), max_size=12),
       st.integers(0, 5),
       st.integers(0, 1000))
def test_neural_batch_rows_equal_loop_reference(prefixes, ctx_tokens, max_prefix, seed):
    # each length's prefixes as one batch, as a trie level sends them: empty
    # prefixes and prefixes longer than max_prefix, with or without context
    # tokens
    scorer = NeuralScorer(vocab_from_sids(SIDS), max_prefix=max_prefix, seed=seed)
    ctx = ScorerContext(tokens=tuple(ctx_tokens))
    for length in sorted({len(p) for p in prefixes}):
        assert_rows_equal_loop(scorer, ctx, [p for p in prefixes if len(p) == length])
    # and one row at a time
    for prefix in prefixes[:3]:
        np.testing.assert_array_equal(scorer.prob_dist(ctx, ids(scorer.vocab, prefix)),
                                      loop_forward(scorer, ctx.tokens, prefix))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["ngram", "neural"]),
       st.lists(st.tuples(st.sampled_from(BUCKETS),
                          st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4)),
                max_size=12),
       st.lists(st.sampled_from(NEURAL_TOKENS + ["cat", ":"]), max_size=6),
       st.integers(0, 3), st.integers(0, 1000), st.data())
def test_state_probs_equal_loop_reference(kind, samples, ctx_tokens, order, seed, data):
    """A decode state's probs, at levels 0 to 3 of a random sequence of
    asks and keeps whose rows and kept candidates repeat and come out of
    order, equal the loop reference's rows at every (row, id) asked, bit
    for bit."""
    vocab = vocab_from_sids(SIDS)
    tokens = vocab.tokens + ["novel"]
    if kind == "ngram":
        scorer = NgramScorer(vocab, max_order=order)
        scorer.train([(b, ids(vocab, seq)) for b, seq in samples])
        ctx = ScorerContext(tokens=tuple(ctx_tokens),
                            bucket=data.draw(st.sampled_from(BUCKETS + [("unseen",)])))

        def reference(prefix):
            return loop_prob_dist(scorer, ctx, prefix)
    else:
        scorer = NeuralScorer(vocab, max_prefix=order, seed=seed)
        ctx = ScorerContext(tokens=tuple(ctx_tokens))

        def reference(prefix):
            return loop_forward(scorer, ctx.tokens, prefix)

    def draw_pairs(rows):
        """Row numbers below ``rows``, repeated and unordered, and a token
        for each."""
        at = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
        return at, data.draw(st.lists(st.sampled_from(tokens), min_size=len(at),
                                      max_size=len(at)))

    state = scorer.begin(ctx)
    prefixes = [()]
    for level in range(4):
        at, toks = draw_pairs(len(prefixes))
        got = state.probs(np.array(at, dtype=np.intp), np.array(ids(vocab, toks), dtype=np.intp))
        want = [reference(prefixes[r])[vocab.lookup(t)] for r, t in zip(at, toks)]
        assert got.shape == (len(at),)
        np.testing.assert_array_equal(got, want)
        kept = data.draw(st.lists(st.integers(0, len(at) - 1), min_size=1, max_size=8))
        state.keep(np.array(kept, dtype=np.intp))
        prefixes = [prefixes[at[k]] + (toks[k],) for k in kept]


class RowsOf(RowScorer):
    """A scorer that answers one prefix at a time: its decode state is a
    ``RowState`` over another scorer's ``prob_dist`` rows."""

    def __init__(self, scorer):
        self.vocab, self.prob_dist = scorer.vocab, scorer.prob_dist


def keeping_scorer(kind, sids):
    """An n-gram trained on sids' tokens in each bucket, a neural scorer,
    or a RowState over that n-gram, by kind."""
    vocab = vocab_from_sids(sids)
    ngram = NgramScorer(vocab, max_order=2)
    ngram.train([(b, ids(vocab, sid.tokens())) for b in BUCKETS for sid in sids.values()])
    if kind == "neural":
        return NeuralScorer(vocab, max_prefix=2, seed=4)
    return ngram if kind == "ngram" else RowsOf(ngram)


STATE_KINDS = ["ngram", "neural", "rows"]


@pytest.mark.parametrize("kind", STATE_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_keep_takes_the_asked_candidates_at_idx(kind, data):
    """A state's next rows are its last probs call's candidates at idx, in
    idx order: after probs(rows, ids) and keep(idx), with idx None,
    repeated, permuted or empty, each row's next probs equal prob_dist of
    that row's prefix bit for bit, level after level."""
    scorer = keeping_scorer(kind, SIDS)
    v = len(scorer.vocab)
    ctx = ScorerContext(tokens=("a_0", "cat"),
                        bucket=data.draw(st.sampled_from(BUCKETS + [("unseen",)])))
    state, prefixes = scorer.begin(ctx), [()]
    for _ in range(3):
        rows = data.draw(st.lists(st.integers(0, len(prefixes) - 1), min_size=1, max_size=6))
        asked = data.draw(st.lists(st.integers(0, v - 1), min_size=len(rows),
                                   max_size=len(rows)))
        state.probs(np.array(rows, dtype=np.intp), np.array(asked, dtype=np.intp))
        n, how = len(rows), data.draw(st.sampled_from(["all", "repeated", "permuted", "empty"]))
        idx = None
        if how == "repeated":  # n + 1 picks of n candidates repeat one
            idx = data.draw(st.lists(st.integers(0, n - 1), min_size=n + 1, max_size=2 * n + 1))
        elif how == "permuted":
            idx = data.draw(st.permutations(range(n)))
        elif how == "empty":
            idx = []
        state.keep(None if idx is None else np.array(idx, dtype=np.intp))
        prefixes = [prefixes[rows[k]] + (asked[k],) for k in (range(n) if idx is None else idx)]
        m = len(prefixes)
        got = state.probs(np.arange(m).repeat(v), np.tile(np.arange(v), m))
        assert got.shape == (m * v,)
        for row, prefix in zip(got.reshape(m, v), prefixes):
            np.testing.assert_array_equal(row, scorer.prob_dist(ctx, prefix))
        if not prefixes:
            break


class Counting:
    """Another scorer, with every call its decode states get recorded by
    name in ``calls``."""

    def __init__(self, scorer):
        self.scorer, self.vocab, self.calls = scorer, scorer.vocab, []

    def begin(self, context):
        state, calls = self.scorer.begin(context), self.calls

        class Counted:
            def probs(self, rows, ids):
                calls.append("probs")
                return state.probs(rows, ids)

            def keep(self, idx):
                calls.append("keep")
                state.keep(idx)

        return Counted()


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_a_decode_asks_once_and_keeps_once_per_level(kind):
    """A decode of depth d makes d probs calls and d - 1 keep calls, one
    ask and one keep per level but the last, whether it keeps some of a
    level's candidates or all of them; and the list is the one the scorer
    gives uncounted."""
    sids = {f"ad{i}": SemanticId((i % 3, i // 3 % 3, i % 2, i // 2 % 2)) for i in range(36)}
    trie = build_trie(sids)
    scorer = keeping_scorer(kind, sids)
    for beam in (1, 4, 100):
        counting = Counting(scorer)
        result = decoder.decode(counting, CTX, trie, beam)
        assert counting.calls == ["probs", "keep"] * (trie.depth - 1) + ["probs"]
        assert result.entries == decoder.decode(scorer, CTX, trie, beam).entries


def test_neural_large_batch_rows_equal_loop_reference():
    # batch sizes where a single gemm would change the last bits of rows
    tokens = [f"{level}_{code}" for level in "abcd" for code in range(40)]
    scorer = NeuralScorer(Vocabulary(["<unk>"] + tokens), seed=9)
    rng = np.random.default_rng(9)
    ctx = ScorerContext(tokens=tuple(rng.choice(tokens, size=20)))
    for length in range(4):
        batch = [tuple(rng.choice(tokens, size=length)) for _ in range(1100)]
        assert_rows_equal_loop(scorer, ctx, batch)
    level = [tuple(rng.choice(tokens, size=3)) for _ in range(1000)]
    assert_rows_equal_loop(scorer, ScorerContext(), level)


def test_neural_decode_makes_one_batched_call_per_level(monkeypatch):
    from genret.decoder import decode
    from genret.trie import build

    sids = {f"ad{i}": SemanticId((i % 3, (i // 3) % 3, i % 2)) for i in range(12)}
    trie = build(sids)
    scorer = NeuralScorer(vocab_from_sids(sids), seed=8)
    states, batches, keeps = [], [], []
    real_begin = NeuralScorer.begin

    def spy_begin(self, context):
        state = real_begin(self, context)
        real_probs, real_keep = state.probs, state.keep
        states.append(state)

        def probs(rows, ids):
            batches.append(len(state.sums))
            return real_probs(rows, ids)

        def keep(idx):
            real_keep(idx)
            keeps.append(len(state.sums))

        state.probs, state.keep = probs, keep
        return state

    def forbidden(self, context, prefix):
        raise AssertionError("decode asked for whole rows")

    monkeypatch.setattr(NeuralScorer, "begin", spy_begin)
    monkeypatch.setattr(NeuralScorer, "prob_dist", forbidden)
    result = decode(scorer, CTX, trie, beam_width=4)
    assert len(states) == 1
    assert len(batches) == trie.depth
    assert batches[0] == 1 and max(batches) <= 4
    # the rows each level's forward runs are the beam the level before kept
    assert keeps == batches[1:]
    assert len(result) == 4


def test_neural_rows_depend_only_on_params_and_arguments():
    # a scorer keeps nothing of one call's context for the next: contexts
    # A, B, A give a fresh scorer's rows, and an update reaches every row
    vocab = vocab_from_sids(SIDS)
    scorer = NeuralScorer(vocab, seed=5)
    a = ScorerContext(tokens=("a_0", "b_1", "novel", "a_0"))
    b = ScorerContext(tokens=("a_2", "<unk>"))
    levels = [[tuple(ids(vocab, p)) for p in level]
              for level in ([()], [("a_1",), ("c_9",)], [("a_0", "b_2")])]
    for ctx in (a, b, a):
        for prefixes in levels:
            np.testing.assert_array_equal(
                level_rows(scorer, ctx, prefixes),
                level_rows(NeuralScorer(vocab, seed=5), ctx, prefixes))
    before = [level_rows(scorer, a, prefixes) for prefixes in levels]
    _, grads = one_pair(scorer, vocab.ids(a.tokens), vocab.ids(["a_1", "b_0"]))
    scorer.apply_grads(grads, -0.5)
    after = [level_rows(scorer, a, prefixes) for prefixes in levels]
    assert not any(np.array_equal(x, y) for x, y in zip(before, after))
    for prefixes, rows in zip(levels, after):
        np.testing.assert_array_equal(rows, level_rows(scorer.copy(), a, prefixes))


# --- teacher-forced pass: bit-exact against the per-step loop ---------------

def loop_logprob_and_grad(scorer, ctx_tokens, resp_tokens):
    """The per-step loop that the stacked teacher-forced pass replaces, kept
    as the reference: one single-row forward and backward per response
    token, each adding its share to gradients that start at zero."""
    p = scorer.params
    ctx_ids = [scorer.vocab.lookup(t) for t in ctx_tokens]
    resp_ids = [scorer.vocab.lookup(t) for t in resp_tokens]
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    logp = 0.0
    for i, tid in enumerate(resp_ids):
        prefix_ids = resp_ids[:i]
        pool = np.zeros(scorer.embed_dim)
        if ctx_ids:
            pool = pool + p["emb"][ctx_ids].mean(axis=0)
        if prefix_ids:
            pool = pool + p["emb"][prefix_ids].mean(axis=0)
        plen = min(len(prefix_ids), scorer.max_prefix)
        pool = pool + p["pos"][plen]
        h = np.tanh(np.matmul(p["w1"], pool[..., None])[..., 0] + p["b1"])
        logits = np.matmul(p["w2"], h[..., None])[..., 0] + p["b2"]
        logits = logits - logits.max()
        exp = np.exp(logits)
        probs = exp / exp.sum()
        logp += float(np.log(probs[tid]))
        d_logits = probs.copy()
        d_logits[tid] -= 1.0
        d_logits = -d_logits
        grads["w2"] += np.outer(d_logits, h)
        grads["b2"] += d_logits
        d_pre = (p["w2"].T @ d_logits) * (1.0 - h**2)
        grads["w1"] += np.outer(d_pre, pool)
        grads["b1"] += d_pre
        d_pool = p["w1"].T @ d_pre
        if ctx_ids:
            np.add.at(grads["emb"], ctx_ids, d_pool / len(ctx_ids))
        if prefix_ids:
            np.add.at(grads["emb"], prefix_ids, d_pool / len(prefix_ids))
        grads["pos"][plen] += d_pool
    return logp, grads


def loop_train_step(scorer, ctx_tokens, resp_tokens, lr):
    """A fine-tuning step by the per-position loop: negate the log-prob
    gradient, then subtract lr times it from every parameter."""
    _, grads = loop_logprob_and_grad(scorer, ctx_tokens, resp_tokens)
    for g in grads.values():
        g *= -1.0
    for k in scorer.params:
        scorer.params[k] -= lr * grads[k]


# context tokens may repeat, be <unk> or be out of vocabulary; responses
# repeat tokens and run past max_prefix
TF_TOKENS = ["a_0", "a_1", "b_0", "b_1", "c_2", "<unk>", "novel"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TF_TOKENS + ["cat", ":"]), max_size=10),
       st.lists(st.sampled_from(TF_TOKENS), max_size=7),
       st.integers(0, 6), st.integers(0, 1000))
def test_seq_logprob_and_grad_equal_step_loop(ctx_tokens, resp, max_prefix, seed):
    scorer = NeuralScorer(vocab_from_sids(SIDS), embed_dim=6, hidden_dim=5,
                          max_prefix=max_prefix, seed=seed)
    ctx, resp_ids = scorer.vocab.ids(ctx_tokens), scorer.vocab.ids(resp)
    logp, grads = one_pair(scorer, ctx, resp_ids)
    want_logp, want = loop_logprob_and_grad(scorer, ctx_tokens, resp)
    assert logp == want_logp
    assert grads.keys() == want.keys()
    for k in want:
        np.testing.assert_array_equal(grads[k], want[k], err_msg=k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(TF_TOKENS), max_size=6),
                          st.lists(st.sampled_from(TF_TOKENS), min_size=1,
                                   max_size=5)),
                min_size=1, max_size=6),
       st.integers(0, 4), st.integers(0, 1000))
def test_train_step_equals_loop_step(pairs, max_prefix, seed):
    scorer = NeuralScorer(vocab_from_sids(SIDS), embed_dim=6, hidden_dim=5,
                          max_prefix=max_prefix, seed=seed)
    reference = scorer.copy()
    for ctx_tokens, resp in pairs:
        _, grads = one_pair(scorer, scorer.vocab.ids(ctx_tokens),
                            scorer.vocab.ids(resp))
        scorer.apply_grads(grads, -0.3)
        loop_train_step(reference, ctx_tokens, resp, lr=0.3)
        for k in reference.params:
            np.testing.assert_array_equal(scorer.params[k], reference.params[k],
                                          err_msg=k)


def test_teacher_forced_rows_equal_single_prefix_forward():
    # every step of one long response, at about the vocabulary, context and
    # response sizes of the medium benchmark scale
    tokens = [f"{level}_{code}" for level in "abcd" for code in range(30)]
    scorer = NeuralScorer(Vocabulary(["<unk>"] + tokens), max_prefix=3, seed=2)
    rng = np.random.default_rng(2)
    ctx = ScorerContext(tokens=tuple(rng.choice(tokens, size=35)))
    resp = list(rng.choice(tokens, size=9))
    ctx_ids, resp_ids = scorer.vocab.ids(ctx.tokens), scorer.vocab.ids(resp)
    probs = scorer._forward(scorer._batch_layout([ctx_ids]), resp_ids[None])[3]
    for i in range(len(resp)):
        np.testing.assert_array_equal(probs[i], loop_forward(scorer, ctx.tokens, resp[:i]))
    logp, grads = one_pair(scorer, ctx_ids, resp_ids)
    want_logp, want = loop_logprob_and_grad(scorer, ctx.tokens, resp)
    assert logp == want_logp
    for k in want:
        np.testing.assert_array_equal(grads[k], want[k], err_msg=k)


# --- batched gradient: P pairs in one pass ----------------------------------

@st.composite
def pair_batches(draw):
    """P pairs of mixed context lengths, empty contexts among them, and one
    response length that may run past max_prefix, with a weight each."""
    n = draw(st.integers(0, 7))
    return draw(st.lists(st.tuples(
        st.lists(st.sampled_from(TF_TOKENS + ["cat", ":"]), max_size=12),
        st.lists(st.sampled_from(TF_TOKENS), min_size=n, max_size=n),
        st.floats(-2.0, 2.0, allow_nan=False)), min_size=1, max_size=7))


@settings(max_examples=60, deadline=None)
@given(pair_batches(), st.integers(0, 4), st.integers(0, 1000), st.booleans())
def test_batched_gradient_equals_sum_of_pair_gradients(pairs, max_prefix, seed, weighted):
    scorer = NeuralScorer(vocab_from_sids(SIDS), embed_dim=6, hidden_dim=5,
                          max_prefix=max_prefix, seed=seed)
    contexts = [scorer.vocab.ids(c) for c, _, _ in pairs]
    responses = [scorer.vocab.ids(r) for _, r, _ in pairs]
    weights = [w if weighted else 1.0 for _, _, w in pairs]
    logps, pullback = scorer.seq_logprob_vjp(contexts,
                                             np.array(responses).reshape(len(pairs), -1))
    grads = pullback(weights if weighted else None)
    want = scorer.zero_grads()
    for ctx, resp, w, logp in zip(contexts, responses, weights, logps):
        pair_logp, pair_grads = one_pair(scorer, ctx, resp)
        assert logp == pair_logp
        for k, g in pair_grads.items():
            want[k] += w * g
    assert grads.keys() == want.keys()
    for k in want:
        np.testing.assert_allclose(grads[k], want[k], rtol=0, atol=1e-12, err_msg=k)


def test_batched_gradient_rejects_unequal_counts():
    scorer = NeuralScorer(vocab_from_sids(SIDS), seed=0)
    context, response = scorer.vocab.ids(["a_0"]), scorer.vocab.ids(["a_1"])
    for contexts, responses in (([context] * 2, [response]), ([context], [response] * 2),
                                ([], [response])):
        with pytest.raises(ScorerError, match="contexts for"):
            scorer.seq_logprob_vjp(contexts, np.array(responses))
