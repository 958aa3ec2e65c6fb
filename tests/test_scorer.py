import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genret.scorer import (NeuralScorer, NgramScorer, ScorerContext,
                           ScorerError, load_scorer, tokenize_text)
from genret.sid import SemanticId
from genret.vocab import Vocabulary, vocab_from_sids

SIDS = {f"ad{i}": SemanticId((i % 3, i // 3)) for i in range(9)}
CTX = ScorerContext(tokens=("cat", ":", "x"), bucket=("g", 1))


@pytest.fixture
def vocab():
    return vocab_from_sids(SIDS)


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
        scorer.observe(CTX.bucket, ["a_0"], "b_1")
    dist = scorer.prob_dist(CTX, ["a_0"])
    assert dist[vocab.lookup("b_1")] > 0.999


def test_observed_closed_form(vocab):
    # one observation, alpha=0.5, order weights (1,2,4)/7
    scorer = NgramScorer(vocab, smoothing_alpha=0.5, max_order=2)
    scorer.observe(CTX.bucket, ["a_0"], "b_1")
    v = len(vocab)
    tid = vocab.lookup("b_1")
    dist = scorer.prob_dist(CTX, ["a_0"])
    # a one-token prefix clamps the order-2 window to the order-1 window, so
    # that slot holds count 2; the order-0 slot holds count 1
    w0, w1, w2 = 1 / 7, 2 / 7, 4 / 7
    expected = (w0 * (1.0 + 0.5) / (1.0 + 0.5 * v)
                + (w1 + w2) * (2.0 + 0.5) / (2.0 + 0.5 * v))
    assert dist[tid] == pytest.approx(expected, abs=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_bucket_isolation(vocab):
    scorer = NgramScorer(vocab)
    scorer.observe(("g1",), [], "a_1")
    d1 = scorer.prob_dist(ScorerContext(bucket=("g1",)), [])
    d2 = scorer.prob_dist(ScorerContext(bucket=("g2",)), [])
    assert d1[vocab.lookup("a_1")] > d2[vocab.lookup("a_1")]
    np.testing.assert_allclose(d2, np.full(len(vocab), 1 / len(vocab)),
                               atol=1e-12)


def test_train_weighting_equivalence(vocab):
    # training once with weight 2 equals training the same sample twice
    sample = (CTX, ["a_0", "b_1"])
    a = NgramScorer(vocab)
    a.train([sample], weight=2.0)
    b = NgramScorer(vocab)
    b.train([sample, sample])
    np.testing.assert_allclose(a.prob_dist(CTX, ["a_0"]),
                               b.prob_dist(CTX, ["a_0"]), atol=1e-12)


def test_ngram_save_load_round_trip(vocab, tmp_path):
    # at a stage weight that is not a whole number, a count total depends on
    # the order its terms are added in; the loaded scorer must still agree
    # to the bit
    scorer = NgramScorer(vocab, smoothing_alpha=0.3)
    scorer.train([(CTX, ["a_0", "b_1"]), (CTX, ["a_2", "b_0"])])
    scorer.train([(CTX, [a, b]) for a in ("a_0", "a_1", "a_2")
                  for b in ("b_0", "b_1", "b_2", "b_1")], weight=0.1)
    path = tmp_path / "scorer.json"
    scorer.save(path)
    loaded = load_scorer(path)
    assert isinstance(loaded, NgramScorer)
    prefixes = [[], ["a_0"], ["a_1"], ["a_2"], ["b_1"]]
    np.testing.assert_array_equal(loaded.next_probs(CTX, prefixes),
                                  scorer.next_probs(CTX, prefixes))


def test_invalid_alpha(vocab):
    with pytest.raises(ScorerError):
        NgramScorer(vocab, smoothing_alpha=0.0)


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
        scorer.train([(CTX, seq)])
    dist = scorer.prob_dist(CTX, prefix)
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
        window = ids[len(ids) - order:] if order else ()
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
    scorer.train([(ScorerContext(bucket=b), seq) for b, seq in samples])
    ctx = ScorerContext(bucket=bucket)
    before = scorer.next_probs(ctx, prefixes)
    assert before.shape == (len(prefixes), len(vocab))
    for row, prefix in zip(before, prefixes):
        expected = loop_prob_dist(scorer, ctx, prefix)
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(scorer.prob_dist(ctx, prefix), expected)
    # a read after observe sees the new count: the cached components are dropped
    scorer.observe(bucket, prefixes[0], "a_0")
    after = scorer.next_probs(ctx, prefixes)
    for row, prefix in zip(after, prefixes):
        np.testing.assert_array_equal(row, loop_prob_dist(scorer, ctx, prefix))
    tid = vocab.lookup("a_0")
    assert after[0][tid] > before[0][tid]


def test_ngram_read_memory_is_linear_in_counts():
    # 600 (bucket, window) keys over a 20 000-token vocabulary: one dense
    # component row per key would take 600 * 20 000 * 8 bytes = 96 MB
    tokens = [f"t_{i}" for i in range(20_000)]
    scorer = NgramScorer(Vocabulary(["<unk>"] + tokens))
    rng = np.random.default_rng(0)
    for b in range(20):
        for _ in range(15):
            seq = [tokens[int(i)] for i in rng.integers(len(tokens), size=3)]
            scorer.train([(ScorerContext(bucket=(b,)), seq)])
    assert len(scorer.counts) > 600
    prefixes = [(tokens[0], tokens[1]), (tokens[2],), ()]
    tracemalloc.start()
    try:
        scorer.next_probs(ScorerContext(bucket=(3,)), prefixes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the batch itself needs a few (orders x rows x |V|) arrays, about 2 MB
    assert peak < 8 * 2**20


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
    dist = scorer.prob_dist(CTX, ["a_0", "b_1"])
    expected = oracle_forward(scorer, CTX.tokens, ["a_0", "b_1"])
    np.testing.assert_allclose(dist, expected, atol=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_neural_deterministic(vocab):
    a = NeuralScorer(vocab, seed=1).prob_dist(CTX, ["a_0"])
    b = NeuralScorer(vocab, seed=1).prob_dist(CTX, ["a_0"])
    np.testing.assert_array_equal(a, b)


def test_seq_logprob_factorizes(vocab):
    scorer = NeuralScorer(vocab, seed=2)
    resp = ["a_1", "b_0"]
    manual = (np.log(scorer.prob_dist(CTX, [])[vocab.lookup("a_1")])
              + np.log(scorer.prob_dist(CTX, ["a_1"])[vocab.lookup("b_0")]))
    assert scorer.seq_logprob(CTX, resp) == float(manual)
    logp, _ = scorer.seq_logprob_and_grad(CTX, resp)
    assert logp == float(manual)


def test_seq_grad_matches_finite_differences(vocab):
    scorer = NeuralScorer(vocab, embed_dim=6, hidden_dim=8, seed=3)
    resp = ["a_1", "b_0"]
    _, grads = scorer.seq_logprob_and_grad(CTX, resp)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for name, arr in scorer.params.items():
        flat = arr.reshape(-1)
        for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            old = flat[j]
            flat[j] = old + eps
            up = scorer.seq_logprob(CTX, resp)
            flat[j] = old - eps
            down = scorer.seq_logprob(CTX, resp)
            flat[j] = old
            fd = (up - down) / (2 * eps)
            g = grads[name].reshape(-1)[j]
            assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-6), name


def test_cross_entropy_training_step_reduces_loss(vocab):
    scorer = NeuralScorer(vocab, seed=5)
    resp = ["a_2", "b_1"]
    loss0 = -scorer.seq_logprob(CTX, resp)
    _, grads = scorer.seq_logprob_and_grad(CTX, resp)
    scorer.apply_grads(grads, -0.5)
    loss1 = -scorer.seq_logprob(CTX, resp)
    assert loss1 < loss0


def test_neural_save_load_round_trip(vocab, tmp_path):
    scorer = NeuralScorer(vocab, seed=6)
    path = tmp_path / "neural.json"
    scorer.save(path)
    loaded = load_scorer(path)
    assert isinstance(loaded, NeuralScorer)
    np.testing.assert_allclose(loaded.prob_dist(CTX, ["a_0"]),
                               scorer.prob_dist(CTX, ["a_0"]), atol=1e-15)


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
    dist = scorer.prob_dist(CTX, prefix)
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


def assert_rows_equal_loop(scorer, ctx, prefixes):
    batch = scorer.next_probs(ctx, prefixes)
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
    # mixed lengths, empty prefixes and prefixes longer than max_prefix, with
    # or without context tokens
    scorer = NeuralScorer(vocab_from_sids(SIDS), max_prefix=max_prefix, seed=seed)
    ctx = ScorerContext(tokens=tuple(ctx_tokens))
    assert_rows_equal_loop(scorer, ctx, prefixes)
    # the same rows again as one equal-length batch, and one row at a time
    same = [p for p in prefixes if len(p) == len(prefixes[0])]
    assert_rows_equal_loop(scorer, ctx, same)
    for prefix in prefixes[:3]:
        np.testing.assert_array_equal(scorer.prob_dist(ctx, prefix),
                                      loop_forward(scorer, ctx.tokens, prefix))


def test_neural_large_batch_rows_equal_loop_reference():
    # batch sizes where a single gemm would change the last bits of rows
    tokens = [f"{level}_{code}" for level in "abcd" for code in range(40)]
    scorer = NeuralScorer(Vocabulary(["<unk>"] + tokens), seed=9)
    rng = np.random.default_rng(9)
    ctx = ScorerContext(tokens=tuple(rng.choice(tokens, size=20)))
    mixed = [tuple(rng.choice(tokens, size=int(rng.integers(0, 4))))
             for _ in range(1100)]
    assert_rows_equal_loop(scorer, ctx, mixed)
    level = [tuple(rng.choice(tokens, size=3)) for _ in range(1000)]
    assert_rows_equal_loop(scorer, ScorerContext(), level)


def test_neural_decode_makes_one_batched_call_per_level(monkeypatch):
    from genret.decoder import decode
    from genret.trie import build

    sids = {f"ad{i}": SemanticId((i % 3, (i // 3) % 3, i % 2)) for i in range(12)}
    trie = build(sids)
    scorer = NeuralScorer(vocab_from_sids(sids), seed=8)
    batches = []
    real = NeuralScorer.next_probs

    def spy(self, context, prefixes):
        batches.append(len(prefixes))
        return real(self, context, prefixes)

    def forbidden(self, context, prefix_tokens):
        raise AssertionError("decode asked for a single prefix")

    monkeypatch.setattr(NeuralScorer, "next_probs", spy)
    monkeypatch.setattr(NeuralScorer, "prob_dist", forbidden)
    result = decode(scorer, CTX, trie, beam_width=4)
    assert len(batches) == trie.depth
    assert batches[0] == 1 and max(batches) <= 4
    assert len(result) == 4


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
    ctx = ScorerContext(tokens=tuple(ctx_tokens))
    logp, grads = scorer.seq_logprob_and_grad(ctx, resp)
    want_logp, want = loop_logprob_and_grad(scorer, ctx_tokens, resp)
    assert logp == want_logp
    assert scorer.seq_logprob(ctx, resp) == want_logp
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
        _, grads = scorer.seq_logprob_and_grad(ScorerContext(tokens=tuple(ctx_tokens)),
                                               resp)
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
    ids = [scorer.vocab.lookup(t) for t in resp]
    probs = scorer._teacher_forced(scorer._ids(ctx.tokens), ids)[3]
    for i in range(len(resp)):
        np.testing.assert_array_equal(probs[i], loop_forward(scorer, ctx.tokens, resp[:i]))
    logp, grads = scorer.seq_logprob_and_grad(ctx, resp)
    want_logp, want = loop_logprob_and_grad(scorer, ctx.tokens, resp)
    assert logp == want_logp
    for k in want:
        np.testing.assert_array_equal(grads[k], want[k], err_msg=k)
