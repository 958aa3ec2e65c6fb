import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genret.rqvae import (RqVaeConfig, RqVaeError, TrainingDivergedError,
                          assign_sids, codebook_metrics, encode,
                          _forward_backward, freeze_forward, init_model,
                          load_sids, losses, quantize, save_sids, seed_codebooks,
                          surrogate_loss, total_loss, train)
from genret import synth
from genret.catalog import load_catalog
from genret.embed import EmbeddingTable, embed_catalog
from genret.synth import make_cluster_table


def small_config(**kw):
    defaults = dict(num_levels=2, codebook_size=4, latent_dim=8, seed=0)
    defaults.update(kw)
    return RqVaeConfig(**defaults)


# --- quantization ------------------------------------------------------------

def test_quantize_single_level_hand_case():
    cb = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    codes, z, residuals = quantize([cb], np.array([0.9, 1.2]))
    assert codes == [1]
    np.testing.assert_array_equal(z, [1.0, 1.0])
    np.testing.assert_allclose(residuals[1], [-0.1, 0.2], atol=1e-15)


def test_quantize_two_level_hand_case():
    cb0 = np.array([[0.0, 0.0], [2.0, 2.0]])
    cb1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    codes, z, residuals = quantize([cb0, cb1], np.array([2.4, 2.1]))
    # level 0: nearest to (2,2); residual (0.4, 0.1) -> nearest (0.5, 0)
    assert codes == [1, 0]
    np.testing.assert_allclose(z, [2.5, 2.0], atol=1e-15)
    np.testing.assert_allclose(residuals[2], [-0.1, 0.1], atol=1e-15)


def test_residual_telescoping():
    rng = np.random.default_rng(3)
    codebooks = [rng.normal(size=(6, 5)) for _ in range(4)]
    z_hat = rng.normal(size=5)
    codes, z, residuals = quantize(codebooks, z_hat)
    assert len(residuals) == 5
    np.testing.assert_allclose(z + residuals[-1], z_hat, atol=1e-14)
    for l, c in enumerate(codes):
        np.testing.assert_allclose(
            residuals[l + 1] + codebooks[l][c], residuals[l], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_quantize_argmin_property(seed):
    rng = np.random.default_rng(seed)
    codebooks = [rng.normal(size=(5, 3)) for _ in range(3)]
    codes, _, residuals = quantize(codebooks, rng.normal(size=3))
    for l, c in enumerate(codes):
        dists = np.sum((codebooks[l] - residuals[l]) ** 2, axis=1)
        assert dists[c] == min(dists)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_quantize_batch_matches_rows(seed, n):
    rng = np.random.default_rng(seed)
    codebooks = [rng.normal(size=(5, 4)) for _ in range(3)]
    Z = rng.normal(size=(n, 4))
    codes, z, residuals = quantize(codebooks, Z)
    for i in range(n):
        row_codes, row_z, row_residuals = quantize(codebooks, Z[i])
        np.testing.assert_array_equal([c[i] for c in codes], row_codes)
        np.testing.assert_array_equal(z[i], row_z)
        for r, row_r in zip(residuals, row_residuals, strict=True):
            np.testing.assert_array_equal(r[i], row_r)


def broadcast_quantize(codebooks, z_hat):
    """The exact nearest-code search that quantize certifies its fast ranking
    against, kept as the reference: one broadcast distance per code."""
    r = np.asarray(z_hat, dtype=np.float64)
    codes, residuals, z = [], [r], np.zeros_like(r)
    for cb in codebooks:
        k = np.argmin(np.sum((cb - r[..., None, :]) ** 2, axis=-1), axis=-1)
        codes.append(k)
        z = z + cb[k]
        r = r - cb[k]
        residuals.append(r)
    return codes, z, residuals


SCALES = [1e-8, 1e-4, 0.37, 1.0, 1e3, 1e6]


@st.composite
def quantizer_inputs(draw):
    """Codebooks and a vector or batch, with the cases where a fast ranking
    and the exact distances could disagree: duplicated codes, rows at or
    next to the midpoint of two codes, zero rows and zero codes, and codes
    on an integer grid, where ties are exact."""
    d = draw(st.integers(1, 64))
    k = draw(st.integers(1, 9))
    levels = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    one_row = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    if draw(st.booleans()):
        codebooks = [rng.integers(-2, 3, size=(k, d)) * scale for _ in range(levels)]
    else:
        codebooks = [rng.normal(size=(k, d)) * scale * draw(st.sampled_from([1.0, 1e-3]))
                     for _ in range(levels)]
    for cb in codebooks:
        if k > 1 and draw(st.booleans()):
            cb[rng.integers(k)] = cb[rng.integers(k)]        # a duplicated code
        if draw(st.booleans()):
            cb[rng.integers(k)] = 0.0                        # a zero code
    rows = rng.normal(size=(max(n, 1), d)) * scale
    cb0 = codebooks[0]
    for i in range(len(rows)):
        kind = draw(st.sampled_from(["random", "midpoint", "near-midpoint", "zero",
                                     "code"]))
        a, b = cb0[rng.integers(k)], cb0[rng.integers(k)]
        if kind == "midpoint":
            rows[i] = (a + b) / 2
        elif kind == "near-midpoint":
            rows[i] = (a + b) / 2 * (1 + rng.normal(size=d) * 2.0**-50)
        elif kind == "zero":
            rows[i] = 0.0
        elif kind == "code":
            rows[i] = a
    z_hat = rows[0] if one_row else rows[:n]
    return codebooks, z_hat


@settings(max_examples=300, deadline=None)
@given(quantizer_inputs())
def test_quantize_equals_broadcast_argmin(inputs):
    codebooks, z_hat = inputs
    codes, z, residuals = quantize(codebooks, z_hat)
    want_codes, want_z, want_residuals = broadcast_quantize(codebooks, z_hat)
    for got, want in zip(codes, want_codes, strict=True):
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(z, want_z)
    for got, want in zip(residuals, want_residuals, strict=True):
        np.testing.assert_array_equal(got, want)


def test_quantize_breaks_ties_to_the_lower_code():
    # the row sits exactly between codes 1 and 3, and code 2 duplicates 1
    cb = np.array([[4.0, 4.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    codes, _, _ = quantize([cb], np.zeros((3, 2)))
    np.testing.assert_array_equal(codes[0], [1, 1, 1])


def test_train_runs_one_quantize_per_epoch_and_level(monkeypatch):
    """rqvae.train reaches the nearest-code search only through the module's
    quantize: once per epoch and once per level while seeding codebooks."""
    from genret import rqvae

    calls = []
    real = rqvae.quantize

    def counting(codebooks, z_hat):
        calls.append(len(codebooks))
        return real(codebooks, z_hat)

    monkeypatch.setattr(rqvae, "quantize", counting)
    table = make_cluster_table(2, 8, dim=16, seed=1)
    config = RqVaeConfig(num_levels=3, codebook_size=4, latent_dim=8, epochs=7)
    rqvae.train(config, table)
    assert len(calls) == config.epochs + config.num_levels
    assert calls.count(1) == config.num_levels


# --- losses ------------------------------------------------------------------

def test_losses_closed_form():
    config = small_config(commitment_weight=0.25, latent_dim=2)
    model = init_model(config, 2)
    # hand-set decoder: z -> tanh(z)
    hidden = model.params["dec_w1"].shape[0]
    model.params["dec_w1"] = np.zeros((hidden, 2))
    model.params["dec_w1"][:2, :2] = np.eye(2)
    model.params["dec_b1"] = np.zeros(hidden)
    model.params["dec_w2"] = np.zeros((2, hidden))
    model.params["dec_w2"][:2, :2] = np.eye(2)
    model.params["dec_b2"] = np.zeros(2)
    model.codebooks = [np.array([[1.0, 0.0], [0.0, 1.0]]),
                       np.array([[0.0, 0.0], [0.1, 0.1]])]

    x = np.array([0.8, 0.1])
    codes, _, residuals = quantize(model.codebooks, x)
    recons, quant = losses(model, x, codes, residuals)
    # codes: level0 -> (1,0); residual (-0.2, 0.1) -> level1 nearest (0,0)
    assert codes == [0, 0]
    # x_hat = tanh(z) = (tanh 1, tanh 0)
    assert recons == pytest.approx((0.8 - math.tanh(1.0))**2 + 0.1**2, abs=1e-12)
    # quant = (1+beta) * (||r0-e0||^2 + ||r1-e1||^2)
    expected = 1.25 * ((0.2**2 + 0.1**2) + (0.2**2 + 0.1**2))
    assert quant == pytest.approx(expected, abs=1e-12)


def test_forward_backward_loss_matches_losses():
    config = small_config()
    rng = np.random.default_rng(1)
    model = init_model(config, 16)
    X = rng.normal(size=(6, 16))
    loss, _ = _forward_backward(model, X)
    z_hats = encode(model, X)
    all_codes = np.stack(quantize(model.codebooks, z_hats)[0], axis=1).tolist()
    manual = 0.0
    for i in range(6):
        codes, _, residuals = quantize(model.codebooks, z_hats[i])
        assert codes == all_codes[i]
        r, q = losses(model, X[i], codes, residuals)
        manual += r + q
    assert loss == pytest.approx(manual / 6, rel=1e-12)


# --- gradient validation -----------------------------------------------------

def _fd_check(model, X, rel_tol=1e-4):
    frozen = freeze_forward(model, X)
    base = surrogate_loss(model, X, frozen)
    _, grads = _forward_backward(model, X)
    # the analytic loss and the surrogate agree at the base point
    loss, _ = _forward_backward(model, X)
    assert base == pytest.approx(loss, rel=1e-12)

    eps = 1e-6
    worst = 0.0
    for name, arr in model.param_items():
        g = grads[name]
        flat = arr.reshape(-1)
        idx = np.linspace(0, flat.size - 1, num=min(flat.size, 12), dtype=int)
        for j in np.unique(idx):
            old = flat[j]
            flat[j] = old + eps
            up = surrogate_loss(model, X, frozen)
            flat[j] = old - eps
            down = surrogate_loss(model, X, frozen)
            flat[j] = old
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(g.reshape(-1)[j]), 1e-8)
            worst = max(worst, abs(fd - g.reshape(-1)[j]) / denom)
    assert worst < rel_tol, f"worst relative gradient error {worst:.2e}"


def test_gradients_match_finite_differences():
    config = small_config(num_levels=2, codebook_size=4, latent_dim=8)
    rng = np.random.default_rng(5)
    model = init_model(config, 16)
    X = rng.normal(size=(5, 16))
    _fd_check(model, X, rel_tol=1e-4)


def test_codebook_gradient_only_pull_term():
    # a codebook row never selected by any sample must receive zero gradient
    config = small_config(num_levels=1, codebook_size=4, latent_dim=2)
    model = init_model(config, 2)
    model.codebooks = [np.array([[0.0, 0.0], [1.0, 1.0],
                                 [50.0, 50.0], [-50.0, 50.0]])]
    X = np.random.default_rng(0).normal(size=(4, 2))
    _, grads = _forward_backward(model, X)
    used = set(np.concatenate(quantize(model.codebooks, encode(model, X))[0]).tolist())
    assert 2 not in used and 3 not in used
    np.testing.assert_array_equal(grads["codebook_0"][2], 0.0)
    np.testing.assert_array_equal(grads["codebook_0"][3], 0.0)


# --- training ----------------------------------------------------------------

def test_train_reduces_loss_on_clusters():
    table = make_cluster_table(4, 16, dim=16, seed=0)
    config = RqVaeConfig(num_levels=3, codebook_size=8, latent_dim=8,
                         epochs=200, seed=0)
    initial = total_loss(init_from(config, table), table)
    model = train(config, table)
    final = total_loss(model, table)
    assert final <= 0.10 * initial


def init_from(config, table):
    rng = np.random.default_rng(config.seed)
    X = table.matrix(sorted(table.entries))
    model = init_model(config, X.shape[1], rng)
    seed_codebooks(model, X, rng)
    return model


def per_parameter_adam(config, table):
    """train's Adam as one update per parameter array, kept as the reference
    for its flat buffers."""
    model = init_from(config, table)
    X = table.matrix(sorted(table.entries))
    m = {name: np.zeros_like(value) for name, value in model.param_items()}
    v = {name: np.zeros_like(value) for name, value in model.param_items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, config.learning_rate
    for epoch in range(config.epochs):
        _, grads = _forward_backward(model, X)
        t = epoch + 1
        for name, param in model.param_items():
            g = grads[name]
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g**2
            m_hat = m[name] / (1 - b1**t)
            v_hat = v[name] / (1 - b2**t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model


def test_train_equals_per_parameter_adam_at_scale_s(tmp_path):
    paths = synth.gen_data(synth.SyntheticSpec(), tmp_path)
    table = embed_catalog(load_catalog(paths["catalog"]), 16, 0)
    config = RqVaeConfig(codebook_size=8, latent_dim=8, epochs=6, seed=0)
    model, reference = train(config, table), per_parameter_adam(config, table)
    assert ([name for name, _ in model.param_items()]
            == [name for name, _ in reference.param_items()])
    for (name, got), (_, want) in zip(model.param_items(), reference.param_items()):
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_train_deterministic():
    table = make_cluster_table(2, 8, dim=16, seed=1)
    config = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8,
                         epochs=20, seed=3)
    a, b = train(config, table), train(config, table)
    for (na, va), (nb, vb) in zip(a.param_items(), b.param_items()):
        assert na == nb
        np.testing.assert_array_equal(va, vb)


def test_zero_epochs_returns_seeded_model():
    table = make_cluster_table(2, 8, dim=16, seed=1)
    config = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8,
                         epochs=0, seed=3)
    model = train(config, table)
    ref = init_from(config, table)
    for (na, va), (_, vb) in zip(model.param_items(), ref.param_items()):
        np.testing.assert_array_equal(va, vb)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_epoch():
    table = make_cluster_table(2, 8, dim=16, seed=1)
    config = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8,
                         epochs=50, seed=0, learning_rate=1e200)
    with pytest.raises(TrainingDivergedError) as exc:
        train(config, table)
    assert exc.value.epoch >= 1


def test_empty_table_rejected():
    with pytest.raises(RqVaeError, match="empty"):
        train(small_config(), EmbeddingTable(8))


# --- S-ID assignment and metrics --------------------------------------------

def test_assign_sids_injective_and_zero_collisions_when_k_large():
    table = make_cluster_table(2, 8, dim=16, seed=2)
    config = RqVaeConfig(num_levels=2, codebook_size=32, latent_dim=8,
                         epochs=60, seed=0)
    model = train(config, table)
    sids = assign_sids(model, table)
    assert len(sids) == len(table)
    assert len({s.codes for s in sids.values()}) == len(sids)
    # every S-ID has M base codes plus a disambiguation code
    assert all(len(s.codes) == 3 for s in sids.values())


def test_assign_sids_disambiguation_by_ascending_ad_id():
    # force every ad onto the same base codes with a degenerate model
    config = RqVaeConfig(num_levels=2, codebook_size=2, latent_dim=2, seed=0)
    model = init_model(config, 2)
    for k in model.params:
        model.params[k] = np.zeros_like(model.params[k])
    model.codebooks = [np.array([[0.0, 0.0], [9.0, 9.0]]) for _ in range(2)]
    table = EmbeddingTable(2)
    for ad_id in ("b", "a", "c"):
        table.add(ad_id, np.array([0.1, 0.1]))
    sids = assign_sids(model, table)
    assert sids["a"].disambiguation == 0
    assert sids["b"].disambiguation == 1
    assert sids["c"].disambiguation == 2
    assert sids["a"].base == sids["b"].base == sids["c"].base
    assert assign_sids(model, EmbeddingTable(2)) == {}


def test_codebook_metrics_hand_case():
    from genret.sid import SemanticId

    sids = {
        "a": SemanticId((0, 1, 0)),
        "b": SemanticId((0, 1, 1)),
        "c": SemanticId((1, 1, 0)),
        "d": SemanticId((2, 0, 0)),
    }
    config = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8)
    rate, max_group, usage = codebook_metrics(sids, config)
    assert rate == pytest.approx(1.0 - 3 / 4)
    assert max_group == 2
    assert usage == [3 / 4, 2 / 4]


def test_codebook_metrics_empty_rejected():
    with pytest.raises(RqVaeError):
        codebook_metrics({}, small_config())


# --- persistence -------------------------------------------------------------

def test_sids_round_trip(tmp_path):
    from genret.sid import SemanticId

    sids = {"x": SemanticId((1, 2, 0)), "y": SemanticId((3, 0, 1))}
    path = tmp_path / "sids.jsonl"
    save_sids(sids, path)
    assert load_sids(path) == sids


def test_load_sids_rejects_tokens_at_the_wrong_level(tmp_path):
    from genret.sid import SidError

    path = tmp_path / "sids.jsonl"
    path.write_text('{"ad_id": "x", "tokens": ["b_1", "a_2", "c_0"]}\n')
    with pytest.raises(SidError, match="b_1"):
        load_sids(path)


@pytest.mark.parametrize("tokens", [["a_007", "b_0"], ["a_1", "b_\u0661"], ["a_1\n", "b_0"],
                                    ["a_1", "b_+1"], ["A_1", "b_0"]])
def test_load_sids_rejects_a_token_render_never_writes(tmp_path, tokens):
    from genret.sid import SidError

    path = tmp_path / "sids.jsonl"
    path.write_text('{"ad_id": "x", "tokens": ["a_1", "b_0"]}\n'
                    + json.dumps({"ad_id": "y", "tokens": tokens}) + "\n")
    with pytest.raises(SidError, match="malformed S-ID token") as info:
        load_sids(path)
    assert f"{path}: line 2" in str(info.value)


def test_load_sids_rejects_a_code_past_int64(tmp_path):
    from genret.sid import SidError

    path = tmp_path / "sids.jsonl"
    path.write_text('{"ad_id": "x", "tokens": ["a_1", "b_0"]}\n'
                    '{"ad_id": "y", "tokens": ["a_9223372036854775808", "b_0"]}\n')
    with pytest.raises(SidError, match="code outside") as info:
        load_sids(path)
    assert f"{path}: line 2" in str(info.value)


def test_load_sids_rejects_a_repeated_ad(tmp_path):
    """Two lines for one ad fail at the second, instead of loading it."""
    from genret.sid import SidError

    path = tmp_path / "sids.jsonl"
    path.write_text('{"ad_id": "x", "tokens": ["a_1", "b_0"]}\n'
                    '{"ad_id": "y", "tokens": ["a_2", "b_0"]}\n'
                    '{"ad_id": "x", "tokens": ["a_3", "b_0"]}\n')
    with pytest.raises(SidError, match="duplicate ad_id 'x'") as info:
        load_sids(path)
    assert f"{path}: line 3" in str(info.value)


def test_load_sids_rejects_two_ads_with_one_sid(tmp_path):
    """An S-ID that an earlier line gave another ad fails at its line, so
    no ad loads that the trie, keeping one leaf per S-ID, could never
    retrieve."""
    from genret.sid import SidError

    path = tmp_path / "sids.jsonl"
    path.write_text('{"ad_id": "a1", "tokens": ["a_1", "b_0"]}\n'
                    '{"ad_id": "a3", "tokens": ["a_1", "b_1"]}\n'
                    '{"ad_id": "a2", "tokens": ["a_1", "b_0"]}\n')
    with pytest.raises(SidError, match=r"duplicate tokens \['a_1', 'b_0'\], "
                                       r"first on line 1") as info:
        load_sids(path)
    assert f"{path}: line 3" in str(info.value)


def test_config_validation():
    with pytest.raises(RqVaeError):
        RqVaeConfig(num_levels=0)
    with pytest.raises(RqVaeError):
        RqVaeConfig(codebook_size=1)


@pytest.mark.parametrize("key, value, message", [
    ("epochs", -3, "epochs must be >= 0, got -3"),
    # 0 leaves the model at its seeded state, and a negative rate climbs the
    # loss; nan used to surface only as divergence at epoch 1
    ("learning_rate", 0.0, "learning_rate must be a finite number > 0, got 0.0"),
    ("learning_rate", -0.1, "learning_rate must be a finite number > 0, got -0.1"),
    ("learning_rate", math.nan, "learning_rate must be a finite number > 0, got nan"),
    ("learning_rate", math.inf, "learning_rate must be a finite number > 0, got inf"),
    ("commitment_weight", -1.0, "commitment_weight must be a finite number >= 0, got -1.0"),
    ("commitment_weight", math.nan, "commitment_weight must be a finite number >= 0"),
])
def test_config_rejects_settings_that_cannot_train(key, value, message):
    with pytest.raises(RqVaeError, match=re.escape(message)):
        RqVaeConfig(**{key: value})


def test_config_keeps_the_edges_that_train():
    # zero epochs returns the seeded model, and a zero commitment weight
    # leaves only the codebook pull in the quantization loss
    assert RqVaeConfig(epochs=0, commitment_weight=0.0).epochs == 0
