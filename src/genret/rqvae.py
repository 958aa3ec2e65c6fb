"""Residual-quantized autoencoder over ad embeddings and S-ID assignment.

All gradients are analytic numpy; the quantizer's argmin is bridged with a
straight-through estimator (decoder-input gradient copied onto the encoder
output). Codebooks receive gradients only from the codebook-pull term of the
quantization loss; the encoder additionally receives the commitment term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .embed import EmbeddingTable
from .sid import SemanticId, SidError


class RqVaeError(RuntimeError):
    pass


class TrainingDivergedError(RqVaeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class RqVaeConfig:
    num_levels: int = 3
    codebook_size: int = 8
    latent_dim: int = 8
    commitment_weight: float = 0.25
    learning_rate: float = 5e-3
    epochs: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.num_levels < 1:
            raise RqVaeError("num_levels must be >= 1")
        if self.codebook_size < 2:
            raise RqVaeError("codebook_size must be >= 2")
        if self.latent_dim < 2:
            raise RqVaeError("latent_dim must be >= 2")
        if self.epochs < 0:
            raise RqVaeError(f"epochs must be >= 0, got {self.epochs}")
        # a rate of 0 leaves the model where it is, a negative one climbs the
        # loss, and nan shows only later, as divergence at epoch 1
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise RqVaeError(f"learning_rate must be a finite number > 0, "
                             f"got {self.learning_rate}")
        if not (math.isfinite(self.commitment_weight) and self.commitment_weight >= 0):
            raise RqVaeError(f"commitment_weight must be a finite number >= 0, "
                             f"got {self.commitment_weight}")


@dataclass
class RqVaeModel:
    config: RqVaeConfig
    input_dim: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    codebooks: list[np.ndarray] = field(default_factory=list)

    def param_items(self):
        for name in sorted(self.params):
            yield name, self.params[name]
        for l, cb in enumerate(self.codebooks):
            yield f"codebook_{l}", cb


def init_model(config: RqVaeConfig, input_dim: int, rng: np.random.Generator | None = None) -> RqVaeModel:
    if rng is None:
        rng = np.random.default_rng(config.seed)
    hidden = max(16, 2 * config.latent_dim)
    d_in, d_rq = input_dim, config.latent_dim

    def layer(n_out, n_in):
        return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))

    params = {
        "enc_w1": layer(hidden, d_in),
        "enc_b1": np.zeros(hidden),
        "enc_w2": layer(d_rq, hidden),
        "enc_b2": np.zeros(d_rq),
        "dec_w1": layer(hidden, d_rq),
        "dec_b1": np.zeros(hidden),
        "dec_w2": layer(d_in, hidden),
        "dec_b2": np.zeros(d_in),
    }
    codebooks = [
        rng.normal(0.0, 0.1, size=(config.codebook_size, d_rq))
        for _ in range(config.num_levels)
    ]
    return RqVaeModel(config=config, input_dim=input_dim, params=params, codebooks=codebooks)


def _half(model: RqVaeModel, half: str, x: np.ndarray):
    """One half of the autoencoder, "enc" or "dec": x -> tanh hidden ->
    output. Returns (hidden, output); training keeps the hidden layer for
    its backward."""
    p = model.params
    h = np.tanh(x @ p[f"{half}_w1"].T + p[f"{half}_b1"])
    return h, h @ p[f"{half}_w2"].T + p[f"{half}_b2"]


def encode(model: RqVaeModel, x: np.ndarray) -> np.ndarray:
    """Two-layer encoder forward pass: d_PLM -> hidden -> d_RQ."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_dim:
        raise RqVaeError(
            f"input dimension {x.shape[-1]} != encoder input {model.input_dim}"
        )
    return _half(model, "enc", x)[1]


def decode_latent(model: RqVaeModel, z: np.ndarray) -> np.ndarray:
    return _half(model, "dec", z)[1]


def quantize(codebooks: list[np.ndarray], z_hat: np.ndarray):
    """Residual quantization: per level pick the nearest code, subtract it.

    Works on the last axis, so z_hat is one vector (d,) or a batch (n, d);
    codes[l] is then an int or an (n,) array. Returns (codes, z, residuals);
    residuals has length M+1 and includes the final residual, so
    r[l+1] + e[codes[l]] == r[l] exactly and z_hat == z + r[-1].

    The nearest code is the argmin of the rounded distances
    E_k = fl(sum((c_k - r)**2)), lower index first on ties. Each level ranks
    the codes by S_k = fl(|c_k|^2 - 2 r.c_k), one matrix product, and keeps
    that ranking only for rows where it is certain to pick the same code.
    With u = 2^-53, R = |r|^2 + max_k |c_k|^2 and exact D_k = |c_k - r|^2:

    - |E_k - D_k| <= 1.01 (d + 2) u D_k <= 2.02 (d + 2) u R, because each term
      of the sum carries at most three roundings, the sum d - 1 more, and
      D_k <= 2 R;
    - |S_k - (D_k - |r|^2)| <= 1.01 (2 d + 2) u R: |c_k|^2 is off by at most
      1.01 d u |c_k|^2, r.c_k by 1.01 d u |r| |c_k| <= 1.01 d u R / 2 in any
      summation order, and the final subtraction by u |S_k| <= 2 u R.

    So if S_j - S_best > 2 (e_S + e_E), with e_S and e_E the two bounds above,
    for every j != best, then E_best < E_j and the argmin of E is best. The
    gap is taken against 16 (d + 3) 2^-52 R, which exceeds 2 (e_S + e_E) =
    1.01 (4 d + 6) 2^-52 R, plus the smallest normal float, which covers
    rounding in underflow. Rows within the bound, ties included, and rows
    where R could overflow are recomputed with E itself, so the codes are
    those of the argmin of E in every case.
    """
    r = np.asarray(z_hat, dtype=np.float64)
    codes = []
    residuals = [r]
    z = np.zeros_like(r)
    d = r.shape[-1]
    tol = 16.0 * (d + 3) * 2.0**-52
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max / 4
    for cb in codebooks:
        rows = r.reshape(-1, d)
        c2 = np.sum(cb * cb, axis=-1)
        # (codes, rows), so both reductions run down the short outer axis
        scores = cb @ rows.T
        scores *= -2.0
        scores += c2[:, None]
        k = np.argmin(scores, axis=0)
        at = np.arange(len(k))
        best = scores[k, at]
        scores[k, at] = np.inf
        gap = scores.min(axis=0) - best
        scale = np.einsum("ij,ij->i", rows, rows) + c2.max()
        unsure = ~((gap > tol * scale + tiny) & (scale < big))
        if unsure.any():
            k[unsure] = np.argmin(np.sum((cb - rows[unsure, None, :]) ** 2, axis=-1),
                                  axis=-1)
        k = k.reshape(r.shape[:-1]) if r.ndim > 1 else k[0]
        codes.append(k)
        chosen = cb[k]
        z = z + chosen
        r = r - chosen
        residuals.append(r)
    return codes, z, residuals


def losses(model: RqVaeModel, x: np.ndarray, codes, residuals) -> tuple[float, float]:
    """Reconstruction and quantization loss for one sample."""
    beta = model.config.commitment_weight
    z = sum(model.codebooks[l][c] for l, c in enumerate(codes))
    x_hat = decode_latent(model, z)
    recons = float(np.sum((np.asarray(x) - x_hat) ** 2))
    quant = 0.0
    for l, c in enumerate(codes):
        gap = residuals[l] - model.codebooks[l][c]
        quant += (1.0 + beta) * float(np.sum(gap**2))
    return recons, quant


def _forward_backward(model: RqVaeModel, X: np.ndarray):
    """Mean total loss over the batch and analytic gradients."""
    p = model.params
    beta = model.config.commitment_weight
    n = X.shape[0]

    h1, z_hat = _half(model, "enc", X)
    codes, Z, residuals = quantize(model.codebooks, z_hat)
    commit_grad = np.zeros_like(z_hat)
    cb_grads = []
    quant_total = 0.0
    for l, c in enumerate(codes):
        cb = model.codebooks[l]
        gap = residuals[l + 1]  # residuals[l] - cb[c], as quantize computed it
        quant_total += (1.0 + beta) * float(np.sum(gap**2))
        # each code's rows summed from zero in row order, as np.add.at would
        cells = (c[:, None] * cb.shape[1] + np.arange(cb.shape[1])).ravel()
        cb_grads.append(np.bincount(cells, weights=(-2.0 * gap / n).ravel(),
                                    minlength=cb.size).reshape(cb.shape))
        commit_grad += 2.0 * beta * gap

    h2, x_hat = _half(model, "dec", Z)
    diff = x_hat - X
    recons_total = float(np.sum(diff**2))
    loss = (recons_total + quant_total) / n

    d_xhat = 2.0 * diff / n
    grads = {}
    grads["dec_w2"] = d_xhat.T @ h2
    grads["dec_b2"] = d_xhat.sum(axis=0)
    d_h2 = d_xhat @ p["dec_w2"]
    d_pre2 = d_h2 * (1.0 - h2**2)
    grads["dec_w1"] = d_pre2.T @ Z
    grads["dec_b1"] = d_pre2.sum(axis=0)
    d_z = d_pre2 @ p["dec_w1"]

    # straight-through: decoder-input gradient copied to the encoder output,
    # plus the commitment pull
    d_zhat = d_z + commit_grad / n
    grads["enc_w2"] = d_zhat.T @ h1
    grads["enc_b2"] = d_zhat.sum(axis=0)
    d_h1 = d_zhat @ p["enc_w2"]
    d_pre1 = d_h1 * (1.0 - h1**2)
    grads["enc_w1"] = d_pre1.T @ X
    grads["enc_b1"] = d_pre1.sum(axis=0)

    for l, g in enumerate(cb_grads):
        grads[f"codebook_{l}"] = g
    return loss, grads


def surrogate_loss(model: RqVaeModel, X: np.ndarray, frozen) -> float:
    """Differentiable surrogate whose gradient the analytic backward computes.

    Stop-gradients and the argmin code selection are frozen at the values of
    a base forward pass; intended for finite-difference validation only. Its
    forward is written out here, apart from _half, so the check does not
    run the code it checks.
    """
    p = model.params
    beta = model.config.commitment_weight
    n = X.shape[0]

    h1 = np.tanh(X @ p["enc_w1"].T + p["enc_b1"])
    z_hat = h1 @ p["enc_w2"].T + p["enc_b2"]

    total = 0.0
    Z_in = np.zeros_like(z_hat)
    for i in range(n):
        codes = frozen["codes"][i]
        for l, c in enumerate(codes):
            r_bar = frozen["residuals"][i][l]
            e_bar = frozen["code_vectors"][i][l]
            total += float(np.sum((r_bar - model.codebooks[l][c]) ** 2))
            r_eff = z_hat[i] - frozen["z_hat"][i] + r_bar
            total += beta * float(np.sum((r_eff - e_bar) ** 2))
        Z_in[i] = z_hat[i] - frozen["z_hat"][i] + frozen["z"][i]

    h2 = np.tanh(Z_in @ p["dec_w1"].T + p["dec_b1"])
    x_hat = h2 @ p["dec_w2"].T + p["dec_b2"]
    total += float(np.sum((x_hat - X) ** 2))
    return total / n


def freeze_forward(model: RqVaeModel, X: np.ndarray) -> dict:
    """Record the quantities the surrogate loss holds constant."""
    z_hat = encode(model, X)
    codes, z, residuals = quantize(model.codebooks, z_hat)
    return {
        "codes": np.stack(codes, axis=1),
        "residuals": np.stack(residuals, axis=1),
        "code_vectors": np.stack([cb[c] for cb, c in zip(model.codebooks, codes)], axis=1),
        "z": z,
        "z_hat": z_hat,
    }


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding from empirical points; pads with jittered
    resamples when fewer than k distinct points exist."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    while len(chosen) < min(k, n):
        total = float(d2.sum())
        if total <= 1e-12:
            break
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    centers = points[chosen]
    if centers.shape[0] < k:
        extra_idx = rng.integers(0, n, size=k - centers.shape[0])
        scale = max(1e-3, float(points.std()) * 1e-2)
        extra = points[extra_idx] + rng.normal(0.0, scale, size=(k - centers.shape[0], points.shape[1]))
        centers = np.vstack([centers, extra])
    return centers.copy()


def seed_codebooks(model: RqVaeModel, X: np.ndarray, rng: np.random.Generator) -> None:
    """Initialize each level's codebook from the empirical residuals of a
    forward pass with all previous levels frozen."""
    residual = encode(model, X)
    for l in range(model.config.num_levels):
        model.codebooks[l] = _kmeanspp_seed(residual, model.config.codebook_size, rng)
        residual = quantize([model.codebooks[l]], residual)[2][-1]


def _flat_params(model: RqVaeModel) -> np.ndarray:
    """Lay the parameters end to end in one buffer, in ``param_items``
    order, and make each parameter a view of its slice, so that one update
    of the buffer steps them all."""
    names = sorted(model.params)
    arrays = [model.params[name] for name in names] + model.codebooks
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    views = [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]
    model.params = dict(zip(names, views))
    model.codebooks = views[len(names):]
    return flat


def train(config: RqVaeConfig, table: EmbeddingTable) -> RqVaeModel:
    """Adam optimization of reconstruction + quantization loss.

    The parameters and Adam's two moments live in flat buffers (the model's
    arrays are views of the parameter buffer), so an epoch makes one update;
    Adam works element by element, so each parameter's bits equal those of
    one update per parameter array.

    Deterministic given config.seed; raises TrainingDivergedError if the
    loss goes non-finite.
    """
    if len(table) == 0:
        raise RqVaeError("cannot train on an empty embedding table")
    rng = np.random.default_rng(config.seed)
    ad_ids = sorted(table.entries)
    X = table.matrix(ad_ids)

    model = init_model(config, X.shape[1], rng)
    seed_codebooks(model, X, rng)

    flat = _flat_params(model)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate

    for epoch in range(config.epochs):
        loss, grads = _forward_backward(model, X)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        t = epoch + 1
        g = np.concatenate([grads[name].ravel() for name, _ in model.param_items()])
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model


def total_loss(model: RqVaeModel, table: EmbeddingTable) -> float:
    X = table.matrix(sorted(table.entries))
    loss, _ = _forward_backward(model, X)
    return loss


def assign_sids(model: RqVaeModel, table: EmbeddingTable) -> dict[str, SemanticId]:
    """Base codes from quantize(encode(x)); ads sharing identical base codes
    get disambiguation indices 0, 1, 2, ... in ascending ad_id order."""
    ad_ids = sorted(table.entries)
    if not ad_ids:
        return {}
    codes, _, _ = quantize(model.codebooks, encode(model, table.matrix(ad_ids)))
    seen: dict[tuple[int, ...], int] = {}
    out: dict[str, SemanticId] = {}
    for ad_id, row in zip(ad_ids, np.stack(codes, axis=1).tolist()):
        b = tuple(row)
        suffix = seen.get(b, 0)
        seen[b] = suffix + 1
        out[ad_id] = SemanticId(b + (suffix,))
    return out


def codebook_metrics(assignments: dict[str, SemanticId], config: RqVaeConfig):
    """Collision rate, max collision group size, and per-level usage rates."""
    if not assignments:
        raise RqVaeError("codebook_metrics needs a non-empty assignment")
    bases = [sid.base for sid in assignments.values()]
    n = len(bases)
    distinct = len(set(bases))
    collision_rate = 1.0 - distinct / n
    counts: dict[tuple[int, ...], int] = {}
    for b in bases:
        counts[b] = counts.get(b, 0) + 1
    max_collision = max(counts.values())
    usage = []
    for l in range(config.num_levels):
        used = len({b[l] for b in bases})
        usage.append(used / config.codebook_size)
    return collision_rate, max_collision, usage


# an S-IDs line: an ad and its S-ID's level-prefixed tokens
SID_RECORD = jsonl.spec(ad_id=jsonl.key(jsonl.ID),
                        tokens=jsonl.key(jsonl.array(jsonl.STRING)))


def save_sids(sids: dict[str, SemanticId], path) -> None:
    jsonl.write(path, ({"ad_id": ad_id, "tokens": list(sids[ad_id].tokens())}
                       for ad_id in sorted(sids)))


def load_sids(path) -> dict[str, SemanticId]:
    """S-IDs by ad; a repeated ad_id, or an S-ID that another ad holds,
    raises SidError naming the file, the line and the line it repeats."""
    return dict(jsonl.read(
        path, lambda obj: (obj["ad_id"], SemanticId.from_tokens(obj["tokens"])),
        SidError, SID_RECORD))
