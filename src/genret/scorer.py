"""Next-token scorers over the S-ID vocabulary.

Two implementations of the same contract: a count-based interpolated n-gram
scorer (deterministic, no gradients) and a small neural scorer with exact
analytic gradients used for preference optimization.

The contract is ``next_probs(context, prefixes) -> (B, |V|)``: one row of
next-token probabilities per prefix, answered in one call for a whole beam.
``prob_dist(context, prefix_tokens) -> (|V|,)`` is the one-row case.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from .vocab import Vocabulary

_WORD_RE = re.compile(r"<[^>\s]+>|\w+|[^\w\s]")


class ScorerError(RuntimeError):
    pass


def tokenize_text(text: str) -> list[str]:
    """Whitespace/punctuation tokenization keeping <...> markers whole."""
    return _WORD_RE.findall(text)


@dataclass(frozen=True)
class ScorerContext:
    tokens: tuple[str, ...] = ()
    bucket: tuple = ()


class NgramScorer:
    """Interpolated additive-smoothed count model.

    Counts are keyed by (context bucket, trailing prefix window); orders 0..N
    are mixed with fixed interpolation weights. Every distribution is exact
    over the full vocabulary and sums to 1.
    """

    def __init__(self, vocab: Vocabulary, smoothing_alpha: float = 0.1,
                 max_order: int = 2, interpolation: tuple[float, ...] | None = None):
        if smoothing_alpha <= 0:
            raise ScorerError("smoothing_alpha must be positive")
        self.vocab = vocab
        self.smoothing_alpha = smoothing_alpha
        self.max_order = max_order
        if interpolation is None:
            interpolation = tuple(2.0**o for o in range(max_order + 1))
        total = sum(interpolation)
        self.interpolation = tuple(w / total for w in interpolation)
        # (bucket, window) -> {token_id: count}
        self.counts: dict[tuple, dict[int, float]] = {}
        # the counts as sparse smoothed components, built on first read
        self._components: tuple | None = None

    def observe(self, bucket: tuple, prefix_tokens, next_token: str, weight: float = 1.0):
        self._components = None
        tid = self.vocab.lookup(next_token)
        ids = tuple(self.vocab.lookup(t) for t in prefix_tokens)
        for order in range(self.max_order + 1):
            window = ids[len(ids) - order:] if order else ()
            key = (bucket, window)
            slot = self.counts.setdefault(key, {})
            slot[tid] = slot.get(tid, 0.0) + weight

    def train(self, samples, weight: float = 1.0):
        """samples: iterable of (ScorerContext, response token list)."""
        for context, response in samples:
            for i, tok in enumerate(response):
                self.observe(context.bucket, response[:i], tok, weight)

    def _smoothed(self) -> tuple:
        """Each (bucket, window) key with counts, numbered in counts order, as
        its uniform share alpha/denom plus its counted (token id, c/denom)
        entries, where denom is the key's count total plus alpha·|V|; one
        more share, with no entries, stands for every unseen key."""
        if self._components is None:
            v, alpha = len(self.vocab), self.smoothing_alpha
            slots = list(self.counts.values())
            sizes = [len(slot) for slot in slots]
            denom = np.array([sum(slot.values()) + alpha * v for slot in slots]
                             + [alpha * v])
            tid = list(chain.from_iterable(slots))
            c = np.fromiter(chain.from_iterable(slot.values() for slot in slots),
                            dtype=np.float64, count=sum(sizes))
            spans = [range(e - n, e) for n, e in zip(sizes, accumulate(sizes))] + [range(0)]
            index: dict[tuple, dict[tuple, int]] = {}  # bucket -> window -> number
            for i, (bucket, window) in enumerate(self.counts):
                index.setdefault(bucket, {})[window] = i
            self._components = index, alpha / denom, spans, tid, c / denom[:-1].repeat(sizes)
        return self._components

    def next_probs(self, context: ScorerContext, prefixes) -> np.ndarray:
        """The interpolated distribution after each prefix, one row each.

        Each distinct key the batch asks for gets one dense component row,
        filled from its sparse entries, so memory stays O(entries + B·|V|).
        """
        index, share, spans, tid, val = self._smoothed()
        v, unseen = len(self.vocab), len(share) - 1
        lookup = self.vocab.lookup
        ids = [tuple(map(lookup, p)) for p in prefixes]
        numbers = index.get(context.bucket, {})
        keys = [[numbers.get(p[len(p) - order:], unseen) for p in ids]
                for order in range(len(self.interpolation))]
        row_of = {k: r for r, k in enumerate(dict.fromkeys(chain.from_iterable(keys)))}
        # the component rows laid end to end: each key's uniform share, plus
        # its counted entries
        rows = share[list(row_of)].repeat(v)
        at = [a for k in row_of for a in spans[k]]
        rows[[r * v + tid[a] for k, r in row_of.items() for a in spans[k]]] += val[at]
        # each order's component rows for the batch, mixed in order
        rows = rows.reshape(-1, v)
        picks = np.array([[row_of[k] for k in order_keys] for order_keys in keys],
                         dtype=np.intp)
        dist = np.zeros((len(ids), v))
        for w, pick in zip(self.interpolation, picks):
            dist += w * rows[pick]
        return dist

    def prob_dist(self, context: ScorerContext, prefix_tokens) -> np.ndarray:
        return self.next_probs(context, [prefix_tokens])[0]

    def save(self, path):
        payload = {
            "kind": "ngram",
            "version": 1,
            "smoothing_alpha": self.smoothing_alpha,
            "max_order": self.max_order,
            "interpolation": list(self.interpolation),
            "tokens": self.vocab.tokens,
            "counts": [
                [list(bucket), list(window), [[t, c] for t, c in slot.items()]]
                for (bucket, window), slot in self.counts.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "NgramScorer":
        scorer = cls(
            Vocabulary(payload["tokens"]),
            payload["smoothing_alpha"],
            payload["max_order"],
            tuple(payload["interpolation"]),
        )
        for bucket, window, slot in payload["counts"]:
            scorer.counts[(tuple(bucket), tuple(window))] = {
                int(t): float(c) for t, c in slot}
        return scorer


@dataclass
class NeuralScorer:
    """Tiny feedforward next-token model with exact analytic gradients.

    Input is the mean-pooled context embedding plus the mean-pooled prefix
    embedding plus a position (prefix length) embedding; one tanh hidden
    layer feeds a softmax over the full vocabulary.
    """

    vocab: Vocabulary
    embed_dim: int = 16
    hidden_dim: int = 32
    max_prefix: int = 8
    seed: int = 0
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.params:
            rng = np.random.default_rng(self.seed)
            v, d, h = len(self.vocab), self.embed_dim, self.hidden_dim
            self.params = {
                "emb": rng.normal(0, 0.1, size=(v, d)),
                "pos": rng.normal(0, 0.1, size=(self.max_prefix + 1, d)),
                "w1": rng.normal(0, 1.0 / np.sqrt(d), size=(h, d)),
                "b1": np.zeros(h),
                "w2": rng.normal(0, 1.0 / np.sqrt(h), size=(v, h)),
                "b2": np.zeros(v),
            }

    def copy(self) -> "NeuralScorer":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})

    def _ids(self, tokens) -> list[int]:
        return [self.vocab.lookup(t) for t in tokens]

    def _layers(self, pool):
        """The hidden layer and the softmax over a stack of pooled inputs.

        Each layer is a stack of one matrix-vector product per row, so every
        row takes the BLAS path of a lone input and its bits do not depend on
        the stack. Returns (h, probs).
        """
        p = self.params
        h = np.tanh(np.matmul(p["w1"], pool[..., None])[..., 0] + p["b1"])
        logits = np.matmul(p["w2"], h[..., None])[..., 0] + p["b2"]
        logits = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        return h, exp / exp.sum(axis=-1, keepdims=True)

    def _pool(self, ctx_ids, sums, lengths):
        """The layers' input, one row per prefix: the context mean, plus the
        prefix's sum over its length, plus the length's position row. Each
        mean is a sum divided by its count, which is how ``mean`` computes it;
        an empty prefix adds 0.0 over 1, which leaves the pool, begun at +0.0,
        unchanged. Returns (pool, plen)."""
        p = self.params
        pool = np.zeros((len(lengths), self.embed_dim))
        if ctx_ids:
            pool = pool + p["emb"][ctx_ids].sum(axis=0) / len(ctx_ids)
        pool = pool + sums / np.maximum(lengths, 1)[:, None]
        plen = np.minimum(lengths, self.max_prefix)
        return pool + p["pos"][plen], plen

    def next_probs(self, context: ScorerContext, prefixes) -> np.ndarray:
        """The next-token distribution after each prefix, one row each, from
        one forward per prefix length in the batch."""
        ctx_ids = self._ids(context.tokens)
        ids = [self._ids(p) for p in prefixes]
        rows_of: dict[int, list[int]] = {}
        for r, row in enumerate(ids):
            rows_of.setdefault(len(row), []).append(r)
        probs = np.empty((len(ids), len(self.vocab)))
        emb = self.params["emb"]
        for length, rows in rows_of.items():
            sums = emb[np.array([ids[r] for r in rows], dtype=np.intp)].sum(axis=1)
            pool = self._pool(ctx_ids, sums, np.full(len(rows), length))[0]
            probs[rows] = self._layers(pool)[1]
        return probs

    def prob_dist(self, context: ScorerContext, prefix_tokens) -> np.ndarray:
        return self.next_probs(context, [prefix_tokens])[0]

    def _teacher_forced(self, ctx_ids, resp_ids):
        """The forward of every step of one response, stacked: row i predicts
        resp_ids[i] from resp_ids[:i], bit for bit as ``next_probs`` does: a
        running sum adds in the order a sum over one prefix does. Returns
        (pool, plen, h, probs)."""
        n = len(resp_ids)
        sums = np.zeros((n, self.embed_dim))
        np.cumsum(self.params["emb"][resp_ids[:-1]], axis=0, out=sums[1:])
        pool, plen = self._pool(ctx_ids, sums, np.arange(n))
        return (pool, plen) + self._layers(pool)

    def _backward(self, ctx_ids, resp_ids, pool, plen, h, d_logits):
        """Gradients of sum_i d_logits[i] . logits_i over a teacher-forced
        pass, equal bit for bit to a loop over the steps that adds each
        step's share, in step order, to gradients that start at zero."""
        p = self.params
        n, nc = len(resp_ids), len(ctx_ids)
        grads = {}
        # sums over the steps (axis 0) add from zero in step order
        grads["w2"] = (d_logits[:, :, None] * h[:, None, :]).sum(axis=0)
        grads["b2"] = d_logits.sum(axis=0)
        d_h = np.matmul(p["w2"].T, d_logits[..., None])[..., 0]
        d_pre = d_h * (1.0 - h**2)
        grads["w1"] = (d_pre[:, :, None] * pool[:, None, :]).sum(axis=0)
        grads["b1"] = d_pre.sum(axis=0)
        d_pool = np.matmul(p["w1"].T, d_pre[..., None])[..., 0]
        # step i adds d_pool[i] / nc to each context row, then
        # d_pool[i] / i to each row of its prefix
        emb_rows = np.array([t for i in range(n) for t in chain(ctx_ids, resp_ids[:i])],
                            dtype=np.intp)
        steps = [i for i in range(n) for _ in range(nc + i)]
        counts = [c for i in range(n) for c in [nc] * nc + [i] * i]
        grads["emb"] = np.zeros_like(p["emb"])
        np.add.at(grads["emb"], emb_rows, d_pool[steps] / np.array(counts)[:, None])
        grads["pos"] = np.zeros_like(p["pos"])
        np.add.at(grads["pos"], plen, d_pool)
        return grads

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def _logprob(self, probs, resp_ids) -> float:
        """sum_i log probs[i, resp_ids[i]], added in step order."""
        logp = 0.0
        for i, tid in enumerate(resp_ids):
            logp += float(np.log(probs[i, tid]))
        return logp

    def seq_logprob_and_grad(self, context: ScorerContext, response_tokens):
        """log P(response | context) = sum of per-step log conditionals,
        with its exact gradient. Fine-tuning ascends it, with
        ``apply_grads(grads, -lr)``, and DPO steps on a difference of two."""
        ctx_ids = self._ids(context.tokens)
        resp_ids = self._ids(response_tokens)
        pool, plen, h, probs = self._teacher_forced(ctx_ids, resp_ids)
        d_logits = probs.copy()
        d_logits[np.arange(len(resp_ids)), resp_ids] -= 1.0  # grad of -log p
        grads = self._backward(ctx_ids, resp_ids, pool, plen, h, -d_logits)
        return self._logprob(probs, resp_ids), grads

    def seq_logprob(self, context: ScorerContext, response_tokens) -> float:
        ctx_ids = self._ids(context.tokens)
        resp_ids = self._ids(response_tokens)
        return self._logprob(self._teacher_forced(ctx_ids, resp_ids)[3], resp_ids)

    def apply_grads(self, grads, lr: float):
        """The one parameter update, in place: params -= lr * grads."""
        for k in self.params:
            self.params[k] -= lr * grads[k]

    def save(self, path):
        payload = {
            "kind": "neural",
            "version": 1,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "max_prefix": self.max_prefix,
            "seed": self.seed,
            "tokens": self.vocab.tokens,
            "params": {k: v.tolist() for k, v in self.params.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "NeuralScorer":
        return cls(
            vocab=Vocabulary(payload["tokens"]),
            embed_dim=payload["embed_dim"],
            hidden_dim=payload["hidden_dim"],
            max_prefix=payload["max_prefix"],
            seed=payload["seed"],
            params={k: np.array(v) for k, v in payload["params"].items()},
        )


def load_scorer(path):
    """The scorer a save() wrote, of the kind its snapshot names."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == "ngram":
        return NgramScorer.from_payload(payload)
    if kind == "neural":
        return NeuralScorer.from_payload(payload)
    raise ScorerError(f"unknown scorer snapshot kind {kind!r}")
