"""Next-token scorers over the S-ID vocabulary.

Two implementations of the same contract: a count-based interpolated n-gram
scorer (deterministic, no gradients) and a small neural scorer with exact
analytic gradients used for preference optimization.

The contract is a per-decode state: ``state = scorer.begin(context)`` reads
what the scorer needs of the context once, and holds one row, the empty
prefix. ``state.probs(rows, ids) -> (n,)`` gives, for each k, the
probability of token ``ids[k]`` after the prefix of row ``rows[k]``; call
k is candidate k, row ``rows[k]``'s prefix plus ``ids[k]``.
``state.keep(idx)`` moves to the next trie level, whose row j is the last
``probs`` call's candidate ``idx[j]``; ``None`` keeps every candidate, in
order. A decode level is one ``probs`` call over the trie's candidates and
one ``keep`` of the ones that survive.

Each job has one entry point. Both searches of the decoder, the beam and
its exhaustive oracle, ask through the state.
``prob_dist(context, prefix) -> (|V|,)`` is the one whole-row read, for
tests, ``RowState`` and the benchmark's traced run: one state walked along
the prefix, one candidate and one ``keep`` per id, and asked for every id,
so ``probs(rows, ids)[k]`` equals the ``prob_dist`` row of row
``rows[k]``'s prefix at ``ids[k]`` bit for bit. A prefix is a sequence of
vocabulary ids; the context keeps its feature tokens. Training and DPO
take the neural scorer's gradient from ``seq_logprob_vjp``. ``RowState``
is the other direction, the state of a scorer that answers one prefix at
a time.

A scorer holds only its parameters and caches derived from them: its rows
depend on its parameters and the call's arguments alone, and a state lives
for one decode.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import jsonl
from .vocab import UNK, Vocabulary

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


# a bucket as an artifact holds it; its items key the n-gram's counts
BUCKET = jsonl.array(jsonl.Kind("a string or an integer", (str, int)))

# what both kinds of snapshot hold besides their parameters
_SNAPSHOT = {
    "kind": jsonl.one_of("ngram", "neural"), "version": jsonl.one_of(1),
    "tokens": jsonl.Kind(f"a JSON array of distinct strings that holds {UNK!r}", (list,),
                         lambda tokens: all(type(t) is str for t in tokens)
                         and len(set(tokens)) == len(tokens) and UNK in tokens)}
NGRAM_SNAPSHOT = jsonl.spec(
    **_SNAPSHOT, smoothing_alpha=jsonl.NUMBER, max_order=jsonl.INT,
    interpolation=jsonl.array(jsonl.NUMBER),
    # [bucket, window ids, [[id, count], ...]] per counted key
    counts=jsonl.array(jsonl.tuple_of(BUCKET, jsonl.array(jsonl.INT), jsonl.array(
        jsonl.tuple_of(jsonl.INT, jsonl.NUMBER)))))
NEURAL_SNAPSHOT = jsonl.spec(
    **_SNAPSHOT, embed_dim=jsonl.INT, hidden_dim=jsonl.INT, max_prefix=jsonl.INT,
    seed=jsonl.INT, params=jsonl.OBJECT)


def _check_snapshot(payload, spec) -> None:
    try:
        jsonl.check(payload, spec, "snapshot")
    except ValueError as exc:
        raise ScorerError(str(exc)) from exc


def _prob_dist(scorer, context: ScorerContext, prefix) -> np.ndarray:
    """The prefix's row over every id, (|V|,): a state begun on the
    context, walked along the prefix by one candidate and its ``keep`` per
    id, and asked for every id. Each scorer class holds it as its
    ``prob_dist``."""
    state = scorer.begin(context)
    prefix = np.asarray(prefix, dtype=np.intp)
    for k in range(len(prefix)):
        state.probs(np.zeros(1, dtype=np.intp), prefix[k:k + 1])
        state.keep(None)
    v = len(scorer.vocab)
    return state.probs(np.zeros(v, dtype=np.intp), np.arange(v))


def _kept(asked, idx):
    """The (rows, ids) of a ``probs`` call's candidates at idx, in idx
    order; all of them when idx is None."""
    rows, ids = asked
    return asked if idx is None else (rows[idx], ids[idx])


class RowState:
    """The decode state of a scorer that answers one prefix at a time:
    ``prob_dist(context, prefix)`` is the prefix's row over the vocabulary,
    and ``probs`` reads the rows of every prefix the state holds."""

    def __init__(self, prob_dist, context):
        self.prob_dist, self.context = prob_dist, context
        self.prefixes = [()]

    def probs(self, rows, ids) -> np.ndarray:
        self.asked = rows, ids
        # ndmin: a state that kept no rows is still a table of no rows
        dists = np.array([self.prob_dist(self.context, p) for p in self.prefixes], ndmin=2)
        return dists[rows, ids]

    def keep(self, idx):
        rows, ids = _kept(self.asked, idx)
        self.prefixes = [self.prefixes[r] + (i,) for r, i in zip(rows.tolist(), ids.tolist())]


# the highest n-gram order whose weights 2^o, and their total, are finite
MAX_ORDER = 1022


class NgramScorer:
    """Interpolated additive-smoothed count model.

    Counts are keyed by (context bucket, trailing prefix window); orders 0..N
    are mixed with fixed interpolation weights, order o's proportional to
    2^o. Every distribution is exact over the full vocabulary and sums to 1.
    """

    def __init__(self, vocab: Vocabulary, smoothing_alpha: float = 0.1,
                 max_order: int = 2):
        if not (smoothing_alpha > 0 and math.isfinite(smoothing_alpha)):
            raise ScorerError(f"smoothing_alpha must be positive and finite, "
                              f"got {smoothing_alpha}")
        if not 0 <= max_order <= MAX_ORDER:
            raise ScorerError(f"max_order must be in [0, {MAX_ORDER}], got {max_order}")
        self.vocab = vocab
        self.smoothing_alpha = smoothing_alpha
        self.max_order = max_order
        weights = [2.0**o for o in range(max_order + 1)]
        total = sum(weights)
        self.interpolation = tuple(w / total for w in weights)
        # (bucket, window) -> {token_id: count}
        self.counts: dict[tuple, dict[int, float]] = {}
        # the counts as sparse smoothed components, built on first read
        self._components: tuple | None = None

    def observe(self, bucket: tuple, prefix_ids, next_id: int):
        """Count ``next_id`` after the prefix's trailing windows: ``train``'s
        counting of one position."""
        ids = tuple(map(int, (*prefix_ids, next_id)))
        self._add(bucket, ids, self._events(len(ids))[-(self.max_order + 1):])

    def train(self, samples):
        """samples: iterable of (bucket, response ids), each response a
        sequence of Python ints or a numpy int array. Counts every response
        id after the ids before it in its response, position by position
        and, at each, order by order."""
        events: dict[int, list] = {}  # response length -> its events
        for bucket, ids in samples:
            # a numpy row becomes Python ints, as scorer.json needs, in one call
            ids = tuple(ids.tolist() if isinstance(ids, np.ndarray) else ids)
            if len(ids) not in events:
                events[len(ids)] = self._events(len(ids))
            self._add(bucket, ids, events[len(ids)])

    def _events(self, length: int) -> list:
        """(window, position) per count a response of ``length`` ids adds:
        at position i, for order o = 0..max_order, the window of the last
        min(o, i) ids before it."""
        return [(slice(i - min(o, i), i), i)
                for i in range(length) for o in range(self.max_order + 1)]

    def _add(self, bucket, ids: tuple, events):
        """Add 1.0 to ``counts[(bucket, ids[window])][ids[at]]`` per event."""
        self._components = None
        counts = self.counts
        for window, at in events:
            slot = counts.setdefault((bucket, ids[window]), {})
            # float counts: scorer.json writes each as 1.0, 2.0, ...
            slot[ids[at]] = slot.get(ids[at], 0.0) + 1.0

    def _smoothed(self) -> tuple:
        """The tables a decode reads, built once per change of counts.

        Each (bucket, window) key with counts is numbered in counts order,
        and its uniform share is alpha/denom, where denom is the key's count
        total plus alpha·|V|; one more share stands for every unseen key. A
        counted window's state is its key's number. Each uncounted window
        that is a prefix of a counted one in its bucket gets a state above
        the unseen key's number, and one last, dead state stands for every
        other window; so a state's share is its key's, at its number capped
        at the unseen key's.

        One sorted table of keys answers both reads of (state, id) with a
        ``searchsorted`` of state·|V| + id, which lands on the first key at
        or above it. A code, the key of a counted entry or of a window's
        move by id, carries its component, the share plus c/denom of the
        entry it codes or the bare share if it codes none, and its child
        state, the state of the window plus id, or the dead state if no
        window has that move. No move leaves the dead state: no counted
        window extends its windows. Every other (state, id) lands on a slot
        of its own state that carries the bare share and the dead state: a
        gap slot keyed code - 1 before each code whose id is not 0 and that
        does not follow the code before it, and an end slot keyed
        (state + 1)·|V| - 1 that closes each state whose last id has no
        code. So the table holds at most twice the codes plus one slot per
        state. States are held as state·|V|, so a read adds its ids to them.
        Returns (bucket -> its window ()'s state, the dead state, the table
        of keys, their components, their child states, and the interpolation
        weights as a column)."""
        if self._components is None:
            v, alpha = len(self.vocab), self.smoothing_alpha
            slots = list(self.counts.values())
            size = np.array([len(slot) for slot in slots], dtype=np.intp)
            denom = np.array([sum(slot.values()) + alpha * v for slot in slots]
                             + [alpha * v])
            total = int(size.sum())
            tid = np.fromiter(chain.from_iterable(slots), dtype=np.int64, count=total)
            c = np.fromiter(chain.from_iterable(slot.values() for slot in slots),
                            dtype=np.float64, count=total)
            index: dict[tuple, dict[tuple, int]] = {}  # bucket -> window -> state
            for i, (bucket, window) in enumerate(self.counts):
                index.setdefault(bucket, {})[window] = i
            moves, new = [], len(slots)  # code, child, code, ...; the next state made
            for windows in index.values():
                todo = list(windows.items())
                for window, state in todo:  # and each uncounted prefix made here
                    if window:
                        parent = windows.get(window[:-1])
                        if parent is None:
                            parent = windows[window[:-1]] = new
                            todo.append((window[:-1], new))
                            new += 1
                        moves += parent * v + window[-1], state
            share = alpha / denom
            share = np.r_[share, np.full(new - len(slots), share[-1])]  # per state
            key = np.arange(len(slots)).repeat(size)
            move, child = np.array(moves, dtype=np.int64).reshape(-1, 2).T
            code, at = np.unique(np.r_[key * v + tid, move], return_inverse=True)
            component = share[code // v]
            component[at[:total]] = share[key] + c / denom[key]
            kids = np.full(len(code), new)
            kids[at[total:]] = child
            ends = np.arange(1, new + 2, dtype=np.int64) * v - 1
            bare = np.r_[code[(code % v != 0) & (code - 1 != np.r_[-1, code[:-1]])] - 1,
                         ends[np.r_[code, -1][code.searchsorted(ends)] != ends]]
            table = np.r_[code, bare]
            order = table.argsort(kind="stable")  # three sorted runs
            tables = (table[order], np.r_[component, share[bare // v]][order],
                      np.r_[kids, np.full(len(bare), new)][order] * v)
            for array in tables:  # every decode state shares them
                array.flags.writeable = False
            self._components = (
                {bucket: windows[()] * v for bucket, windows in index.items()}, new * v,
                *tables, np.array(self.interpolation)[:, None])
        return self._components

    def begin(self, context: ScorerContext) -> "_NgramState":
        """A decode's state: one row at the root state of the context's
        bucket."""
        return _NgramState(self, context.bucket)

    prob_dist = _prob_dist

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
        jsonl.dump(path, payload, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "NgramScorer":
        _check_snapshot(payload, NGRAM_SNAPSHOT)
        scorer = cls(Vocabulary(payload["tokens"]), payload["smoothing_alpha"],
                     payload["max_order"])
        if payload["interpolation"] != list(scorer.interpolation):
            raise ScorerError(f"snapshot interpolation {payload['interpolation']} is not "
                              f"the weights of max_order {scorer.max_order}, "
                              f"{list(scorer.interpolation)}")
        v = len(scorer.vocab)
        for bucket, window, slot in payload["counts"]:
            where = f"snapshot counts of bucket {bucket} and window {window}"
            key = (tuple(bucket), tuple(window))
            if key in scorer.counts:
                raise ScorerError(f"{where} are given twice")
            # an entry is coded key·|V| + id, so an id outside [0, |V|)
            # would read as another key's entry
            bad = [i for i in window if not 0 <= i < v]
            if bad:
                raise ScorerError(f"{where} name id {bad[0]}, outside [0, {v})")
            # train counts windows of at most max_order ids, and no decode
            # reads a longer one
            if len(window) > scorer.max_order:
                raise ScorerError(f"{where} name a window of {len(window)} ids, "
                                  f"longer than max_order {scorer.max_order}")
            counts = scorer.counts[key] = {}
            for i, c in slot:
                if not 0 <= i < v:
                    raise ScorerError(f"{where} name id {i}, outside [0, {v})")
                # train writes whole counts >= 1; a count <= 0 or NaN leaves
                # rows that are no distribution
                if not (math.isfinite(c) and c > 0):
                    raise ScorerError(f"{where} give id {i} the count {c}, "
                                      f"not a finite number > 0")
                if i in counts:
                    raise ScorerError(f"{where} give id {i} twice")
                counts[i] = c
        return scorer


class _NgramState:
    """The n-gram's rows in one decode: the state of each row's window at
    each order, as state·|V|, (orders, rows). A row begins with every order
    at the bucket's root, the state of (). ``probs`` finds every order's
    slot with one ``searchsorted`` of state·|V| + id over the scorer's
    table, and mixes the orders' components in order. ``keep`` reads the
    kept candidates' child states at those same slots: a child's order o is
    its parent's order o - 1 moved by its id, so its window is its prefix's
    last min(o, len) ids, and order 0 stays at the root."""

    def __init__(self, scorer: NgramScorer, bucket):
        roots, dead, self.table, self.component, self.child, self.weights = scorer._smoothed()
        self.root = roots.get(bucket, dead)
        self.states = np.full((len(self.weights), 1), self.root)

    def probs(self, rows, ids) -> np.ndarray:
        codes = self.states.take(rows, axis=1)
        codes += ids
        self.found = self.table.searchsorted(codes)
        mixed = self.component[self.found]
        mixed *= self.weights
        dist = mixed[0]
        for component in mixed[1:]:  # added order by order, into order 0's row
            dist += component
        return dist

    def keep(self, idx):
        found = self.found[:-1] if idx is None else self.found[:-1].take(idx, axis=1)
        self.states = np.empty((len(found) + 1, found.shape[1]), dtype=np.int64)
        self.states[0] = self.root
        self.states[1:] = self.child[found]


def _embedding_plan(padded, lengths, responses):
    """The embedding rows a teacher-forced pass over P pairs pools, pair by
    pair and, within a pair, in step order: step i of pair p pools p's
    context, then responses[p, :i]. Returns (vocabulary id, forward row
    p·n + i, and the count that row's pooled mean divides by) per entry."""
    n_pairs, n = responses.shape
    size = (lengths[:, None] + np.arange(n)).ravel()  # entries of row p·n + i
    row = np.arange(n_pairs * n).repeat(size)
    at = np.arange(len(row)) - (size.cumsum() - size).repeat(size)  # within the row
    pair = row // max(n, 1)
    past = at - lengths[pair]  # >= 0: the response id at that step of the pair
    in_ctx = past < 0
    token = np.empty(len(row), dtype=np.intp)
    token[in_ctx] = padded[pair[in_ctx], at[in_ctx]]
    token[~in_ctx] = responses.ravel()[(pair * n + past)[~in_ctx]]
    count = np.where(in_ctx, lengths[pair], row - pair * n).astype(np.float64)
    return token, row, count


def _added_rows(like, at, values) -> np.ndarray:
    """Zeros shaped like ``like`` with values[k] added to row at[k], in k
    order, as ``np.add.at`` adds; flat, which takes numpy's fast 1-d path."""
    out = np.zeros_like(like)
    width = like.shape[1]
    np.add.at(out.reshape(-1), (at[:, None] * width + np.arange(width)).ravel(),
              values.ravel())
    return out


def _seq_logprobs(probs, responses) -> np.ndarray:
    """Per pair of a stacked forward, the sum over its steps i of log
    probs[p·n + i, responses[p, i]], added in step order."""
    n_pairs, n = responses.shape
    if not n:
        return np.zeros(n_pairs)
    logs = np.log(probs[np.arange(n_pairs * n), responses.ravel()])
    return np.cumsum(logs.reshape(n_pairs, n), axis=1)[:, -1]


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

    def _layers(self, pool):
        """The hidden layer and the softmax's numerators and row sums over a
        stack of pooled inputs: row r's probabilities are exp[r] / total[r],
        and each caller divides only the entries it needs, which gives each
        one the bits of the whole row's division.

        Each layer is a stack of one matrix-vector product per row, so every
        row takes the BLAS path of a lone input and its bits do not depend on
        the stack. Returns (h, exp, total).
        """
        p = self.params
        # each product is a fresh array, so the adds, tanh, shift and exp
        # run in place on it, as the same ufuncs give the same bits
        h = np.matmul(p["w1"], pool[..., None])[..., 0]
        h += p["b1"]
        np.tanh(h, out=h)
        exp = np.matmul(p["w2"], h[..., None])[..., 0]
        exp += p["b2"]
        exp -= exp.max(axis=-1, keepdims=True)
        np.exp(exp, out=exp)
        return h, exp, exp.sum(axis=-1)

    def _batch_layout(self, contexts):
        """The one layout of a batch's contexts, given as 1-D id arrays:
        (padded, lengths), where row p of the (P, longest) matrix padded is
        context p followed by the index of the zero row that
        ``_context_means`` appends to the embeddings."""
        lengths = np.fromiter(map(len, contexts), dtype=np.intp, count=len(contexts))
        padded = np.full((len(lengths), lengths.max(initial=0)), len(self.params["emb"]))
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = (
            np.concatenate(contexts) if len(contexts) else ())
        return padded, lengths

    def _context_means(self, padded, lengths):
        """(P, embed_dim): the mean embedding of each laid-out context, 0.0
        for an empty one. The padding reads an appended zero row, which
        leaves each sum unchanged: numpy adds along a non-contiguous axis in
        order, so a context's mean equals the mean of it alone bit for bit.
        (At embed_dim 1 the axis is contiguous and numpy sums it pairwise,
        so there the padding can move the last bit.)"""
        rows = np.concatenate((self.params["emb"], np.zeros((1, self.embed_dim))))[padded]
        return rows.sum(axis=1) / np.maximum(lengths, 1)[:, None]

    def _pool(self, base, sums, lengths):
        """The layers' input, one row per prefix: base, which is +0.0 plus
        its context's mean, plus the prefix's sum over its length, plus the
        length's position row. Each mean is a sum divided by its count,
        which is how ``mean`` computes it; an empty prefix adds 0.0 over 1,
        and an empty context a mean of 0.0, which leave the pool, begun at
        +0.0, unchanged. ``lengths`` is an int array, one per row, or one
        int for every row, whose count and position row are then picked
        with no array call. Returns (pool, plen)."""
        if isinstance(lengths, int):
            count, plen = max(lengths, 1), min(lengths, self.max_prefix)
        else:
            count = np.maximum(lengths, 1)[..., None]
            plen = np.minimum(lengths, self.max_prefix)
        return base + sums / count + self.params["pos"][plen], plen

    def begin(self, context: ScorerContext) -> "_NeuralState":
        """A decode's state: the context mapped to ids and pooled once."""
        ctx_ids = self.vocab.ids(context.tokens)
        mean = 0.0
        if len(ctx_ids):
            mean = self.params["emb"][ctx_ids].sum(axis=0) / len(ctx_ids)
        return _NeuralState(self, np.zeros(self.embed_dim) + mean)

    prob_dist = _prob_dist

    def _forward(self, layout, responses):
        """The forward of every step of P pairs, their contexts laid out by
        ``_batch_layout``, stacked pair by pair: row p·n + i predicts
        responses[p, i] from responses[p, :i], bit for bit as the decode
        state's row of that prefix does: a running sum adds in the order the
        state's ``keep`` does. Returns (pool, plen, h, probs)."""
        n_pairs, n = responses.shape
        sums = np.zeros((n_pairs, n, self.embed_dim))
        np.cumsum(self.params["emb"][responses[:, :-1]], axis=1, out=sums[:, 1:])
        means = self._context_means(*layout).repeat(n, axis=0)
        pool, plen = self._pool(np.zeros(self.embed_dim) + means,
                                sums.reshape(-1, self.embed_dim),
                                np.tile(np.arange(n), n_pairs))
        h, exp, total = self._layers(pool)
        return pool, plen, h, exp / total[:, None]

    def _backward(self, layout, responses, pool, plen, h, d_logits):
        """Gradients of sum_r d_logits[r] . logits_r over a stacked forward.
        Every sum over rows adds from zero in row order and the embedding
        shares add pair by pair in step order, so one pair's gradients equal
        bit for bit a loop over its steps that adds each step's share, in
        step order, to gradients that start at zero."""
        p = self.params
        grads = {}
        # sums over the rows (axis 0) add from zero in row order; einsum's
        # outer products accumulate row by row too, with no (rows, |V|,
        # hidden) temporary, and take no BLAS path
        grads["w2"] = np.einsum("rv,rj->vj", d_logits, h)
        grads["b2"] = d_logits.sum(axis=0)
        d_h = np.matmul(p["w2"].T, d_logits[..., None])[..., 0]
        d_pre = d_h * (1.0 - h**2)
        grads["w1"] = np.einsum("rj,rd->jd", d_pre, pool)
        grads["b1"] = d_pre.sum(axis=0)
        d_pool = np.matmul(p["w1"].T, d_pre[..., None])[..., 0]
        token, row, count = _embedding_plan(*layout, responses)
        grads["emb"] = _added_rows(p["emb"], token, d_pool[row] / count[:, None])
        grads["pos"] = _added_rows(p["pos"], plen, d_pool)
        return grads

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def seq_logprob_vjp(self, contexts, responses):
        """log P(responses[p] | contexts[p]) of P pairs from one forward, and
        its pullback: ``pullback(weights)`` is the exact gradient of
        sum_p weights[p] · logp[p] (all weights 1.0 when None). Each context
        is a 1-D id array and responses are a (P, n) id array; counts that
        differ raise ScorerError. This is the one place a batch is laid out.

        Each log-probability adds its steps' logs in step order, so it
        equals its pair's, asked alone, bit for bit whatever the batch.
        Fine-tuning ascends the sum, with ``apply_grads(grads,
        -lr)``, and DPO weights each sequence by its share of the loss."""
        responses = np.asarray(responses, dtype=np.intp)
        if len(contexts) != len(responses):
            raise ScorerError(f"{len(contexts)} contexts for {len(responses)} responses")
        layout = self._batch_layout(contexts)
        pool, plen, h, probs = self._forward(layout, responses)
        n_pairs, n = responses.shape

        def pullback(weights=None):
            d_logits = probs.copy()
            # grad of -log p, then scaled by -weight
            d_logits[np.arange(n_pairs * n), responses.ravel()] -= 1.0
            scale = np.ones(n_pairs) if weights is None else np.asarray(weights, float)
            d_logits *= -scale.repeat(n)[:, None]
            return self._backward(layout, responses, pool, plen, h, d_logits)

        return _seq_logprobs(probs, responses), pullback

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
        jsonl.dump(path, payload, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "NeuralScorer":
        """The scorer a snapshot holds; a parameter whose name or shape does
        not fit the vocabulary and dimensions, or that holds a value that is
        not a finite number, raises ScorerError."""
        _check_snapshot(payload, NEURAL_SNAPSHOT)
        vocab = Vocabulary(payload["tokens"])
        v, d, h = len(vocab), payload["embed_dim"], payload["hidden_dim"]
        shapes = {"emb": (v, d), "pos": (payload["max_prefix"] + 1, d), "w1": (h, d),
                  "b1": (h,), "w2": (v, h), "b2": (v,)}
        params = {k: np.array(x) for k, x in payload["params"].items()}
        if params.keys() != shapes.keys():
            raise ScorerError(f"snapshot parameters missing or unknown: "
                              f"{sorted(params.keys() ^ shapes.keys())}")
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ScorerError(f"snapshot parameter {name!r} has shape "
                                  f"{params[name].shape}, expected {shape}")
            if not (np.issubdtype(params[name].dtype, np.number)
                    and np.isfinite(params[name]).all()):
                raise ScorerError(f"snapshot parameter {name!r} holds a value that "
                                  f"is not a finite number")
        return cls(vocab=vocab, embed_dim=d, hidden_dim=h,
                   max_prefix=payload["max_prefix"], seed=payload["seed"], params=params)


class _NeuralState:
    """The neural rows in one decode: the pool's base, +0.0 plus the
    context's mean, and each row's running prefix sum, which ``keep`` adds
    its candidate's embedding to, in the order a sum over the prefix adds.
    The sums begin at +0.0, which can differ from a sum over the prefix
    only in the sign of a zero, and the pool, begun at +0.0, does not see
    that sign. ``probs`` runs one forward over the rows and divides only
    the asked entries by their rows' sums."""

    def __init__(self, scorer: NeuralScorer, base):
        self.scorer, self.base = scorer, base
        self.sums = np.zeros((1, scorer.embed_dim))
        self.length = 0

    def probs(self, rows, ids) -> np.ndarray:
        self.asked = rows, ids
        pool = self.scorer._pool(self.base, self.sums, self.length)[0]
        _, exp, total = self.scorer._layers(pool)
        return exp[rows, ids] / total[rows]

    def keep(self, idx):
        rows, ids = _kept(self.asked, idx)
        self.sums = self.sums.take(rows, axis=0) + self.scorer.params["emb"].take(ids, axis=0)
        self.length += 1


def load_scorer(path):
    """The scorer a save() wrote, of the kind its snapshot names. A snapshot
    that its kind's spec rejects, or whose counts or parameters do not fit
    its vocabulary, raises ScorerError naming path."""
    try:
        payload = jsonl.load(path)
        neural = type(payload) is dict and payload.get("kind") == "neural"
        return (NeuralScorer if neural else NgramScorer).from_payload(payload)
    except jsonl.JsonlError as exc:  # names path already
        raise ScorerError(str(exc)) from exc
    except (ScorerError, ValueError) as exc:
        raise ScorerError(f"{path}: {exc}") from exc
