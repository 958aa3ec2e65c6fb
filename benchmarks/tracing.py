"""In-memory span tracing around genret's public functions.

The traced run patches module and class attributes of ``genret`` with thin
wrappers that record one span per call, and restores them afterwards. The
program itself is not changed: every span is recorded from this file, at the
boundary where the benchmark or another genret module calls into a layer.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    """Spans kept as lists ``[name, start, end, parent, request_id, attrs]``.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``request_id`` is whatever ``self.request_id`` held when the span began.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._requests = 0
        self.request_id = None

    def wrap(self, name, fn, attrs_of=None, new_request=False):
        """``fn`` recording one span per call; ``new_request`` gives each call
        and everything under it a fresh request id."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            outer = self.request_id
            if new_request:
                self._requests += 1
                self.request_id = self._requests
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id,
                    attrs_of(args) if attrs_of else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.request_id = outer

        traced.__wrapped__ = fn
        return traced

    def rescale(self, scale) -> None:
        """Set each span's end to its start plus ``scale(start, end)``, the
        span's duration in reference seconds (see calibration.py)."""
        for s in self.spans:
            s[END] = s[START] + scale(s[START], s[END])

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per
        span; a span's id is its line number after the header, from 0, and
        end - start is its duration in reference seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request_id"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[REQUEST]],
                                    separators=(",", ":")) + "\n")


def _targets():
    """(owner, attribute, span name, attrs_of[, new_request]) for every
    traced boundary."""
    from genret import alignment, decoder, embed, metrics, rqvae, serving, synth, trie
    from genret.scorer import NeuralScorer, NgramScorer

    return [
        (synth, "gen_data", "synth.gen_data", None),
        (embed, "embed_catalog", "embed.embed_catalog", None),
        (rqvae, "train", "rqvae.train", None),
        (rqvae, "quantize", "rqvae.quantize", None),
        (rqvae, "assign_sids", "rqvae.assign_sids", None),
        (trie, "build", "trie.build", None),
        (alignment, "build_stage_corpora", "alignment.build_stage_corpora", None),
        (alignment, "augment", "prompting.augment", None),
        (alignment, "train_staged", "alignment.train_staged",
         lambda a: type(a[0]).__name__),
        (NgramScorer, "observe", "scorer.observe", None),
        (alignment, "summary_from_events", "alignment.summary_from_events", None),
        (alignment, "compact_context", "alignment.compact_context", None),
        # attrs: (beam width, context)
        (decoder, "decode", "decoder.decode", lambda a: (a[3], a[1])),
        # attrs: the prefix tokens the decoder asks about
        (NgramScorer, "prob_dist", "scorer.prob_dist", lambda a: tuple(a[2])),
        (NeuralScorer, "prob_dist", "scorer.prob_dist", lambda a: tuple(a[2])),
        (metrics, "hit_ratio", "metrics.hit_ratio", None),
        (metrics, "ndcg", "metrics.ndcg", None),
        (metrics, "diversity", "metrics.diversity", None),
        (metrics, "ltrr", "metrics.ltrr", None),
        (serving, "run_simulation", "serving.run_simulation", None),
        (serving, "handle_request", "serving.handle_request",
         lambda a: a[1].user_id, True),
        (serving, "nearline_tick", "serving.nearline_tick", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced boundary through ``tracer`` until the block ends."""
    saved = []
    try:
        for owner, attr, name, attrs_of, *new_request in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs_of, *new_request))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span minus its children, seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child[i]
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def decodes_in_request_path(spans) -> int:
    """decoder.decode spans that run inside a serving.handle_request span."""
    return sum(1 for i, s in enumerate(spans)
               if s[NAME] == "decoder.decode"
               and has_ancestor(spans, i, "serving.handle_request"))
