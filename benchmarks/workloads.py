"""The three benchmark workloads and the checks on their outputs.

offline-build  rebuilds the index and the n-gram scorer from raw inputs;
               no decoding, so decoder and scorer reads stay idle.
batch-generate closed loop, one client, no think time: one retrieval list per
               request through ``pipeline.build_generate_fn`` at beam 8, 32 or
               128; the index is built in set-up, so rqvae stays idle.
serving-replay open loop in simulated ticks: a seeded trace replayed through
               ``serving.run_simulation`` with real decoding at beam 8 and a
               mid-run switch from the n-gram to a neural scorer.

Everything is called through module attributes (``rqvae.train``, not an
imported ``train``) so that the traced run can wrap each layer boundary.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass

import numpy as np

from genret import alignment, decoder, embed, metrics, pipeline, rqvae, serving, synth
from genret import trie as trie_mod
from genret.catalog import load_catalog
from genret.prompting import load_events, load_profiles
from genret.scorer import NeuralScorer, NgramScorer
from genret.vocab import vocab_from_sids

import layers
from calibration import Calibrator
from tracing import Tracer, instrument

BEAMS = (8, 32, 128)
SERVING_BEAM = 8
EMBED_DIM = 32
ORACLE_USERS = 3
ORACLE_TOP = 8
# batch-generate and serving-replay serve one fixed corpus and index; their
# seed draws the traffic. A per-seed corpus moves decode cost by up to a
# quarter (the collision groups, and so the last-level fan-out, change), which
# would drown the run-to-run spread the benchmark has to resolve.
CORPUS_SEED = 0
# Set-ups per batch/serving run. Each is a full M rebuild of 10 s or more;
# two keep one run under about 45 s.
SETUP_REPEATS = 2
# Fewest replays in a serving-replay run: the second checks that a replay of
# the same trace gives the same report.
MIN_REPLAYS = 2
RQ_LEVELS = 3
RQ_EPOCHS = 120
# serving-replay traffic. Neither the paper nor the synthetic corpus (every
# user has 12 events) gives a popularity or revenue signal, so the exponent
# and the ARPU spread are assumptions; benchmarks/README.md gives the reasons
# and how the serving outcomes move with the exponent.
ZIPF_S = 1.1
ARPU_SIGMA = 1.0  # only the ARPU order matters: admission groups by quantile
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input size and run lengths; M is the benchmark, S the smoke test."""
    num_categories: int
    ads_per_category: int
    num_users: int
    codebook_size: int
    min_builds: int         # offline-build: fewest builds one run times
    trace_rounds: int       # batch-generate traced run: rounds of requests
    ticks: int
    arrivals_per_tick: int
    budget_per_tick: int


SCALES = {
    # ROADMAP scale S: 32 ads, 20 users
    "S": Scale(4, 8, 20, 8, min_builds=2, trace_rounds=1,
               ticks=20, arrivals_per_tick=4, budget_per_tick=3),
    # ROADMAP scale M: 1000 ads, 500 users, 3 levels x 16 codes
    "M": Scale(10, 100, 500, 16, min_builds=1, trace_rounds=2,
               ticks=240, arrivals_per_tick=10, budget_per_tick=6),
}


@dataclass
class Build:
    catalog: object
    profiles: dict
    events: dict
    truth: dict
    ltr_labels: dict
    sids: dict
    trie: object
    corpora: dict
    scorer: NgramScorer
    rq_config: rqvae.RqVaeConfig
    codebook: tuple


@dataclass
class Outcome:
    """What one run measured: the gated metrics, the named report, checks."""
    gated: dict          # end-to-end metric -> (value, unit)
    report: dict         # named metric -> (value, unit, samples)
    digests: dict
    attempted: int = 0
    failed: int = 0
    problems: list | None = None
    layers: dict | None = None
    tracer: Tracer | None = None


class Checks:
    """Counts operations and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def build_index(scale: Scale, seed: int, work_dir: str) -> Build:
    """One full rebuild: gen_data -> embed -> rqvae -> trie -> corpora -> n-gram."""
    spec = synth.SyntheticSpec(num_categories=scale.num_categories,
                               ads_per_category=scale.ads_per_category,
                               num_users=scale.num_users, seed=seed)
    paths = synth.gen_data(spec, work_dir)
    catalog = load_catalog(paths["catalog"])
    profiles = load_profiles(paths["profiles"])
    table = embed.embed_catalog(catalog, EMBED_DIM, seed)
    rq_config = rqvae.RqVaeConfig(num_levels=RQ_LEVELS,
                                  codebook_size=scale.codebook_size,
                                  latent_dim=8, epochs=RQ_EPOCHS, seed=seed)
    model = rqvae.train(rq_config, table)
    sids = rqvae.assign_sids(model, table)
    ad_trie = trie_mod.build(sids)
    events = load_events(paths["events"], sids)
    corpora = alignment.build_stage_corpora(catalog, sids, profiles, events, seed=seed)
    scorer, _ = alignment.train_staged(NgramScorer(vocab_from_sids(sids)), corpora,
                                       seed=seed)
    return Build(catalog=catalog, profiles=profiles, events=events,
                 truth=synth.load_truth(paths["truth"]),
                 ltr_labels=synth.load_ltr_labels(paths["ltr_labels"]),
                 sids=sids, trie=ad_trie, corpora=corpora, scorer=scorer,
                 rq_config=rq_config,
                 codebook=rqvae.codebook_metrics(sids, rq_config))


def train_neural(build: Build, seed: int) -> NeuralScorer:
    """Neural scorer trained on the main stage only, as run_pipeline trains
    its DPO policy."""
    scorer = NeuralScorer(vocab=vocab_from_sids(build.sids), seed=seed)
    scorer, _ = alignment.train_staged(scorer, {"main": build.corpora["main"]},
                                       order=("main",), seed=seed)
    return scorer


# ---------------------------------------------------------------- checks

def check_build(build: Build) -> list[str]:
    ad_ids = {ad.ad_id for ad in build.catalog}
    problems = []
    if set(build.sids) != ad_ids:
        problems.append(f"{len(ad_ids ^ set(build.sids))} ads without an S-ID or unknown")
    if len({sid.codes for sid in build.sids.values()}) != len(build.sids):
        problems.append("full S-IDs are not unique")
    if len({len(sid) for sid in build.sids.values()}) != 1:
        problems.append("S-IDs differ in depth")
    if build.trie.ad_count != len(build.catalog):
        problems.append(f"trie holds {build.trie.ad_count} ads, catalog {len(build.catalog)}")
    return problems


def same_sids(sids: dict, build: Build) -> list[str]:
    return [] if build.sids == sids else ["rebuild with the same seed gave other S-IDs"]


def check_list(build: Build, entries, beam: int) -> list[str]:
    """A retrieval list: catalog ads whose S-IDs are in the trie, no
    duplicates, length min(beam, ads), non-increasing scores."""
    problems = []
    ids = [ad_id for ad_id, _ in entries]
    for ad_id in ids:
        if ad_id not in build.catalog or ad_id not in build.sids:
            problems.append(f"{ad_id!r} is not a catalog ad")
        elif not trie_mod.contains(build.trie, build.sids[ad_id]):
            problems.append(f"S-ID of {ad_id!r} is not in the trie")
    if len(set(ids)) != len(ids):
        problems.append("duplicate ad in list")
    if len(ids) != min(beam, len(build.catalog)):
        problems.append(f"list length {len(ids)} != min({beam}, {len(build.catalog)})")
    scores = [score for _, score in entries]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores increase along the list")
    return problems


def check_oracle(build: Build, scorer, seed: int, checks: Checks) -> None:
    """For a few seeded users: top 8 of decode at a whole-inventory beam equal
    the top 8 of decode_exhaustive."""
    users = sorted(build.events)
    for uid in random.Random(seed).sample(users, min(ORACLE_USERS, len(users))):
        context = user_context(build, uid)
        beam = decoder.decode(scorer, context, build.trie, build.trie.ad_count)
        full = decoder.decode_exhaustive(scorer, context, build.trie)
        top_beam = [(a, s) for a, _, s in beam.entries[:ORACLE_TOP]]
        top_full = [(a, s) for a, _, s in full.entries[:ORACLE_TOP]]
        checks.op([] if top_beam == top_full else
                  [f"user {uid}: beam top {ORACLE_TOP} differs from exhaustive"])


def user_context(build: Build, uid: str):
    events = build.events[uid]
    summary = alignment.summary_from_events(events, build.catalog)
    return alignment.compact_context(build.profiles[uid], summary, events)


def sha256_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- helpers

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(np.median(values))


def pct(values, q) -> float:
    return float(np.percentile(values, q))


class WorkDirs:
    """Fresh scratch directories under one root, removed on close."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def new(self) -> str:
        self.count += 1
        path = os.path.join(self.root, str(self.count))
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def timed_setups(repeats: int, setup):
    """Run ``setup`` ``repeats`` times; return (last result, intervals).
    Each result is dropped before the next set-up starts, so the peak memory
    is that of one set-up, not of two held at once."""
    spans, result = [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = clock()
        result = setup()
        spans.append((start, clock()))
    return result, spans


def gated(setup_s, latencies_s, ops, seconds) -> dict:
    """The result line's end-to-end metrics, all in reference time."""
    ms = [t * 1000.0 for t in latencies_s]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (median(ms), "ms"),
        "op_p90_ms": (pct(ms, 90), "ms"),
        "ops_per_s": (ops / seconds, "1/s"),
    }


def quality(build: Build, lists: dict, k: int) -> list:
    cat_of = {ad.ad_id: ad.first_category for ad in build.catalog}
    return [metrics.EvalRecord(user_id=uid, retrieved=[a for a, _ in lists[uid]][:k],
                               truth=build.truth[uid], categories=cat_of,
                               ltr_labels=build.ltr_labels.get(uid))
            for uid in sorted(lists)]


# ---------------------------------------------------------------- offline-build

def offline_build(scale: Scale, seed: int, seconds: float, dirs: WorkDirs,
                  traced: bool) -> Outcome:
    checks = Checks()
    if traced:
        return _offline_traced(scale, seed, dirs, checks)
    first_sids, built, spans = None, None, []
    with Calibrator() as cal:
        # Set-up pays first-call costs with a small rebuild so the timed
        # builds start warm; it is cheap, so it repeats three times.
        _, setups = timed_setups(3, lambda: build_index(SCALES["S"], seed, dirs.new()))
        start = clock()
        while len(spans) < scale.min_builds or clock() - start < seconds:
            built = None  # one build alive at a time
            gc.collect()
            t0 = clock()
            built = build_index(scale, seed, dirs.new())
            spans.append((t0, clock()))
            first_sids = first_sids or built.sids
            checks.op(check_build(built) + same_sids(first_sids, built))
    check_oracle(built, built.scorer, seed, checks)
    # One more rebuild after the timed window, so determinism is checked even
    # when the window holds a single build.
    built = None
    gc.collect()
    checks.op(same_sids(first_sids, build_index(scale, seed, dirs.new())))
    setup_s = median([cal.scale(a, b) for a, b in setups])
    times = [cal.scale(a, b) for a, b in spans]
    report = {
        "setup_s": (setup_s, "s", 3),
        "build_s": (median(times), "s", len(times)),
    }
    return _finish(Outcome(gated=gated(setup_s, times, len(times), sum(times)),
                           report=report,
                           digests={"sids_sha256": sha256_of(
                               {a: list(s.codes) for a, s in first_sids.items()})}),
                   checks, cal=cal)


def _offline_traced(scale, seed, dirs, checks) -> Outcome:
    tracer = Tracer()
    with Calibrator() as cal:
        build_index(SCALES["S"], seed, dirs.new())  # the set-up's warm-up
        start = clock()
        plain = build_index(scale, seed, dirs.new())
        untraced = (start, clock())
        with instrument(tracer):
            start = clock()
            built = build_index(scale, seed, dirs.new())
            traced = (start, clock())
    tracer.rescale(cal.scale)
    checks.op(check_build(plain) + check_build(built))
    out = layers.build_side(tracer.spans, built, builds=1)
    out.update(layers.trace_cost(cal.scale(*untraced), cal.scale(*traced)))
    return _finish(Outcome(gated={}, report={}, digests={}, layers=out), checks, tracer)


# ---------------------------------------------------------------- batch-generate

def batch_rounds(users, seed):
    """Endless seeded rounds of three passes. Each pass asks once for every
    user, in shuffled order, with beams 8/32/128 in equal shares; over a round
    every user is asked once at each beam, so every round holds the same
    requests and only their order depends on the seed."""
    rng = random.Random(f"batch-{seed}")
    while True:
        offsets = [i % len(BEAMS) for i in range(len(users))]
        rng.shuffle(offsets)
        rounds = []
        for shift in range(len(BEAMS)):
            order = list(range(len(users)))
            rng.shuffle(order)
            rounds.extend((users[i], BEAMS[(offsets[i] + shift) % len(BEAMS)])
                          for i in order)
        yield rounds


def batch_generate(scale: Scale, seed: int, seconds: float, dirs: WorkDirs,
                   traced: bool) -> Outcome:
    checks = Checks()
    if traced:
        return _batch_traced(scale, seed, dirs, checks)
    with Calibrator() as cal:
        build, setups = timed_setups(
            SETUP_REPEATS, lambda: build_index(scale, CORPUS_SEED, dirs.new()))
        gens = generate_fns(build, build.scorer, BEAMS)
        users = sorted(build.events)
        out, spans = _serve_batch(gens, batch_rounds(users, seed), seconds)
    setup_s = median([cal.scale(a, b) for a, b in setups])
    # The first request at each beam, asked again after the timed window,
    # must give the same list even when the window holds a single round.
    again = []
    for beam in BEAMS:
        uid = next(u for u, b, _ in out if b == beam)
        again.append((uid, beam, gens[beam](uid)))
    first = _check_batch(build, out + again, len(users), checks)
    check_oracle(build, build.scorer, seed, checks)
    records = quality(build, first, 8)
    latencies = [cal.scale(a, b) for a, b in spans]
    ms = [t * 1000.0 for t in latencies]
    report = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "decode_p50_ms": (median(ms), "ms", len(ms)),
        "decode_p90_ms": (pct(ms, 90), "ms", len(ms)),
        "decode_p99_ms": (pct(ms, 99), "ms", len(ms)),
        # closed loop without think time: one request after the other
        "users_per_s": (len(ms) / sum(latencies), "1/s", len(ms)),
        "hr_at_8": (metrics.hit_ratio(records, 8), "ratio", len(records)),
        "ndcg_at_8": (metrics.ndcg(records, 8), "ratio", len(records)),
    }
    for beam in BEAMS:
        sample = [t for (_, b, _), t in zip(out, ms) if b == beam]
        report[f"decode_p50_ms.b{beam}"] = (median(sample), "ms", len(sample))
    digests = {"results_sha256": sha256_of(
        [[uid, entries] for uid, entries in sorted(first.items())])}
    return _finish(Outcome(gated=gated(setup_s, latencies, len(ms), sum(latencies)),
                           report=report, digests=digests), checks, cal=cal)


def generate_fns(build: Build, scorer, beams) -> dict:
    return {beam: pipeline.build_generate_fn(scorer, build.trie, build.catalog,
                                             build.profiles, build.events, beam)
            for beam in beams}


def _batch_traced(scale, seed, dirs, checks) -> Outcome:
    tracer = Tracer()
    with Calibrator() as cal:
        with instrument(tracer):
            build = build_index(scale, CORPUS_SEED, dirs.new())
        gens = generate_fns(build, build.scorer, BEAMS)
        users = sorted(build.events)
        plan = list(itertools.islice(batch_rounds(users, seed), scale.trace_rounds))
        start = clock()
        _serve_batch(gens, plan)
        untraced = (start, clock())
        with instrument(tracer):
            traced_gens = {b: tracer.wrap("bench.request", g, new_request=True)
                           for b, g in gens.items()}
            start = clock()
            out, _ = _serve_batch(traced_gens, plan)
            traced = (start, clock())
            records = quality(build, {u: e for u, _, e in out[: len(users)]}, 8)
            result = layers.quality(records)
    tracer.rescale(cal.scale)
    _check_batch(build, out, len(users), checks)
    result.update(layers.build_side(tracer.spans, build, builds=1))
    result.update(layers.decode_side(tracer.spans, build, "bench.request"))
    result.update(layers.trace_cost(cal.scale(*untraced), cal.scale(*traced)))
    return _finish(Outcome(gated={}, report={}, digests={}, layers=result), checks, tracer)


def _serve_batch(gens, rounds, seconds=None):
    """Closed loop over whole rounds of requests; stops at the end of the
    first round that ends after ``seconds``, or when the rounds run out.
    Returns the lists and each request's interval."""
    out, spans = [], []
    start = clock()
    for requests in rounds:
        for uid, beam in requests:
            t0 = clock()
            entries = gens[beam](uid)
            spans.append((t0, clock()))
            out.append((uid, beam, entries))
        if seconds is not None and clock() - start >= seconds:
            break
    return out, spans


def _check_batch(build, out, pass_len, checks) -> dict:
    """Check every list; return the first pass as user -> list."""
    seen = {}
    for uid, beam, entries in out:
        problems = check_list(build, entries, beam)
        if seen.setdefault((uid, beam), entries) != entries:
            problems.append(f"user {uid} beam {beam}: repeated request gave another list")
        checks.op(problems)
    return {uid: entries for uid, _, entries in out[:pass_len]}


# ---------------------------------------------------------------- serving-replay

def make_trace(users, scale: Scale, seed: int):
    """Zipf-skewed arrivals, more per tick than the nearline budget, and a
    log-normal ARPU drawn independently of popularity. Popularity and ARPU
    belong to the users of the fixed corpus; the seed draws the arrivals."""
    ranks = np.random.default_rng([CORPUS_SEED, 1]).permutation(len(users)) + 1
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    picks = np.random.default_rng([seed, 1]).choice(
        len(users), size=(scale.ticks, scale.arrivals_per_tick), p=weights)
    trace = [serving.Request(users[j], tick)
             for tick in range(scale.ticks) for j in picks[tick]]
    arpu = np.random.default_rng([CORPUS_SEED, 2]).lognormal(0.0, ARPU_SIGMA, len(users))
    return trace, {u: float(a) for u, a in zip(users, arpu)}


def serving_setup(scale, seed, dirs):
    build = build_index(scale, CORPUS_SEED, dirs.new())
    neural = train_neural(build, CORPUS_SEED)
    trace, arpu = make_trace(sorted(build.profiles), scale, seed)
    gens = {kind: generate_fns(build, scorer, (SERVING_BEAM,))[SERVING_BEAM]
            for kind, scorer in (("ngram", build.scorer), ("neural", neural))}
    return build, neural, trace, arpu, gens


def replay(scale, trace, arpu, gens, wrap):
    """One replay; ``wrap(kind, fn)`` instruments each generate function.
    Returns (run interval, report)."""
    policy = serving.AdmissionPolicy(arpu_of=arpu, budget_per_tick=scale.budget_per_tick)
    first, second = (wrap(kind, gens[kind]) for kind in ("ngram", "neural"))
    start = clock()
    report = serving.run_simulation(trace, first, policy, serving.WorkerPool(4),
                                    scale.ticks, scorer_swap=(scale.ticks // 2, second))
    return (start, clock()), report


def serving_replay(scale: Scale, seed: int, seconds: float, dirs: WorkDirs,
                   traced: bool) -> Outcome:
    checks = Checks()
    if traced:
        return _serving_traced(scale, seed, dirs, checks)
    spans, kinds, lists, reports, runs = [], [], [], [], []

    def timed(kind, fn):
        def generate(user_id):
            t0 = clock()
            entries = fn(user_id)
            spans.append((t0, clock()))
            kinds.append(kind)
            lists.append(entries)
            return entries
        return generate

    with Calibrator() as cal:
        (build, neural, trace, arpu, gens), setups = timed_setups(
            SETUP_REPEATS, lambda: serving_setup(scale, seed, dirs))
        start = clock()
        while len(reports) < MIN_REPLAYS or clock() - start < seconds:
            run, report = replay(scale, trace, arpu, gens, timed)
            runs.append(run)
            reports.append(report)
    for entries in lists:
        checks.op(check_list(build, entries, SERVING_BEAM))
    digest = sha256_of(reports[0])
    for report in reports:
        problems = [] if sha256_of(report) == digest else ["replay report differs"]
        if report["generation_errors"]:
            problems.append(f"{report['generation_errors']} generation errors")
        checks.op(problems)
    for scorer in (build.scorer, neural):
        check_oracle(build, scorer, seed, checks)
    first = reports[0]
    setup_s = median([cal.scale(a, b) for a, b in setups])
    latencies = [cal.scale(a, b) for a, b in spans]
    ms = [t * 1000.0 for t in latencies]
    out = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "hit_rate": (first["hit_rate"], "ratio", first["requests"]),
        "mean_staleness_ticks": (first["mean_staleness"], "ticks",
                                 round(first["hit_rate"] * first["requests"])),
        "trigger_backlog": (first["queue_lengths"][-1], "count", 1),
        "replay_decodes_per_s": (len(ms) / sum(cal.scale(a, b) for a, b in runs),
                                 "1/s", len(ms)),
        "decode_p50_ms": (median(ms), "ms", len(ms)),
        "decode_p90_ms": (pct(ms, 90), "ms", len(ms)),
        "decode_p99_ms": (pct(ms, 99), "ms", len(ms)),
    }
    for kind in ("ngram", "neural"):
        sample = [t for k, t in zip(kinds, ms) if k == kind]
        out[f"decode_p50_ms.{kind}"] = (median(sample), "ms", len(sample))
    # The gated unit is the whole replay: decode latency mixes the n-gram and
    # the neural halves half and half, so its median sits between two modes
    # and moves by a tenth with the trace.
    replays = [cal.scale(a, b) for a, b in runs]
    return _finish(Outcome(gated=gated(setup_s, replays, len(replays), sum(replays)),
                           report=out, digests={"report_sha256": digest}),
                   checks, cal=cal)


def _serving_traced(scale, seed, dirs, checks) -> Outcome:
    tracer = Tracer()
    with Calibrator() as cal:
        with instrument(tracer):
            build, _, trace, arpu, gens = serving_setup(scale, seed, dirs)
        untraced, _ = replay(scale, trace, arpu, gens, lambda kind, fn: fn)
        with instrument(tracer):
            traced, report = replay(
                scale, trace, arpu, gens,
                lambda kind, fn: tracer.wrap("serving.generate", fn,
                                             lambda a, k=kind: (a[0], k), True))
    tracer.rescale(cal.scale)
    result = layers.build_side(tracer.spans, build, builds=1)
    result.update(layers.decode_side(tracer.spans, build, "serving.generate"))
    result.update(layers.serving_side(tracer.spans, report))
    result.update(layers.trace_cost(cal.scale(*untraced), cal.scale(*traced)))
    checks.op(["decoder ran inside handle_request"]
              if result["serving.decodes_in_request_path"] else [])
    return _finish(Outcome(gated={}, report={}, digests={}, layers=result), checks, tracer)


def _finish(outcome: Outcome, checks: Checks, tracer: Tracer | None = None,
            cal: Calibrator | None = None) -> Outcome:
    outcome.attempted = checks.attempted
    outcome.failed = checks.failed
    outcome.problems = checks.problems
    if outcome.report:
        outcome.report["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        outcome.report["calibration_block_ms"] = (cal.median_block_s() * 1000.0, "ms",
                                                  len(cal.times))
        outcome.report["error_rate"] = (checks.failed / max(1, checks.attempted),
                                        "ratio", checks.attempted)
    if tracer is not None:
        outcome.layers["trace.spans"] = len(tracer.spans)
        outcome.tracer = tracer
    return outcome


WORKLOADS = {
    "offline-build": offline_build,
    "batch-generate": batch_generate,
    "serving-replay": serving_replay,
}
