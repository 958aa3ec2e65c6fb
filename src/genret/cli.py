"""Command-line entry point wiring all stages into reproducible runs."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import alignment, rqvae, serving, synth
from .catalog import load_catalog
from .embed import load_embeddings
from .pipeline import (PipelineConfig, corpus_path, load_results, run_build_corpus,
                       run_dpo, run_embed, run_eval, run_generate, run_index,
                       run_pipeline, run_train)
from .prompting import load_events, load_profiles
from .scorer import load_scorer

log = logging.getLogger("genret")


def _cmd_gen_data(args):
    spec = synth.SyntheticSpec(
        num_categories=args.categories, ads_per_category=args.ads_per_category,
        num_users=args.users, events_per_user=args.events_per_user,
        seed=args.seed)
    paths = synth.gen_data(spec, args.out)
    print(json.dumps(paths, indent=1))


def _cmd_embed(args):
    table = run_embed(load_catalog(args.catalog), args.out, args.dim, args.seed)
    log.info("embedded %d ads at dimension %d", len(table), args.dim)


def _cmd_index(args):
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = rqvae.RqVaeConfig(**json.load(fh))
    else:
        cfg = rqvae.RqVaeConfig(num_levels=args.levels, codebook_size=args.codebook_size,
                                latent_dim=args.latent_dim, epochs=args.epochs,
                                seed=args.seed)
    _, codebook, _ = run_index(load_embeddings(args.embeddings), cfg, args.out)
    print(json.dumps(codebook))


def _cmd_build_corpus(args):
    sids = rqvae.load_sids(args.sids)
    corpora = run_build_corpus(
        load_catalog(args.catalog), sids, load_profiles(args.profiles),
        load_events(args.events, sids), args.out,
        [int(t) for t in args.templates.split(",")])
    print(json.dumps({name: len(pairs) for name, pairs in corpora.items()}))


def _cmd_train(args):
    stages = args.stages.split(",")
    corpora = {stage: alignment.load_corpus(corpus_path(args.corpus_dir, stage))
               for stage in stages}
    _, stage_log = run_train(rqvae.load_sids(args.sids), corpora, args.scorer, stages,
                             args.seed, args.out)
    print(json.dumps(stage_log))


def _cmd_dpo(args):
    sids = rqvae.load_sids(args.sids)
    print(json.dumps(run_dpo(load_scorer(args.policy), load_catalog(args.catalog), sids,
                             load_profiles(args.profiles), load_events(args.events, sids),
                             args.out, args.beta, args.variant, args.steps,
                             args.learning_rate)))


def _cmd_generate(args):
    sids = rqvae.load_sids(args.sids)
    events = load_events(args.events, sids)
    run_generate(load_scorer(args.scorer), sids, load_catalog(args.catalog),
                 load_profiles(args.profiles), events,
                 [args.user] if args.user else sorted(events), args.beam, args.out)


def _cmd_eval(args):
    ltr = synth.load_ltr_labels(args.ltr_labels) if args.ltr_labels else {}
    report = run_eval(load_results(args.results), synth.load_truth(args.truth),
                      load_catalog(args.catalog), ltr,
                      [int(k) for k in args.k.split(",")])
    print(json.dumps(report, indent=1))


def _cmd_simulate(args):
    trace = serving.load_trace(args.trace)
    users = sorted({r.user_id for r in trace})
    policy = serving.AdmissionPolicy(
        arpu_of={u: float(i) for i, u in enumerate(users)},
        budget_per_tick=args.budget)
    pool = serving.WorkerPool(args.workers)
    inventory = tuple(f"ad_{i}" for i in range(8))

    def generate_fn(user_id):
        return inventory

    report = serving.run_simulation(trace, generate_fn, policy, pool, args.ticks)
    print(json.dumps(report, indent=1))


def _cmd_pipeline(args):
    if args.config:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    if args.dpo:
        config.dpo_enabled = True
    report = run_pipeline(config)
    print(json.dumps(report, indent=1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genret")
    defaults, spec = PipelineConfig(), synth.SyntheticSpec()
    parser.add_argument("--verbose", action="store_true",
                        help="structured logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--categories", type=int, default=spec.num_categories)
    p.add_argument("--ads-per-category", type=int, default=spec.ads_per_category)
    p.add_argument("--users", type=int, default=spec.num_users)
    p.add_argument("--events-per-user", type=int, default=spec.events_per_user)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("embed", help="embed catalog descriptions")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=defaults.embed_dim)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("index", help="train the quantizer and assign S-IDs")
    p.add_argument("--config", help="JSON quantizer config file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    rq = rqvae.RqVaeConfig()
    p.add_argument("--levels", type=int, default=rq.num_levels)
    p.add_argument("--codebook-size", type=int, default=rq.codebook_size)
    p.add_argument("--latent-dim", type=int, default=rq.latent_dim)
    p.add_argument("--epochs", type=int, default=rq.epochs)
    p.add_argument("--seed", type=int, default=rq.seed)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("build-corpus", help="render staged training corpora")
    p.add_argument("--catalog", required=True)
    p.add_argument("--sids", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--templates", default=",".join(map(str, defaults.template_ids)))
    p.set_defaults(fn=_cmd_build_corpus)

    p = sub.add_parser("train", help="staged scorer training")
    p.add_argument("--sids", required=True)
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--stages", default=",".join(defaults.stages))
    p.add_argument("--scorer", choices=("ngram", "neural"), default=defaults.scorer_kind)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("dpo", help="preference-align a neural scorer")
    p.add_argument("--policy", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--sids", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--beta", type=float, default=defaults.dpo_beta)
    p.add_argument("--variant", choices=("prob-ratio", "log-ratio"),
                   default=defaults.dpo_variant)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=defaults.dpo_steps)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dpo)

    p = sub.add_parser("generate", help="constrained-decode retrieval lists")
    p.add_argument("--scorer", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--sids", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--user")
    p.add_argument("--beam", type=int, default=defaults.beam_width)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("eval", help="score retrieval results")
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--ltr-labels")
    p.add_argument("--k", default=",".join(map(str, defaults.eval_k)))
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("simulate", help="run the serving simulator")
    p.add_argument("--trace", required=True)
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--ticks", type=int, default=100)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--dpo", action="store_true")
    p.set_defaults(fn=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s")
    try:
        args.fn(args)
    except Exception as exc:  # machine-readable failure object
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
