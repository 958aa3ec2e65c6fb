"""One function per pipeline stage, shared by the CLI subcommands and by
run_pipeline, which chains them and records a content-hash manifest."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

from . import alignment, decoder, jsonl, metrics, rqvae, synth, trie as trie_mod
from .catalog import load_catalog
from .embed import embed_catalog, load_embeddings, save_embeddings
from .prompting import load_events, load_profiles
from .scorer import NgramScorer, NeuralScorer
from .vocab import vocab_from_sids


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    out_dir: str = "pipeline_out"
    seed: int = 0
    synthetic: dict = field(default_factory=dict)
    embed_dim: int = 32  # hashed width; a loaded TSV sets its own width
    embeddings_path: str | None = None  # a TSV to load in place of hashing
    rqvae: dict = field(default_factory=dict)  # overrides of RqVaeConfig
    scorer_kind: str = "ngram"
    stages: tuple = ("explicit", "implicit", "main")
    template_ids: tuple = (0,)
    dpo_enabled: bool = False
    dpo_beta: float = 0.1
    dpo_variant: str = "log-ratio"
    dpo_steps: int = 20
    beam_width: int = 8
    eval_k: tuple = (1, 4, 8)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        cfg = cls()
        for key, value in obj.items():
            if not hasattr(cfg, key):
                raise PipelineError("config", ValueError(f"unknown key {key!r}"))
            setattr(cfg, key, tuple(value) if isinstance(getattr(cfg, key), tuple) else value)
        return cfg


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self):
        self.entries: list[dict] = []

    def record(self, stage: str, *paths: str) -> None:
        for path in paths:
            self.entries.append({
                "stage": stage,
                "file": os.path.basename(path),
                "sha256": _sha256(path),
            })

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=1)


def build_generate_fn(scorer, ad_trie, catalog, profiles, events_by_user,
                      beam_width: int):
    """Closure mapping a user id to an ordered retrieved ad_id list."""

    def generate(user_id: str, events=None):
        events = events_by_user.get(user_id, []) if events is None else events
        context = alignment.user_context(profiles[user_id], events, catalog)
        result = decoder.decode(scorer, context, ad_trie, beam_width)
        return [(ad_id, float(score)) for ad_id, _, score in result.entries]

    return generate


@contextlib.contextmanager
def _stage(name: str):
    """Attribute any failure inside the block to pipeline stage name."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def corpus_path(out_dir, stage: str) -> str:
    return os.path.join(out_dir, f"corpus_{stage}.jsonl")


def run_embed(catalog, out_path, dim: int, seed: int, embeddings_path=None):
    """Hash-embed the catalog at width dim, or load embeddings_path when one
    is given, and save the table to out_path."""
    if embeddings_path is not None:
        table = load_embeddings(embeddings_path)
    else:
        table = embed_catalog(catalog, dim, seed)
    save_embeddings(table, out_path)
    return table


def run_index(table, rq_config: rqvae.RqVaeConfig, out_dir):
    """Train the quantizer, assign S-IDs and save them as out_dir/sids.jsonl;
    returns (sids, codebook report, sids path)."""
    model = rqvae.train(rq_config, table)
    sids = rqvae.assign_sids(model, table)
    os.makedirs(out_dir, exist_ok=True)
    sids_path = os.path.join(out_dir, "sids.jsonl")
    rqvae.save_sids(sids, sids_path)
    collision_rate, max_collision, usage = rqvae.codebook_metrics(sids, rq_config)
    codebook = {"collision_rate": collision_rate, "max_collision": max_collision,
                "usage_rate_per_level": usage}
    return sids, codebook, sids_path


def run_build_corpus(catalog, sids, profiles, events_by_user, out_dir, template_ids):
    """Build the staged corpora and save each as corpus_path(out_dir, stage)."""
    corpora = alignment.build_stage_corpora(
        catalog, sids, profiles, events_by_user, template_ids=template_ids)
    os.makedirs(out_dir, exist_ok=True)
    for name, pairs in corpora.items():
        alignment.save_corpus(pairs, corpus_path(out_dir, name))
    return corpora


def run_train(sids, corpora, scorer_kind: str, stages, seed: int, out_path=None):
    """Train a fresh scorer over the S-ID vocabulary on corpora in stage
    order, saving it to out_path when one is given. Returns (scorer, stage_log)."""
    vocab = vocab_from_sids(sids)
    if scorer_kind == "neural":
        scorer = NeuralScorer(vocab=vocab, seed=seed)
    else:
        scorer = NgramScorer(vocab)
    scorer, stage_log = alignment.train_staged(scorer, corpora, order=stages, seed=seed)
    if out_path is not None:
        scorer.save(out_path)
    return scorer, stage_log


def run_dpo(policy, catalog, sids, profiles, events_by_user, out_path, beta: float,
            variant: str, steps: int, learning_rate: float = 0.01) -> dict:
    """DPO against a frozen copy of policy on ECPM-ordered triplets over each
    user's first four logged ad events; saves the aligned policy."""
    if not isinstance(policy, NeuralScorer):
        raise TypeError(f"DPO needs a neural scorer, got {type(policy).__name__}")
    users = []
    for uid, events in sorted(events_by_user.items()):
        ads = [(sids[e.ad_id], catalog.get(e.ad_id).ecpm) for e in events
               if e.domain == "ad" and e.ad_id in catalog and e.ad_id in sids]
        users.append((alignment.user_context(profiles[uid], events, catalog), ads[:4]))
    triplets = alignment.build_preference_triplets(users)
    reference = policy.copy()
    before = alignment.preference_margin(policy, triplets)
    policy, losses = alignment.dpo_update(
        policy, reference, triplets, beta, learning_rate=learning_rate,
        steps=steps, variant=variant)
    after = alignment.preference_margin(policy, triplets)
    policy.save(out_path)
    return {"triplets": len(triplets), "margin_before": before,
            "margin_after": after, "final_loss": losses[-1] if losses else 0.0}


def run_generate(scorer, sids, catalog, profiles, events_by_user, users,
                 beam_width: int, out_path) -> None:
    """Decode a list per user over the trie of sids and write them to
    out_path as JSON lines."""
    generate = build_generate_fn(scorer, trie_mod.build(sids), catalog, profiles,
                                 events_by_user, beam_width)
    jsonl.write(out_path, ({"user_id": uid, "ad_id": ad_id, "score": score}
                           for uid in users for ad_id, score in generate(uid)))


def load_results(path) -> dict[str, list[str]]:
    """Retrieved ad_ids per user, in rank order, from a results JSONL."""
    retrieved: dict[str, list[str]] = {}
    for uid, ad_id in jsonl.read(path, lambda obj: (obj["user_id"], obj["ad_id"])):
        retrieved.setdefault(uid, []).append(ad_id)
    return retrieved


def run_eval(retrieved, truth, catalog, ltr_labels, ks) -> dict:
    """HR and NDCG at each k, diversity, and LTR recall when labels exist.

    Diversity is taken at max(ks) capped by the longest retrieved list:
    metrics.diversity normalises abundance by k-1, so ranks that no list
    has would lower the score."""
    cat_of = {ad.ad_id: ad.first_category for ad in catalog}
    records = [metrics.EvalRecord(user_id=uid, retrieved=ads, truth=truth[uid],
                                  categories=cat_of, ltr_labels=ltr_labels.get(uid))
               for uid, ads in sorted(retrieved.items()) if uid in truth]
    report = {"hr": {k: metrics.hit_ratio(records, k) for k in ks},
              "ndcg": {k: metrics.ndcg(records, k) for k in ks if k > 1}}
    depth = min(max(ks), max(len(r.retrieved) for r in records))
    concentration, abundance, score = metrics.diversity(records, depth)
    report["diversity"] = {"concentration": concentration,
                           "abundance": abundance, "score": score}
    if ltr_labels:
        mean, excluded = metrics.ltrr(records, max(ks))
        report["ltrr"] = {max(ks): mean, "excluded_users": excluded}
    return report


def run_pipeline(config: PipelineConfig) -> dict:
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    manifest = Manifest()

    with _stage("gen-data"):
        spec = synth.SyntheticSpec(seed=config.seed, **config.synthetic)
        data_paths = synth.gen_data(spec, os.path.join(out, "data"))
        manifest.record("gen-data", *data_paths.values())
        catalog = load_catalog(data_paths["catalog"])
        profiles = load_profiles(data_paths["profiles"])
        truth = synth.load_truth(data_paths["truth"])
        ltr_labels = synth.load_ltr_labels(data_paths["ltr_labels"])

    with _stage("embed"):
        emb_path = os.path.join(out, "embeddings.tsv")
        table = run_embed(catalog, emb_path, config.embed_dim, config.seed,
                          config.embeddings_path)
        manifest.record("embed", emb_path)

    with _stage("index"):
        rq_config = rqvae.RqVaeConfig(seed=config.seed, **config.rqvae)
        sids, codebook, sids_path = run_index(table, rq_config, out)
        manifest.record("index", sids_path)

    with _stage("build-corpus"):
        events_by_user = load_events(data_paths["events"], sids)
        corpora = run_build_corpus(catalog, sids, profiles, events_by_user, out,
                                   config.template_ids)
        manifest.record("build-corpus", *(corpus_path(out, name) for name in corpora))

    with _stage("train"):
        scorer_path = os.path.join(out, "scorer.json")
        scorer, _ = run_train(sids, corpora, config.scorer_kind, config.stages,
                              config.seed, scorer_path)
        manifest.record("train", scorer_path)

    dpo_report = None
    if config.dpo_enabled:
        with _stage("dpo"):
            policy, _ = run_train(sids, corpora, "neural", ("main",), config.seed)
            policy_path = os.path.join(out, "dpo_policy.json")
            dpo = run_dpo(policy, catalog, sids, profiles, events_by_user, policy_path,
                          config.dpo_beta, config.dpo_variant, config.dpo_steps)
            manifest.record("dpo", policy_path)
            dpo_report = {k: dpo[k] for k in ("triplets", "margin_before", "margin_after")}

    with _stage("generate"):
        results_path = os.path.join(out, "results.jsonl")
        run_generate(scorer, sids, catalog, profiles, events_by_user,
                     sorted(events_by_user), config.beam_width, results_path)
        manifest.record("generate", results_path)

    with _stage("eval"):
        report = run_eval(load_results(results_path), truth, catalog, ltr_labels,
                          config.eval_k)
        report["codebook"] = codebook
        report["dpo"] = dpo_report
        # out_dir is a location, not content; keeping it out makes the
        # report byte-identical across runs that differ only in location
        report["config"] = {k: list(v) if isinstance(v, tuple) else v
                            for k, v in asdict(config).items() if k != "out_dir"}
        report_path = os.path.join(out, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        manifest.record("eval", report_path)

    manifest.save(os.path.join(out, "manifest.json"))
    return report
