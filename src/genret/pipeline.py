"""One function per pipeline stage, shared by the CLI subcommands and by
run_pipeline, which chains them and records a content-hash manifest."""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field, asdict

from . import alignment, decoder, jsonl, metrics, rqvae, synth, trie as trie_mod
from .catalog import load_catalog
from .embed import MIN_HASHED_DIM, embed_catalog, load_embeddings, save_embeddings
from .prompting import TEMPLATE_IDS, load_events, load_profiles
from .scorer import NgramScorer, NeuralScorer
from .vocab import UNK, vocab_from_sids


SCORER_KINDS = ("ngram", "neural")


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
    stages: tuple = alignment.STAGES
    template_ids: tuple = (0,)
    dpo_enabled: bool = False
    dpo_beta: float = 0.1
    dpo_variant: str = "log-ratio"
    dpo_steps: int = 20
    beam_width: int = 8
    eval_k: tuple = (1, 4, 8)

    def __post_init__(self):
        """Raise PipelineError("config") for a setting that no stage can
        run, so a bad config fails before any stage writes."""
        with _stage("config"):
            for key in ("stages", "template_ids", "eval_k"):
                if not getattr(self, key):
                    raise ValueError(f"{key!r} must not be empty")
            named = [("stages", stage, alignment.STAGES) for stage in self.stages]
            named += [("scorer_kind", self.scorer_kind, SCORER_KINDS),
                      ("dpo_variant", self.dpo_variant, alignment.DPO_VARIANTS)]
            named += [("template_ids", tid, TEMPLATE_IDS) for tid in self.template_ids]
            for key, name, allowed in named:
                if name not in allowed:
                    raise ValueError(f"{key!r}: unknown value {name!r}; "
                                     f"expected one of {allowed}")
            low = [("beam_width", self.beam_width, 1), ("dpo_steps", self.dpo_steps, 0)]
            low += [("eval_k", k, 1) for k in self.eval_k]
            if self.embeddings_path is None:  # a loaded TSV sets its own width
                low.append(("embed_dim", self.embed_dim, MIN_HASHED_DIM))
            for key, value, least in low:
                if value < least:
                    raise ValueError(f"{key!r} must be >= {least}, got {value}")
            # beta 0 leaves the policy where it is, and a negative one steps
            # it away from the preferred ads
            if not (math.isfinite(self.dpo_beta) and self.dpo_beta > 0):
                raise ValueError(f"'dpo_beta' must be a finite number > 0, "
                                 f"got {self.dpo_beta}")
            # DPO aligns the scorer the train stage made, and only the
            # neural scorer has the gradients it steps on
            if self.dpo_enabled and self.scorer_kind != "neural":
                raise ValueError(f"'dpo_enabled' needs 'scorer_kind' 'neural', "
                                 f"got {self.scorer_kind!r}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """The defaults overridden by the JSON object in path. A file that is
        not UTF-8 JSON, a key that names no field, a value of another JSON
        type than its field's default, a nested synthetic or rqvae override
        that does the same or sets the seed (the top-level seed sets it), and
        any setting __post_init__ rejects raise PipelineError("config")."""
        try:
            obj = jsonl.load(path)
            # tuple("main") would be four stages of one letter each, so a
            # tuple field takes only an array
            jsonl.check(obj, jsonl.fields_spec(cls()), path)
            for key, defaults in (("synthetic", synth.SyntheticSpec()),
                                  ("rqvae", rqvae.RqVaeConfig())):
                if "seed" in obj.get(key, {}):
                    raise ValueError(f"{path}: {key!r} must not set 'seed'; "
                                     f"the top-level 'seed' sets it")
                jsonl.check(obj.get(key, {}), jsonl.fields_spec(defaults),
                            f"{path}: {key!r}")
            return cls(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in obj.items()})
        except ValueError as exc:
            raise PipelineError("config", exc) from exc


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
        jsonl.dump(path, self.entries, indent=1)


def build_generate_fn(scorer, ad_trie, catalog, profiles, events_by_user,
                      beam_width: int):
    """Closure mapping a user id to its (ad_id, score) pairs in rank order."""

    def generate(user_id: str, events=None):
        events = events_by_user.get(user_id, []) if events is None else events
        context = alignment.user_context(profiles[user_id], events, catalog)
        return decoder.decode(scorer, context, ad_trie, beam_width).pairs

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
    """Hash-embed the catalog at width dim, or load embeddings_path, which
    must hold exactly the catalog's ads, and save the table to out_path."""
    if embeddings_path is None:
        table = embed_catalog(catalog, dim, seed)
    else:
        table = load_embeddings(embeddings_path)
        if ad_id := next((a for a in table.entries if a not in catalog), None):
            raise ValueError(f"{embeddings_path}: ad {ad_id!r} is not in the catalog")
        if ad_id := next((ad.ad_id for ad in catalog if ad.ad_id not in table), None):
            raise ValueError(f"{embeddings_path}: catalog ad {ad_id!r} has no embedding")
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


def _check_profiles(profiles, users) -> None:
    """Raise naming the first of users that has no profile."""
    for uid in users:
        if uid not in profiles:
            raise ValueError(f"unknown user {uid!r}: no profile")


def run_build_corpus(catalog, sids, profiles, events_by_user, out_dir, template_ids):
    """Build the staged corpora and save each as corpus_path(out_dir, stage);
    a user without a profile fails before anything is written."""
    _check_profiles(profiles, sorted(events_by_user))
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
    elif scorer_kind == "ngram":
        scorer = NgramScorer(vocab)
    else:
        raise ValueError(f"unknown scorer kind {scorer_kind!r}; "
                         f"expected one of {SCORER_KINDS}")
    scorer, stage_log = alignment.train_staged(scorer, corpora, order=stages, seed=seed)
    if out_path is not None:
        scorer.save(out_path)
    return scorer, stage_log


def _check_vocabulary(scorer, sids) -> None:
    """Raise naming the first S-ID token of sids, in ad-id order, that the
    scorer's vocabulary lacks: the scorer would read it as <unk>."""
    unk = scorer.vocab.lookup(UNK)
    for ad_id in sorted(sids):
        for token in sids[ad_id].tokens():
            if scorer.vocab.lookup(token) == unk:
                raise ValueError(f"S-ID token {token!r} of ad {ad_id!r} "
                                 f"is not in the scorer's vocabulary")


def run_dpo(policy, catalog, sids, profiles, events_by_user, out_path, beta: float,
            variant: str, steps: int,
            learning_rate: float = alignment.DPO_LEARNING_RATE) -> dict:
    """Align policy in place by DPO against a frozen copy of it, on
    ECPM-ordered triplets over each user's candidates, the first four logged
    ad events that have an S-ID and a catalog entry, and save it to
    out_path; returns the triplet count, the preference margin before and
    after, and the final loss. A user without a profile, or an S-ID token
    the policy lacks, fails before anything is written."""
    if not isinstance(policy, NeuralScorer):
        raise TypeError(f"DPO needs a neural scorer, got {type(policy).__name__}")
    _check_profiles(profiles, sorted(events_by_user))
    _check_vocabulary(policy, sids)
    users = []
    for uid, events in sorted(events_by_user.items()):
        ads = [(e.sid, catalog.get(e.ad_id).ecpm) for e in events
               if e.domain == "ad" and e.sid is not None and e.ad_id in catalog]
        users.append((alignment.user_context(profiles[uid], events, catalog), ads[:4]))
    triplets = alignment.build_preference_triplets(users)
    reference = policy.copy()
    before = alignment.preference_margin(policy, triplets)
    _, losses = alignment.dpo_update(
        policy, reference, triplets, beta, learning_rate=learning_rate,
        steps=steps, variant=variant)
    after = alignment.preference_margin(policy, triplets)
    policy.save(out_path)
    return {"triplets": len(triplets), "margin_before": before,
            "margin_after": after, "final_loss": losses[-1] if losses else 0.0}


def run_generate(scorer, sids, catalog, profiles, events_by_user, users,
                 beam_width: int, out_path) -> None:
    """Decode a list per user over the trie of sids and write them to
    out_path as JSON lines. A user without a profile, or an S-ID token the
    scorer lacks, fails before anything is written."""
    _check_profiles(profiles, users)
    _check_vocabulary(scorer, sids)
    generate = build_generate_fn(scorer, trie_mod.build(sids), catalog, profiles,
                                 events_by_user, beam_width)
    jsonl.write(out_path, ({"user_id": uid, "ad_id": ad_id, "score": score}
                           for uid in users for ad_id, score in generate(uid)))


# a results line: one retrieved ad of a user's list, in rank order
RESULT_RECORD = jsonl.spec(user_id=jsonl.ID, ad_id=jsonl.ID, score=jsonl.NUMBER)


def load_results(path) -> dict[str, list[str]]:
    """Retrieved ad_ids per user, in rank order, from a results JSONL."""
    retrieved: dict[str, list[str]] = {}
    for uid, ad_id in jsonl.read(path, lambda obj: (obj["user_id"], obj["ad_id"]),
                                 jsonl.JsonlError, RESULT_RECORD):
        retrieved.setdefault(uid, []).append(ad_id)
    return retrieved


def run_eval(retrieved, truth, catalog, ltr_labels, ks) -> dict:
    """HR and NDCG at each k, diversity, and LTR recall when labels exist.

    Diversity is taken at max(ks) capped by the longest retrieved list:
    metrics.diversity normalises abundance by k-1, so ranks that no list
    has would lower the score. A retrieved ad that the catalog lacks fails,
    naming its user."""
    cat_of = {ad.ad_id: ad.first_category for ad in catalog}
    for uid, ads in sorted(retrieved.items()):
        if ad_id := next((a for a in ads if a not in cat_of), None):
            raise ValueError(f"user {uid!r}: retrieved ad {ad_id!r} is not in the catalog")
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
    # each stage's settings are built before any stage writes
    with _stage("gen-data"):
        spec = synth.SyntheticSpec(seed=config.seed, **config.synthetic)
    with _stage("index"):
        rq_config = rqvae.RqVaeConfig(seed=config.seed, **config.rqvae)
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    manifest = Manifest()

    with _stage("gen-data"):
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
            # aligns the scorer in place: scorer.json keeps the snapshot from
            # before, and the aligned scorer is the one generate decodes with
            policy_path = os.path.join(out, "dpo_policy.json")
            dpo = run_dpo(scorer, catalog, sids, profiles, events_by_user, policy_path,
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
        jsonl.dump(report_path, report, indent=1)
        manifest.record("eval", report_path)

    manifest.save(os.path.join(out, "manifest.json"))
    return report
