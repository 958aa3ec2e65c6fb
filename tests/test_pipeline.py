import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genret import alignment, decoder, rqvae, synth
from genret import trie as trie_mod
from genret.catalog import load_catalog
from genret.embed import embed_catalog, save_embeddings
from genret.pipeline import (Manifest, PipelineConfig, PipelineError, build_generate_fn,
                             corpus_path, run_pipeline, run_train)
from genret.prompting import load_events, load_profiles
from genret.scorer import load_scorer
from genret.sid import SemanticId

SMALL = dict(
    synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 5,
               "events_per_user": 6},
    embed_dim=16,
    rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 30},
    beam_width=4,
    eval_k=(1, 4),
)


def _run(tmp_path, name, **overrides):
    kw = dict(SMALL)
    kw.update(overrides)
    config = PipelineConfig(out_dir=str(tmp_path / name), seed=kw.pop("seed", 0),
                            **kw)
    return config, run_pipeline(config)


def test_pipeline_produces_artifacts_and_report(tmp_path):
    config, report = _run(tmp_path, "run")
    out = Path(config.out_dir)
    for fname in ("embeddings.tsv", "sids.jsonl",
                  "corpus_explicit.jsonl", "corpus_main.jsonl",
                  "scorer.json", "results.jsonl", "report.json",
                  "manifest.json"):
        assert (out / fname).exists(), fname
    assert set(report["hr"]) == {1, 4}
    assert 0.0 <= report["hr"][1] <= report["hr"][4] <= 1.0
    assert report["ndcg"][4] <= report["hr"][4] + 1e-12
    assert report["codebook"]["collision_rate"] >= 0.0


def test_manifest_lists_every_stage(tmp_path):
    config, _ = _run(tmp_path, "run")
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    stages = {e["stage"] for e in manifest}
    assert stages == {"gen-data", "embed", "index", "build-corpus", "train",
                      "generate", "eval"}
    for e in manifest:
        assert len(e["sha256"]) == 64


def test_pipeline_deterministic_manifest(tmp_path):
    config_a, _ = _run(tmp_path, "a", seed=3)
    config_b, _ = _run(tmp_path, "b", seed=3)
    read = lambda c: json.loads((Path(c.out_dir) / "manifest.json").read_text())
    assert read(config_a) == read(config_b)


def test_pipeline_stage_error_attribution(tmp_path):
    with pytest.raises(PipelineError) as exc:
        _run(tmp_path, "bad", rqvae={"num_levels": 0})
    assert exc.value.stage == "index"


def test_rqvae_override_keeps_other_defaults(tmp_path, monkeypatch):
    """config.rqvae holds overrides only: an epochs-only override keeps the
    default 3 levels of 8 codes."""
    seen = []
    real_train = rqvae.train

    def recording_train(config, table):
        seen.append(config)
        return real_train(config, table)

    monkeypatch.setattr(rqvae, "train", recording_train)
    _, report = _run(tmp_path, "epochs", rqvae={"epochs": 5})
    (config,) = seen
    assert config.epochs == 5
    assert config.num_levels == 3
    assert config.codebook_size == 8
    assert len(report["codebook"]["usage_rate_per_level"]) == 3


def test_pipeline_with_dpo_and_neural(tmp_path, monkeypatch):
    """DPO aligns the scorer the train stage made; it trains none of its own."""
    orders = []
    real_train_staged = alignment.train_staged

    def recording_train_staged(*args, **kwargs):
        orders.append(kwargs.get("order"))
        return real_train_staged(*args, **kwargs)

    monkeypatch.setattr(alignment, "train_staged", recording_train_staged)
    config, report = _run(tmp_path, "dpo", scorer_kind="neural",
                          dpo_enabled=True, dpo_steps=3)
    assert orders == [alignment.STAGES]
    assert report["dpo"] is not None
    assert report["dpo"]["triplets"] > 0
    assert (Path(config.out_dir) / "dpo_policy.json").exists()


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 9, "beam_width": 3,
                                "eval_k": [1, 2]}))
    config = PipelineConfig.from_file(path)
    assert config.seed == 9
    assert config.beam_width == 3
    assert config.eval_k == (1, 2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(PipelineError):
        PipelineConfig.from_file(bad)
    # keys of deleted fields are unknown, not silently ignored
    for key, value in (("strategies", ["reuse"]), ("embed_source", "hashed")):
        bad.write_text(json.dumps({key: value}))
        with pytest.raises(PipelineError, match="unknown key"):
            PipelineConfig.from_file(bad)


def test_config_from_file_needs_an_object(tmp_path):
    path = tmp_path / "config.json"
    for value in ([["seed", 9]], 9, "seed", None):
        path.write_text(json.dumps(value))
        with pytest.raises(PipelineError, match="JSON object") as info:
            PipelineConfig.from_file(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("text", [b"not json", b'{"seed": 9}\xff'],
                         ids=["not-json", "not-utf8"])
def test_config_from_file_names_a_file_that_is_not_json(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_file(path)
    assert info.value.stage == "config"
    assert str(info.value).count(str(path)) == 1


def test_config_from_file_rejects_a_repeated_key(tmp_path):
    # json would keep the last value, seed 2, without a word
    path = tmp_path / "config.json"
    path.write_text('{"seed": 1, "seed": 2}')
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_file(path)
    assert info.value.stage == "config"
    assert str(path) in str(info.value) and "key 'seed' repeats" in str(info.value)


def test_config_tuple_fields_need_an_array(tmp_path):
    # tuple("main") would give four one-letter stages and train nothing
    path = tmp_path / "config.json"
    for key, value in (("stages", "main"), ("eval_k", 8), ("template_ids", {"0": 1})):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(PipelineError, match="JSON array") as info:
            PipelineConfig.from_file(path)
        assert str(path) in str(info.value) and repr(key) in str(info.value)
    path.write_text(json.dumps({"stages": ["main"], "eval_k": [1, 4]}))
    config = PipelineConfig.from_file(path)
    assert config.stages == ("main",) and config.eval_k == (1, 4)


@pytest.mark.parametrize("key, value, message", [
    # "false" is a true string: DPO would run
    ("dpo_enabled", "false", "must be true or false, got \"false\""),
    # true is the int 1 to Python: beam 1
    ("beam_width", True, "must be an integer, got true"),
    ("embed_dim", "16", "must be an integer, got \"16\""),
    ("dpo_steps", 2.5, "must be an integer, got 2.5"),
    ("dpo_beta", "0.1", "must be a number, got \"0.1\""),
    ("embeddings_path", 3, "must be a string or null, got 3"),
    ("synthetic", [1], "must be a JSON object, got [1]"),
])
def test_config_values_need_the_json_type_of_their_default(tmp_path, key, value,
                                                           message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_file(path)
    assert info.value.stage == "config"
    assert f"{path}: {key!r} {message}" in str(info.value)


def test_config_accepts_each_json_type(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dpo_beta": 1, "embeddings_path": None,
                                "dpo_enabled": False, "synthetic": {"ecpm_low": 2},
                                "rqvae": {"learning_rate": 0.01, "epochs": 3}}))
    config = PipelineConfig.from_file(path)
    assert config.dpo_beta == 1 and config.rqvae == {"learning_rate": 0.01, "epochs": 3}


@pytest.mark.parametrize("key, value, message", [
    ("rqvae", {"epoch": 10}, "'rqvae': unknown key 'epoch'"),
    ("rqvae", {"seed": 1}, "'rqvae' must not set 'seed'"),
    ("synthetic", {"seed": 1}, "'synthetic' must not set 'seed'"),
    ("synthetic", {"num_users": 5.0}, "'synthetic': 'num_users' must be an integer"),
    ("stages", [], "'stages' must not be empty"),
    ("template_ids", [], "'template_ids' must not be empty"),
    ("eval_k", [], "'eval_k' must not be empty"),
    ("stages", ["main", "mian"], "'stages': unknown value 'mian'"),
    ("scorer_kind", "neurl", "'scorer_kind': unknown value 'neurl'"),
    ("dpo_variant", "mystery", "'dpo_variant': unknown value 'mystery'"),
    # the default scorer is the n-gram, which DPO cannot align
    ("dpo_enabled", True, "'dpo_enabled' needs 'scorer_kind' 'neural', got 'ngram'"),
    # settings a stage would reject only after earlier stages wrote
    ("beam_width", 0, "'beam_width' must be >= 1, got 0"),
    ("eval_k", [0, 4], "'eval_k' must be >= 1, got 0"),
    ("template_ids", [7], "'template_ids': unknown value 7"),
    ("embed_dim", 4, "'embed_dim' must be >= 8, got 4"),
    ("dpo_steps", -1, "'dpo_steps' must be >= 0, got -1"),
    # json reads NaN, and a beta that is not above 0 cannot align
    ("dpo_beta", float("nan"), "'dpo_beta' must be a finite number > 0, got nan"),
])
def test_config_rejects_bad_overrides_and_empty_arrays(tmp_path, key, value, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_file(path)
    assert info.value.stage == "config" and message in str(info.value)


def test_config_takes_a_narrow_embed_dim_beside_an_embeddings_path():
    # a loaded TSV sets its own width, so only hashing needs the minimum
    assert PipelineConfig(embed_dim=4, embeddings_path="emb.tsv").embed_dim == 4


def _edited_catalog_tsv(tmp_path, case) -> tuple[str, str]:
    """The SMALL catalog hashed as a TSV with one row too many ("extra": a
    copy of the first under an id the catalog lacks) or one too few
    ("missing": the first dropped); returns (path, the message the run names
    the ad with)."""
    spec = synth.SyntheticSpec(seed=0, **SMALL["synthetic"])
    catalog = load_catalog(synth.gen_data(spec, tmp_path / "tsv_data")["catalog"])
    path = tmp_path / f"{case}.tsv"
    save_embeddings(embed_catalog(catalog, SMALL["embed_dim"], seed=0), path)
    rows = path.read_text().splitlines(keepends=True)
    first, _, vector = rows[0].partition("\t")
    if case == "extra":
        path.write_text("".join(rows) + "ghost_000\t" + vector)
        return str(path), "ad 'ghost_000' is not in the catalog"
    path.write_text("".join(rows[1:]))
    return str(path), f"catalog ad {first!r} has no embedding"


@pytest.mark.parametrize("case", ["extra", "missing"])
def test_loaded_embeddings_must_hold_exactly_the_catalog(tmp_path, case):
    """A loaded TSV with an ad the catalog lacks, or without one it has,
    fails at stage embed, naming the ad, before the embed stage writes."""
    path, message = _edited_catalog_tsv(tmp_path, case)
    with pytest.raises(PipelineError) as raised:
        _run(tmp_path, "run", embeddings_path=path)
    assert raised.value.stage == "embed"
    assert str(raised.value).endswith(f"{path}: {message}")
    assert not (tmp_path / "run" / "embeddings.tsv").exists()


@pytest.mark.parametrize("rq", [{"epoch": 10}, {"seed": 1}, {"epochs": -3},
                                {"learning_rate": 0.0}, {"learning_rate": float("nan")},
                                {"commitment_weight": -1.0}])
def test_bad_rqvae_override_fails_before_anything_is_written(tmp_path, rq):
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as info:
        run_pipeline(PipelineConfig(out_dir=str(out), rqvae=rq))
    assert info.value.stage == "index"
    assert not out.exists()


def test_one_event_per_user_fails_before_anything_is_written(tmp_path):
    """Each user's last event is held out, so one event a user leaves none
    to train on or decode from: the run fails at gen-data, not at eval
    after every stage has written."""
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as info:
        run_pipeline(PipelineConfig(out_dir=str(out), synthetic={"events_per_user": 1}))
    assert info.value.stage == "gen-data"
    assert "events_per_user 1 leaves no training event" in str(info.value)
    assert not out.exists()


def test_run_train_rejects_an_unknown_scorer_kind():
    sids = {"ad0": SemanticId((0, 1)), "ad1": SemanticId((1, 0))}
    with pytest.raises(ValueError, match="unknown scorer kind 'neurl'"):
        run_train(sids, {}, "neurl", ("main",), seed=0)


def test_generate_fn_lists_are_the_decode_entries(tmp_path):
    """At scale S, for every user, both scorers and beams 1, 4 and the whole
    inventory, a generate function's list is decode's entries without their
    S-IDs: the same ads, in the same order, with the same scores."""
    out = tmp_path / "run"
    run_pipeline(PipelineConfig(out_dir=str(out)))
    sids = rqvae.load_sids(out / "sids.jsonl")
    catalog = load_catalog(out / "data" / "catalog.jsonl")
    profiles = load_profiles(out / "data" / "profiles.jsonl")
    events = load_events(out / "data" / "events.jsonl", sids)
    ad_trie = trie_mod.build(sids)
    main = {"main": alignment.load_corpus(corpus_path(out, "main"))}
    neural, _ = run_train(sids, main, "neural", ("main",), seed=0)
    for scorer in (load_scorer(out / "scorer.json"), neural):
        for beam in (1, 4, ad_trie.ad_count):
            generate = build_generate_fn(scorer, ad_trie, catalog, profiles, events, beam)
            for uid in sorted(events):
                context = alignment.user_context(profiles[uid], events[uid], catalog)
                entries = decoder.decode(scorer, context, ad_trie, beam).entries
                got = generate(uid)
                assert got == [(a, s) for a, _, s in entries], (uid, beam)
                # results.jsonl writes each score as a JSON number
                assert all(type(score) is float for _, score in got)


def test_manifest_hash_matches_file_content(tmp_path):
    import hashlib

    path = tmp_path / "artifact.txt"
    path.write_text("hello artifact\n")
    manifest = Manifest()
    manifest.record("stage", str(path))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest.entries[0]["sha256"] == expected


# sha256 of the artifacts of a default PipelineConfig run at seeds 0 and 7.
# results.jsonl re-pinned when decode came to score a list by the product of
# its probabilities, not by the exp of a sum of logs: the same ads in the
# same order, each score within a few ulps.
GOLDEN = {
    0: {
        "embeddings.tsv": "5841e398705012015f7d90790f7e25e355f0e9d3d3ec3b8f545ed411096aa3da",
        "sids.jsonl": "2a11ff62d4cb60746316acacefe2809e54768bca775d410393bb90400030507b",
        "corpus_explicit.jsonl": "5dafedf2f0ce0d20e4054f5e4823b921a24bfeb61acfd41b384dba0474e3c8b7",
        "corpus_implicit.jsonl": "edf564870a2fa6f7e4d6c7d507d02a62267845623f94864eff340750a743b7e8",
        "corpus_main.jsonl": "193cce0136fa228ec36b3ccfdff2db8f6053ad02b055d4afc08605c53eb94696",
        "scorer.json": "7b6c0ccbe2af26f6d2b5ddf8caacf5099a254ef2e3f8ffe2baff7e68c09f8399",
        "results.jsonl": "7d5e384c1af3e8f07b38b8fb5086e78942f6eb809807a729c60d2a54a659663f",
    },
    7: {
        "embeddings.tsv": "411f2588f171dc27eaabe329451b3bde165f94b94262df561cc4ffeed7b8c31f",
        "sids.jsonl": "8109a11859477415bdb617f57090a6183e325dc47341971665940b7042b24853",
        "corpus_explicit.jsonl": "4f4fa1a01f582bd4e2d0576f7df52683b13f8dd1a50d900bb0a0a882f452b14e",
        "corpus_implicit.jsonl": "bf496b05b5b0e8d311688c720d1981943b0c21c5eee8d7281131e3599e3c7f06",
        "corpus_main.jsonl": "4650b9bbcdbd6cb48c42cd0c80013e8fd8fa8e176e87967ebb5a4ee248226807",
        "scorer.json": "637f115bd6ef4efd24c09093f3b602513c8b764b1d21fe50589b70a1e22a8500",
        "results.jsonl": "a99860066b31ca375b0bf7bc453a46be0943ec4189cc2215f524d7fa2bbd8ff7",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_default_artifacts_match_golden_digests(tmp_path, seed):
    """The default pipeline's artifacts keep their bytes, so a speed-up
    cannot move an output unnoticed. A change that moves one of these on
    purpose updates the digest here and says why in CHANGES.md."""
    out = tmp_path / f"seed{seed}"
    run_pipeline(PipelineConfig(out_dir=str(out), seed=seed))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[seed]}
    assert digests == GOLDEN[seed]


def test_default_results_hold_without_avx512_loops(tmp_path):
    """The lists do not depend on numpy's SIMD loops: decode takes no
    logarithm, and a product of probabilities rounds alike on every host.
    A default run at seed 0 in a child process with numpy's AVX-512 loops
    off gives the golden results.jsonl."""
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    code = ("import sys; from genret.pipeline import PipelineConfig, run_pipeline; "
            "run_pipeline(PipelineConfig(out_dir=sys.argv[1], seed=0))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((tmp_path / "results.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN[0]["results.jsonl"]


# sha256 of the neural + DPO artifacts of the SMALL config at seed 0.
# Re-pinned when fine-tuning moved from one step per pair to minibatches of
# alignment.TRAIN_BATCH pairs and a DPO step to chunked batched passes, and
# results.jsonl again when decode came to score by products.
NEURAL_GOLDEN = {
    "scorer.json": "e2729f5b885e45172571b4ecd4d43c22ded56499143cc5123ce7bcb2d9b6c2ac",
    "dpo_policy.json": "dbb4619d847ae81715b6f291d0fba94ecc8e3fda1834c6787107fe63349b128c",
    "results.jsonl": "8143635735b20def2e5305bc87116bc2785c17c59893f92f0f02e2e0e421a5bc",
}


def test_neural_dpo_artifacts_match_golden_digests(tmp_path):
    """Neural training and DPO keep their bytes: the trained scorer, the
    aligned policy and the lists it serves. A change that moves one of
    these on purpose updates the digest here and says why in CHANGES.md."""
    config, _ = _run(tmp_path, "neural", scorer_kind="neural", dpo_enabled=True,
                     dpo_steps=2)
    out = Path(config.out_dir)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in NEURAL_GOLDEN}
    assert digests == NEURAL_GOLDEN
