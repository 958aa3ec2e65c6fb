import json
from pathlib import Path

import pytest

from genret import rqvae
from genret.pipeline import (Manifest, PipelineConfig, PipelineError,
                             run_pipeline)

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


def test_pipeline_seed_changes_outputs(tmp_path):
    config_a, _ = _run(tmp_path, "a", seed=0)
    config_b, _ = _run(tmp_path, "b", seed=1)
    hash_of = lambda c: {e["file"]: e["sha256"]
                         for e in json.loads((Path(c.out_dir) / "manifest.json").read_text())}
    assert hash_of(config_a)["results.jsonl"] != hash_of(config_b)["results.jsonl"]


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


def test_pipeline_with_dpo_and_neural(tmp_path):
    config, report = _run(tmp_path, "dpo", scorer_kind="neural",
                          dpo_enabled=True, dpo_steps=3)
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


def test_manifest_hash_matches_file_content(tmp_path):
    import hashlib

    path = tmp_path / "artifact.txt"
    path.write_text("hello artifact\n")
    manifest = Manifest()
    manifest.record("stage", str(path))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest.entries[0]["sha256"] == expected
