import hashlib
import json
from pathlib import Path

import pytest

from genret.cli import build_parser, main
from genret.pipeline import PipelineConfig, run_pipeline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_data_and_full_stage_chain(tmp_path, capsys):
    data = tmp_path / "data"
    code, out, _ = run_cli(capsys, "gen-data", "--out", str(data),
                           "--categories", "2", "--ads-per-category", "4",
                           "--users", "4", "--events-per-user", "6")
    assert code == 0
    paths = json.loads(out)
    assert Path(paths["catalog"]).exists()

    emb = tmp_path / "emb.tsv"
    code, _, _ = run_cli(capsys, "embed", "--catalog", paths["catalog"],
                         "--out", str(emb), "--dim", "16")
    assert code == 0 and emb.exists()

    idx = tmp_path / "index"
    code, out, _ = run_cli(capsys, "index", "--embeddings", str(emb),
                           "--out", str(idx),
                           "--levels", "2", "--codebook-size", "4",
                           "--latent-dim", "4", "--epochs", "20")
    assert code == 0
    stats = json.loads(out)
    assert 0.0 <= stats["collision_rate"] <= 1.0
    sids = idx / "sids.jsonl"

    corpus = tmp_path / "corpus"
    code, out, _ = run_cli(capsys, "build-corpus", "--catalog",
                           paths["catalog"], "--sids", str(sids),
                           "--profiles", paths["profiles"],
                           "--events", paths["events"], "--out", str(corpus))
    assert code == 0
    counts = json.loads(out)
    assert counts["explicit"] == 8

    scorer_path = tmp_path / "scorer.json"
    code, out, _ = run_cli(capsys, "train", "--sids", str(sids),
                           "--corpus-dir", str(corpus),
                           "--out", str(scorer_path))
    assert code == 0
    log = json.loads(out)
    assert [e["stage"] for e in log] == ["explicit", "implicit", "main"]

    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "generate", "--scorer", str(scorer_path),
                         "--catalog", paths["catalog"], "--sids", str(sids),
                         "--profiles", paths["profiles"],
                         "--events", paths["events"], "--beam", "4",
                         "--out", str(results))
    assert code == 0
    rows = [json.loads(l) for l in results.read_text().splitlines()]
    assert rows and all({"user_id", "ad_id", "score"} <= set(r) for r in rows)

    code, out, _ = run_cli(capsys, "eval", "--results", str(results),
                           "--truth", paths["truth"], "--catalog",
                           paths["catalog"], "--ltr-labels",
                           paths["ltr_labels"], "--k", "1,4")
    assert code == 0
    report = json.loads(out)
    assert set(report["hr"]) == {"1", "4"} or set(report["hr"]) == {1, 4}
    assert "ltrr" in report


def test_cli_chain_reproduces_pipeline_run(tmp_path, capsys):
    """The subcommands run the pipeline's stage functions, so a CLI chain with
    a run's settings rebuilds its artifacts byte for byte and `eval` on its
    results.jsonl gives the run's report.json metrics."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 5,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 30},
        beam_width=4, eval_k=(1, 4, 8)))

    def cli(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    out = tmp_path / "cli"
    data = json.loads(cli("gen-data", "--out", str(out / "data"), "--categories", "2",
                          "--ads-per-category", "4", "--users", "5",
                          "--events-per-user", "6", "--seed", "5"))
    common = ("--catalog", data["catalog"], "--sids", str(out / "sids.jsonl"),
              "--profiles", data["profiles"], "--events", data["events"])
    cli("embed", "--catalog", data["catalog"], "--out", str(out / "embeddings.tsv"),
        "--dim", "16", "--seed", "5")
    cli("index", "--embeddings", str(out / "embeddings.tsv"),
        "--out", str(out), "--levels", "2", "--codebook-size", "4",
        "--latent-dim", "4", "--epochs", "30", "--seed", "5")
    cli("build-corpus", *common, "--out", str(out))
    cli("train", "--sids", str(out / "sids.jsonl"), "--corpus-dir", str(out),
        "--out", str(out / "scorer.json"), "--seed", "5")
    cli("generate", "--scorer", str(out / "scorer.json"), *common, "--beam", "4",
        "--out", str(out / "results.jsonl"))
    report = json.loads(cli("eval", "--results", str(out / "results.jsonl"),
                            "--truth", data["truth"], "--catalog", data["catalog"],
                            "--ltr-labels", data["ltr_labels"], "--k", "1,4,8"))

    produced = {p.name: p for p in out.rglob("*")}
    manifest = json.loads((run / "manifest.json").read_text())
    for entry in manifest:
        if entry["file"] != "report.json":
            digest = hashlib.sha256(produced[entry["file"]].read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["file"]
    expected = json.loads((run / "report.json").read_text())
    for key in ("hr", "ndcg", "diversity", "ltrr"):
        assert report[key] == expected[key], key


def test_cli_chain_reproduces_dpo_run(tmp_path, capsys):
    """`genret dpo` builds its triplets from the logged events as run_pipeline
    does, so a CLI chain reproduces a DPO run's artifacts, dpo_policy.json
    included, and its report's dpo entry."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 5,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 30},
        beam_width=4, dpo_enabled=True, dpo_steps=3))

    def cli(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    out = tmp_path / "cli"
    sids = str(out / "sids.jsonl")
    data = json.loads(cli("gen-data", "--out", str(out / "data"), "--categories", "2",
                          "--ads-per-category", "4", "--users", "5",
                          "--events-per-user", "6", "--seed", "5"))
    common = ("--catalog", data["catalog"], "--sids", sids,
              "--profiles", data["profiles"], "--events", data["events"])
    cli("embed", "--catalog", data["catalog"], "--out", str(out / "embeddings.tsv"),
        "--dim", "16", "--seed", "5")
    cli("index", "--embeddings", str(out / "embeddings.tsv"),
        "--out", str(out), "--levels", "2", "--codebook-size", "4",
        "--latent-dim", "4", "--epochs", "30", "--seed", "5")
    cli("build-corpus", *common, "--out", str(out))
    cli("train", "--sids", sids, "--corpus-dir", str(out),
        "--out", str(out / "scorer.json"), "--seed", "5")
    cli("train", "--sids", sids, "--corpus-dir", str(out), "--scorer", "neural",
        "--stages", "main", "--out", str(tmp_path / "policy.json"), "--seed", "5")
    dpo = json.loads(cli("dpo", "--policy", str(tmp_path / "policy.json"), *common,
                         "--steps", "3", "--out", str(out / "dpo_policy.json")))
    cli("generate", "--scorer", str(out / "scorer.json"), *common, "--beam", "4",
        "--out", str(out / "results.jsonl"))

    produced = {p.name: p for p in out.rglob("*")}
    manifest = json.loads((run / "manifest.json").read_text())
    assert "dpo_policy.json" in {entry["file"] for entry in manifest}
    for entry in manifest:
        if entry["file"] != "report.json":
            digest = hashlib.sha256(produced[entry["file"]].read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["file"]
    expected = json.loads((run / "report.json").read_text())["dpo"]
    assert {k: dpo[k] for k in expected} == expected


def test_default_cli_chain_matches_default_pipeline(tmp_path, capsys):
    """The subcommands take their defaults from PipelineConfig and
    SyntheticSpec, so gen-data, embed and index with no size flags build the
    data, embeddings and S-IDs of a default pipeline run."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(out_dir=str(run), seed=0))

    def cli(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    out = tmp_path / "cli"
    data = json.loads(cli("gen-data", "--out", str(out / "data")))
    cli("embed", "--catalog", data["catalog"], "--out", str(out / "embeddings.tsv"))
    cli("index", "--embeddings", str(out / "embeddings.tsv"), "--out", str(out))

    produced = {p.name: p for p in out.rglob("*")}
    manifest = json.loads((run / "manifest.json").read_text())
    checked = [e for e in manifest if e["stage"] in ("gen-data", "embed", "index")]
    assert {"embeddings.tsv", "sids.jsonl"} <= {e["file"] for e in checked}
    for entry in checked:
        digest = hashlib.sha256(produced[entry["file"]].read_bytes()).hexdigest()
        assert digest == entry["sha256"], entry["file"]


def test_dpo_rejects_ngram_policy(tmp_path, capsys):
    """DPO needs per-sequence gradients, which only the neural scorer has."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 5,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 30},
        beam_width=4))
    code, _, err = run_cli(capsys, "dpo", "--policy", str(run / "scorer.json"),
                           "--catalog", str(run / "data" / "catalog.jsonl"),
                           "--sids", str(run / "sids.jsonl"),
                           "--profiles", str(run / "data" / "profiles.jsonl"),
                           "--events", str(run / "data" / "events.jsonl"),
                           "--out", str(tmp_path / "dpo_policy.json"))
    assert code == 1
    assert "DPO needs a neural scorer" in json.loads(err.strip().splitlines()[-1])["message"]
    assert not (tmp_path / "dpo_policy.json").exists()


def test_readme_lists_every_subcommand():
    """README's CLI block names each subcommand the parser accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    missing = [name for name in sub.choices if f"genret {name} " not in readme]
    assert missing == []


def test_simulate_command(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"user_id": f"u{i % 3}", "tick": i // 3}) + "\n"
        for i in range(12)))
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(trace),
                           "--budget", "2", "--workers", "3", "--ticks", "6")
    assert code == 0
    report = json.loads(out)
    assert report["decoder_invocations_in_request_path"] == 0
    assert max(report["worker_counts"]) - min(report["worker_counts"]) <= 1


def test_pipeline_command_with_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthetic": {"num_categories": 2, "ads_per_category": 4,
                      "num_users": 4, "events_per_user": 6},
        "embed_dim": 16,
        "rqvae": {"num_levels": 2, "codebook_size": 4, "latent_dim": 4,
                  "epochs": 20},
        "beam_width": 4,
        "eval_k": [1, 4],
    }))
    code, out, _ = run_cli(capsys, "pipeline", "--config", str(config),
                           "--out", str(tmp_path / "run"), "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert "hr" in report and "codebook" in report
    assert (tmp_path / "run" / "manifest.json").exists()


def test_error_is_machine_readable_json(tmp_path, capsys):
    code, out, err = run_cli(capsys, "embed", "--catalog",
                             str(tmp_path / "missing.jsonl"),
                             "--out", str(tmp_path / "emb.tsv"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "FileNotFoundError"
    assert "missing.jsonl" in obj["message"]


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["not-a-command"])
