import hashlib
import json
import re
from pathlib import Path

import pytest

from genret.cli import build_parser, main
from genret.pipeline import PipelineConfig, run_pipeline
from genret.scorer import NeuralScorer
from genret.vocab import Vocabulary


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
    does, and a DPO run aligns and serves the scorer it trained, so a CLI
    chain that aligns scorer.json and decodes with dpo_policy.json
    reproduces the run's artifacts and its report's dpo entry."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 5,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 30},
        beam_width=4, scorer_kind="neural", dpo_enabled=True, dpo_steps=3))

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
    cli("train", "--sids", sids, "--corpus-dir", str(out), "--scorer", "neural",
        "--out", str(out / "scorer.json"), "--seed", "5")
    dpo = json.loads(cli("dpo", "--policy", str(out / "scorer.json"), *common,
                         "--steps", "3", "--out", str(out / "dpo_policy.json")))
    cli("generate", "--scorer", str(out / "dpo_policy.json"), *common, "--beam", "4",
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


def test_index_flags_override_config_file(tmp_path, capsys):
    """A flag given beside --config wins; a setting it leaves out comes from
    the file."""
    def cli(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    data = json.loads(cli("gen-data", "--out", str(tmp_path / "data"),
                          "--categories", "2", "--ads-per-category", "4"))
    emb = tmp_path / "emb.tsv"
    cli("embed", "--catalog", data["catalog"], "--out", str(emb), "--dim", "16")
    rq = tmp_path / "rq.json"
    rq.write_text(json.dumps({"num_levels": 3, "codebook_size": 4,
                              "latent_dim": 4, "epochs": 20}))

    def sids(name, *flags):
        cli("index", "--embeddings", str(emb), "--out", str(tmp_path / name), *flags)
        return (tmp_path / name / "sids.jsonl").read_bytes()

    levels2 = sids("l2", "--config", str(rq), "--levels", "2")
    assert levels2 != sids("l3", "--config", str(rq), "--levels", "3")
    assert levels2 == sids("flags", "--levels", "2", "--codebook-size", "4",
                           "--latent-dim", "4", "--epochs", "20")


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


def test_dpo_rejects_negative_steps_and_writes_no_policy(tmp_path, capsys):
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        scorer_kind="neural", beam_width=4))
    code, _, err = run_cli(capsys, "dpo", "--policy", str(run / "scorer.json"),
                           "--catalog", str(run / "data" / "catalog.jsonl"),
                           "--sids", str(run / "sids.jsonl"),
                           "--profiles", str(run / "data" / "profiles.jsonl"),
                           "--events", str(run / "data" / "events.jsonl"),
                           "--steps", "-1", "--out", str(tmp_path / "dpo_policy.json"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "AlignmentError" and "steps must be >= 0" in obj["message"]
    assert not (tmp_path / "dpo_policy.json").exists()


def test_dpo_rejects_a_beta_that_cannot_align_and_writes_no_policy(tmp_path, capsys):
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        scorer_kind="neural", beam_width=4))
    code, _, err = run_cli(capsys, "dpo", "--policy", str(run / "scorer.json"),
                           "--catalog", str(run / "data" / "catalog.jsonl"),
                           "--sids", str(run / "sids.jsonl"),
                           "--profiles", str(run / "data" / "profiles.jsonl"),
                           "--events", str(run / "data" / "events.jsonl"),
                           "--beta", "0", "--out", str(tmp_path / "dpo_policy.json"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "AlignmentError"
    assert "beta must be a finite number > 0, got 0.0" in obj["message"]
    assert not (tmp_path / "dpo_policy.json").exists()


@pytest.mark.parametrize("rate", ["0", "-0.1", "nan"])
def test_dpo_rejects_a_learning_rate_that_cannot_align_and_writes_no_policy(
        tmp_path, capsys, rate):
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        scorer_kind="neural", beam_width=4))
    code, _, err = run_cli(capsys, "dpo", "--policy", str(run / "scorer.json"),
                           "--catalog", str(run / "data" / "catalog.jsonl"),
                           "--sids", str(run / "sids.jsonl"),
                           "--profiles", str(run / "data" / "profiles.jsonl"),
                           "--events", str(run / "data" / "events.jsonl"),
                           "--learning-rate", rate,
                           "--out", str(tmp_path / "dpo_policy.json"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "AlignmentError"
    assert "learning_rate must be a finite number > 0" in obj["message"]
    assert not (tmp_path / "dpo_policy.json").exists()


def test_generate_names_an_unknown_user_and_writes_nothing(tmp_path, capsys):
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        beam_width=4))
    out = tmp_path / "generated"
    out.mkdir()
    code, _, err = run_cli(capsys, "generate", "--scorer", str(run / "scorer.json"),
                           "--catalog", str(run / "data" / "catalog.jsonl"),
                           "--sids", str(run / "sids.jsonl"),
                           "--profiles", str(run / "data" / "profiles.jsonl"),
                           "--events", str(run / "data" / "events.jsonl"),
                           "--user", "u999", "--out", str(out / "results.jsonl"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert "unknown user 'u999'" in obj["message"]
    assert list(out.iterdir()) == []


def test_build_corpus_and_dpo_name_a_user_without_a_profile(tmp_path, capsys):
    """An events file with a user the profiles lack fails build-corpus and
    dpo as generate fails, naming the user, and writes nothing."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=5,
        synthetic={"num_categories": 2, "ads_per_category": 4, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        beam_width=4, scorer_kind="neural"))
    events = (run / "data" / "events.jsonl").read_text()
    ghost = {**json.loads(events.splitlines()[0]), "user_id": "u999"}
    (tmp_path / "events.jsonl").write_text(events + json.dumps(ghost) + "\n")
    data = ("--catalog", str(run / "data" / "catalog.jsonl"),
            "--sids", str(run / "sids.jsonl"),
            "--profiles", str(run / "data" / "profiles.jsonl"),
            "--events", str(tmp_path / "events.jsonl"))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (("build-corpus", *data, "--out", str(out / "corpus")),
                 ("dpo", "--policy", str(run / "scorer.json"), *data,
                  "--out", str(out / "dpo_policy.json"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj == {"error": "ValueError", "message": "unknown user 'u999': no profile"}
    assert list(out.iterdir()) == []


def test_generate_and_dpo_reject_an_index_the_scorer_does_not_cover(tmp_path, capsys):
    """A scorer trained on one index, paired with the S-IDs of another, would
    read the codes it lacks as <unk>: generate and dpo name the first such
    token and write nothing."""
    run = tmp_path / "run"
    run_pipeline(PipelineConfig(
        out_dir=str(run), seed=0,
        synthetic={"num_categories": 2, "ads_per_category": 8, "num_users": 3,
                   "events_per_user": 6},
        embed_dim=16,
        rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4, "epochs": 10},
        beam_width=4, scorer_kind="neural", dpo_enabled=True, dpo_steps=1))
    other = tmp_path / "other"
    code, _, err = run_cli(capsys, "index", "--embeddings", str(run / "embeddings.tsv"),
                           "--out", str(other), "--levels", "2", "--codebook-size", "16",
                           "--latent-dim", "4", "--epochs", "10", "--seed", "7")
    assert code == 0, err
    data = ("--catalog", str(run / "data" / "catalog.jsonl"),
            "--sids", str(other / "sids.jsonl"),
            "--profiles", str(run / "data" / "profiles.jsonl"),
            "--events", str(run / "data" / "events.jsonl"))
    out = tmp_path / "generated"
    out.mkdir()
    for argv in (("generate", "--scorer", str(run / "scorer.json"), *data,
                  "--out", str(out / "results.jsonl")),
                 ("dpo", "--policy", str(run / "dpo_policy.json"), *data,
                  "--out", str(out / "dpo_policy.json"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        message = json.loads(err.strip().splitlines()[-1])["message"]
        assert re.search(r"S-ID token '[ab]_\d+' of ad '\w+' is not in the "
                         r"scorer's vocabulary", message), message
    assert list(out.iterdir()) == []


def test_eval_names_the_line_of_a_truth_record_its_spec_rejects(tmp_path, capsys):
    """A list as a user id fails the load as JsonlError naming the file and
    line, not as a bare TypeError for an unhashable key."""
    (tmp_path / "catalog.jsonl").write_text('{"ad_id": "a1", "name": "n"}\n')
    (tmp_path / "results.jsonl").write_text(
        '{"user_id": "u0", "ad_id": "a1", "score": 0.0}\n')
    truth = tmp_path / "truth.jsonl"
    truth.write_text('{"user_id": "u0", "ad_id": "a1"}\n{"user_id": [], "ad_id": "a1"}\n')
    code, out, err = run_cli(capsys, "eval", "--results", str(tmp_path / "results.jsonl"),
                             "--truth", str(truth),
                             "--catalog", str(tmp_path / "catalog.jsonl"))
    assert code == 1 and out == ""
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "JsonlError"
    assert obj["message"].startswith(f"{truth}: line 2: ")
    assert "'user_id' must be a non-empty string, got []" in obj["message"]


def test_eval_names_a_ranked_ad_the_catalog_lacks(tmp_path, capsys):
    (tmp_path / "catalog.jsonl").write_text('{"ad_id": "a1", "name": "n"}\n')
    (tmp_path / "results.jsonl").write_text(
        '{"user_id": "u0", "ad_id": "ad_zz", "score": 0.5}\n'
        '{"user_id": "u0", "ad_id": "a1", "score": 0.25}\n')
    (tmp_path / "truth.jsonl").write_text('{"user_id": "u0", "ad_id": "a1"}\n')
    code, out, err = run_cli(capsys, "eval", "--results", str(tmp_path / "results.jsonl"),
                             "--truth", str(tmp_path / "truth.jsonl"),
                             "--catalog", str(tmp_path / "catalog.jsonl"))
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ValueError",
        "message": "user 'u0': retrieved ad 'ad_zz' is not in the catalog"}


def test_index_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "rq.json"
    config.write_text(json.dumps([["num_levels", 2]]))
    code, _, err = run_cli(capsys, "index", "--config", str(config),
                           "--embeddings", str(tmp_path / "emb.tsv"),
                           "--out", str(tmp_path / "index"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "ValueError"
    assert str(config) in obj["message"] and "JSON object" in obj["message"]


@pytest.mark.parametrize("text", [b"not json", b'{"seed": 9}\xff'],
                         ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("command, flags, error", [
    ("pipeline", (), "PipelineError"),
    ("index", ("--embeddings", "emb.tsv"), "JsonlError"),
], ids=["pipeline", "index"])
def test_config_that_is_not_json_is_named_once(tmp_path, capsys, command, flags,
                                               error, text):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    code, _, err = run_cli(capsys, command, "--config", str(config), *flags,
                           "--out", str(tmp_path / "run"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == error
    assert obj["message"].count(str(config)) == 1
    assert not (tmp_path / "run").exists()


def test_index_config_values_need_their_json_type(tmp_path, capsys):
    # true would be seed 1 to RqVaeConfig
    code, out, _ = run_cli(capsys, "gen-data", "--out", str(tmp_path / "data"),
                           "--categories", "2", "--ads-per-category", "4")
    assert code == 0
    emb = tmp_path / "emb.tsv"
    assert run_cli(capsys, "embed", "--catalog", json.loads(out)["catalog"],
                   "--out", str(emb), "--dim", "8")[0] == 0
    config = tmp_path / "rq.json"
    config.write_text(json.dumps({"seed": True, "epochs": 5}))
    code, _, err = run_cli(capsys, "index", "--config", str(config),
                           "--embeddings", str(emb), "--out", str(tmp_path / "index"))
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "ValueError"
    assert str(config) in obj["message"]
    assert "'seed' must be an integer, got true" in obj["message"]
    assert not (tmp_path / "index").exists()


def test_gen_data_rejects_more_events_than_days(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "data"),
                             "--events-per-user", "100")
    assert code == 1 and out == ""
    assert "events_per_user 100" in json.loads(err.strip().splitlines()[-1])["message"]
    assert not (tmp_path / "data").exists()


def test_gen_data_rejects_one_event_per_user(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "data"),
                             "--events-per-user", "1")
    assert code == 1 and out == ""
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "ValueError"
    assert "events_per_user 1 leaves no training event" in obj["message"]
    assert not (tmp_path / "data").exists()


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


def test_simulate_rejects_negative_budget(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"user_id": "u0", "tick": 0}) + "\n")
    code, out, err = run_cli(capsys, "simulate", "--trace", str(trace),
                             "--budget", "-1", "--ticks", "2")
    assert code == 1 and out == ""
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "ServingError"
    assert "budget_per_tick" in obj["message"]


def test_simulate_rejects_negative_ticks(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"user_id": "u0", "tick": 0}) + "\n")
    code, out, err = run_cli(capsys, "simulate", "--trace", str(trace), "--ticks", "-3")
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ServingError", "message": "ticks must be >= 0, got -3"}


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


@pytest.mark.parametrize("settings, flags, message", [
    ({"stages": ["mian"]}, (), "'stages': unknown value 'mian'"),
    ({"scorer_kind": "neurl"}, (), "'scorer_kind': unknown value 'neurl'"),
    ({"dpo_variant": "log-ratios"}, (), "'dpo_variant': unknown value 'log-ratios'"),
    ({"dpo_enabled": True}, (), "'dpo_enabled' needs 'scorer_kind' 'neural'"),
    ({}, ("--dpo",), "'dpo_enabled' needs 'scorer_kind' 'neural'"),
    ({"beam_width": 0}, (), "'beam_width' must be >= 1"),
    ({"eval_k": [0, 4]}, (), "'eval_k' must be >= 1"),
    ({"template_ids": [7]}, (), "'template_ids': unknown value 7"),
    ({"embed_dim": 4}, (), "'embed_dim' must be >= 8"),
    ({"scorer_kind": "neural", "dpo_steps": -1}, ("--dpo",), "'dpo_steps' must be >= 0"),
    ({"scorer_kind": "neural", "dpo_beta": 0}, ("--dpo",),
     "'dpo_beta' must be a finite number > 0, got 0"),
], ids=["stage", "scorer_kind", "dpo_variant", "dpo-ngram", "dpo-flag-ngram",
        "beam_width", "eval_k", "template_ids", "embed_dim", "dpo_steps", "dpo_beta"])
def test_pipeline_rejects_a_bad_config_before_writing(tmp_path, capsys, settings,
                                                      flags, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": {"num_users": 3}, **settings}))
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", str(config),
                           "--out", str(out), *flags)
    assert code == 1
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "PipelineError" and message in obj["message"]
    assert not out.exists()


def test_train_names_an_unknown_stage_before_opening_a_corpus(tmp_path, capsys):
    # neither the S-ID table nor any corpus exists: a command that opened one
    # would fail with FileNotFoundError
    code, out, err = run_cli(capsys, "train", "--sids", str(tmp_path / "sids.jsonl"),
                             "--corpus-dir", str(tmp_path), "--stages", "main,mian",
                             "--out", str(tmp_path / "scorer.json"))
    assert code == 1 and out == ""
    obj = json.loads(err.strip().splitlines()[-1])
    assert obj["error"] == "AlignmentError"
    assert "unknown stage 'mian'" in obj["message"]
    assert list(tmp_path.iterdir()) == []


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


def test_neural_train_prints_unk_share(tmp_path, capsys):
    """`genret train --scorer neural` logs each stage's share of <unk>
    context tokens: the explicit and implicit prompts hold no S-ID token."""
    def cli(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    data = json.loads(cli("gen-data", "--out", str(tmp_path / "data"), "--categories", "2",
                          "--ads-per-category", "4", "--users", "4",
                          "--events-per-user", "6"))
    cli("embed", "--catalog", data["catalog"], "--out", str(tmp_path / "emb.tsv"),
        "--dim", "16")
    cli("index", "--embeddings", str(tmp_path / "emb.tsv"), "--out", str(tmp_path),
        "--levels", "2", "--codebook-size", "4", "--latent-dim", "4", "--epochs", "20")
    sids = str(tmp_path / "sids.jsonl")
    cli("build-corpus", "--catalog", data["catalog"], "--sids", sids,
        "--profiles", data["profiles"], "--events", data["events"], "--out", str(tmp_path))
    log = json.loads(cli("train", "--sids", sids, "--corpus-dir", str(tmp_path),
                         "--scorer", "neural", "--out", str(tmp_path / "scorer.json")))
    assert {e["stage"]: e["unk_share"] for e in log} == {
        "explicit": 1.0, "implicit": 1.0, "main": 0.0}


def test_generate_names_a_scorer_snapshot_that_cannot_load(tmp_path, capsys):
    """A neural snapshot holding NaN, a snapshot that is no JSON object, and
    a file that is not UTF-8 or not JSON fail the load with ScorerError
    naming the file once, before any decode runs."""
    (tmp_path / "sids.jsonl").write_text('{"ad_id": "ad0", "tokens": ["a_0", "b_0"]}\n')
    (tmp_path / "events.jsonl").write_text(
        '{"user_id": "u1", "days_ago": 1, "event_type": "click_ad", '
        '"domain": "ad", "ad_id": "ad0"}\n')
    snapshot = tmp_path / "scorer.json"
    NeuralScorer(Vocabulary(["<unk>", "a_0", "b_0"]), embed_dim=2, hidden_dim=2).save(snapshot)
    payload = json.loads(snapshot.read_text())
    payload["params"]["b2"][1] = float("nan")
    for text, message in ((json.dumps(payload).encode(), "'b2'"),
                          (b"[]", "expected a JSON object"),
                          (b"not json", "JSONDecodeError"),
                          (b"{}\xff", "UnicodeDecodeError")):
        snapshot.write_bytes(text)
        code, _, err = run_cli(capsys, "generate", "--scorer", str(snapshot),
                               "--catalog", str(tmp_path / "catalog.jsonl"),
                               "--sids", str(tmp_path / "sids.jsonl"),
                               "--profiles", str(tmp_path / "profiles.jsonl"),
                               "--events", str(tmp_path / "events.jsonl"),
                               "--out", str(tmp_path / "results.jsonl"))
        assert code == 1
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"] == "ScorerError" and message in obj["message"]
        assert obj["message"].count(str(snapshot)) == 1
        assert not (tmp_path / "results.jsonl").exists()
