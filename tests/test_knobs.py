"""Every knob moves an output.

Each PipelineConfig field (but out_dir, a location) and each value of an
enumerated choice has a case: setting it must change at least one of
scorer.json, dpo_policy.json, results.jsonl, or report.json without its
config echo. Each option of every `genret` subcommand has a case too:
setting it must change a file the subcommand writes or the JSON it prints.
Path options and --verbose are exempt and named in EXEMPT. The cases are
found by enumerating dataclasses.fields(PipelineConfig) and build_parser(),
so a knob without a case fails here.

A case that needs another knob's value to matter (DPO settings need DPO on,
template ids need the neural scorer) carries that value in its base. The
runs use tests/test_pipeline.py's SMALL scale.
"""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from genret.alignment import STAGES
from genret.catalog import load_catalog
from genret.cli import build_parser, main
from genret.embed import embed_catalog, save_embeddings
from genret.pipeline import PipelineConfig, run_pipeline
from genret.prompting import PromptError, build_prompt
from genret.synth import SyntheticSpec, gen_data

from conftest import worked_prompt_inputs
from test_pipeline import SMALL

TEMPLATE_IDS = (0, 1, 2)
ARTIFACTS = ("scorer.json", "dpo_policy.json", "results.jsonl")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path: Path) -> str:
    report = json.loads(path.read_text())
    report.pop("config")
    return _sha(json.dumps(report, sort_keys=True).encode())


def outputs(out_dir: Path) -> dict:
    """sha256 of each output a knob may move; report.json without config."""
    digests = {name: _sha((out_dir / name).read_bytes())
               for name in ARTIFACTS if (out_dir / name).exists()}
    digests["report.json"] = _report_digest(out_dir / "report.json")
    return digests


def moved(a: dict, b: dict) -> set:
    return {name for name in a.keys() | b.keys() if a.get(name) != b.get(name)}


def _choices(command: str, option: str) -> tuple:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)


def _seed1_embeddings(root: Path) -> str:
    """A TSV of the SMALL catalog hashed at seed 1, not the run's seed 0."""
    spec = SyntheticSpec(seed=0, **SMALL["synthetic"])
    catalog = load_catalog(gen_data(spec, root / "tsv_data")["catalog"])
    path = root / "seed1.tsv"
    save_embeddings(embed_catalog(catalog, SMALL["embed_dim"], seed=1), path)
    return str(path)


# (field, case id, base overrides, changed overrides, output that must move)
CONFIG_CASES = [
    ("seed", "seed=1", {}, {"seed": 1}, "results.jsonl"),
    ("synthetic", "synthetic.num_users=6", {},
     {"synthetic": {**SMALL["synthetic"], "num_users": 6}}, None),
    ("embed_dim", "embed_dim=8", {}, {"embed_dim": 8}, None),
    ("embeddings_path", "embeddings_path=tsv", {},
     {"embeddings_path": _seed1_embeddings}, None),
    ("rqvae", "rqvae.epochs=10", {}, {"rqvae": {**SMALL["rqvae"], "epochs": 10}}, None),
    ("dpo_enabled", "dpo_enabled=True", {}, {"dpo_enabled": True}, None),
    ("dpo_beta", "dpo_beta=0.5", {"dpo_enabled": True}, {"dpo_beta": 0.5}, None),
    ("dpo_steps", "dpo_steps=5", {"dpo_enabled": True}, {"dpo_steps": 5}, None),
    ("beam_width", "beam_width=2", {}, {"beam_width": 2}, None),
    ("eval_k", "eval_k=1,2", {}, {"eval_k": (1, 2)}, None),
]
# enumerated choices: each value against another one
for _field, _values, _context in (
        ("scorer_kind", _choices("train", "--scorer"), {}),
        ("dpo_variant", _choices("dpo", "--variant"), {"dpo_enabled": True})):
    for _value in _values:
        _other = next(v for v in _values if v != _value)
        CONFIG_CASES.append((_field, f"{_field}={_value}",
                             {**_context, _field: _other}, {_field: _value}, None))
# each stage: dropping it from the default order
for _stage in STAGES:
    CONFIG_CASES.append(("stages", f"stages-{_stage}",
                         {"stages": tuple(s for s in STAGES if s != _stage)},
                         {"stages": STAGES}, None))
# each template id: rendering with it in place of another; the n-gram reads
# only the bucket, so the neural scorer is the one that sees template text.
# Listing more ids crosses every reuse split with each of them.
CONFIG_CASES.append(("template_ids", "template_ids=0,1,2", {},
                     {"template_ids": TEMPLATE_IDS}, None))
for _tid in TEMPLATE_IDS:
    _other = TEMPLATE_IDS[(_tid + 1) % len(TEMPLATE_IDS)]
    CONFIG_CASES.append(("template_ids", f"template_ids={_tid}",
                         {"scorer_kind": "neural", "template_ids": (_other,)},
                         {"template_ids": (_tid,)}, None))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(**overrides) -> outputs of a SMALL pipeline run, one run per
    distinct config. A callable override value is called with a scratch
    directory and replaced by what it returns."""
    root = tmp_path_factory.mktemp("knobs")
    cache = {}

    def run(**overrides):
        overrides = {k: v(root) if callable(v) else v for k, v in overrides.items()}
        key = json.dumps(overrides, sort_keys=True)
        if key not in cache:
            out = root / f"run{len(cache)}"
            run_pipeline(PipelineConfig(out_dir=str(out), **{**SMALL, **overrides}))
            cache[key] = outputs(out)
        return cache[key]

    return run


def test_every_config_field_has_a_case():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"out_dir"}
    assert {case[0] for case in CONFIG_CASES} == fields


def test_template_ids_are_all_listed():
    profile, summary, events = worked_prompt_inputs()
    for tid in TEMPLATE_IDS:
        build_prompt(profile, summary, events, template_id=tid)
    with pytest.raises(PromptError, match="unknown template_id"):
        build_prompt(profile, summary, events, template_id=len(TEMPLATE_IDS))


@pytest.mark.parametrize("field, base, changed, must",
                         [case[:1] + case[2:] for case in CONFIG_CASES],
                         ids=[case[1] for case in CONFIG_CASES])
def test_config_knob_moves_an_output(run, field, base, changed, must):
    before, after = run(**base), run(**{**base, **changed})
    assert moved(before, after), f"{field}: no output moved"
    if must is not None:
        assert must in moved(before, after)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the DPO-aligned policy never serves, "
                   "so DPO leaves the lists unchanged")
def test_dpo_changes_the_lists(run):
    assert "results.jsonl" in moved(run(), run(dpo_enabled=True))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: explicit pairs carry a bucket no "
                   "decode context has, so the n-gram lists ignore them")
def test_explicit_stage_changes_the_ngram_lists(run):
    assert "results.jsonl" in moved(run(stages=("main",)),
                                    run(stages=("explicit", "main")))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: implicit pairs repeat the main "
                   "pairs' n-gram keys, so implicit is a second main")
def test_implicit_stage_differs_from_a_second_main(run):
    assert "scorer.json" in moved(run(stages=("main", "main")),
                                  run(stages=("implicit", "main")))


# options that name a file or directory, and the global --verbose
EXEMPT = {
    ("", "--verbose"),
    ("gen-data", "--out"),
    ("embed", "--catalog"), ("embed", "--out"),
    ("index", "--config"), ("index", "--embeddings"), ("index", "--out"),
    ("build-corpus", "--catalog"), ("build-corpus", "--sids"),
    ("build-corpus", "--profiles"), ("build-corpus", "--events"),
    ("build-corpus", "--out"),
    ("train", "--sids"), ("train", "--corpus-dir"), ("train", "--out"),
    ("dpo", "--policy"), ("dpo", "--catalog"), ("dpo", "--sids"),
    ("dpo", "--profiles"), ("dpo", "--events"), ("dpo", "--out"),
    ("generate", "--scorer"), ("generate", "--catalog"), ("generate", "--sids"),
    ("generate", "--profiles"), ("generate", "--events"), ("generate", "--out"),
    ("eval", "--results"), ("eval", "--truth"), ("eval", "--catalog"),
    ("eval", "--ltr-labels"),
    ("simulate", "--trace"),
    ("pipeline", "--config"), ("pipeline", "--out"),
}

# (subcommand, option) -> (value, options it needs beyond base_options');
# the value True stands for a flag
CLI_CASES = {
    ("gen-data", "--categories"): ("3", {}),
    ("gen-data", "--ads-per-category"): ("5", {}),
    ("gen-data", "--users"): ("6", {}),
    ("gen-data", "--events-per-user"): ("7", {}),
    ("gen-data", "--seed"): ("1", {}),
    ("embed", "--dim"): ("8", {}),
    ("embed", "--seed"): ("1", {}),
    ("index", "--levels"): ("3", {}),
    ("index", "--codebook-size"): ("8", {}),
    ("index", "--latent-dim"): ("8", {}),
    ("index", "--epochs"): ("10", {}),
    ("index", "--seed"): ("1", {}),
    ("build-corpus", "--templates"): ("0,1", {}),
    ("train", "--stages"): ("main", {}),
    ("train", "--scorer"): ("neural", {}),
    ("train", "--seed"): ("1", {"--scorer": "neural"}),
    ("dpo", "--beta"): ("0.5", {}),
    ("dpo", "--variant"): ("prob-ratio", {}),
    ("dpo", "--learning-rate"): ("0.05", {}),
    ("dpo", "--steps"): ("5", {}),
    ("generate", "--user"): ("u000", {}),
    ("generate", "--beam"): ("2", {}),
    ("eval", "--k"): ("1,2", {}),
    ("simulate", "--budget"): ("2", {}),
    ("simulate", "--workers"): ("3", {}),
    ("simulate", "--ticks"): ("3", {}),
    ("pipeline", "--seed"): ("1", {}),
    ("pipeline", "--dpo"): (True, {}),
}


def parser_options() -> set:
    """(subcommand, option) for every option the parser accepts; "" is the
    top-level parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    parsers = {"": parser, **sub.choices}
    return {(name, a.option_strings[-1]) for name, p in parsers.items()
            for a in p._actions if a.option_strings and a.dest != "help"}


def test_every_cli_option_has_a_case_or_is_exempt():
    assert not CLI_CASES.keys() & EXEMPT
    assert CLI_CASES.keys() | EXEMPT == parser_options()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Artifacts of one SMALL DPO pipeline run, a SMALL pipeline config and a
    short trace: the inputs of every subcommand."""
    root = tmp_path_factory.mktemp("cli_inputs")
    run_pipeline(PipelineConfig(out_dir=str(root / "run"), dpo_enabled=True, **SMALL))
    (root / "config.json").write_text(json.dumps(SMALL))
    (root / "trace.jsonl").write_text("".join(
        json.dumps({"user_id": f"u{i % 3}", "tick": i // 3}) + "\n" for i in range(12)))
    return root


def base_options(command: str, root: Path) -> dict:
    run, data = root / "run", root / "run" / "data"
    user_data = {"--catalog": data / "catalog.jsonl", "--sids": run / "sids.jsonl",
                 "--profiles": data / "profiles.jsonl", "--events": data / "events.jsonl"}
    small = SMALL["synthetic"]
    options = {
        "gen-data": {"--categories": small["num_categories"],
                     "--ads-per-category": small["ads_per_category"],
                     "--users": small["num_users"],
                     "--events-per-user": small["events_per_user"]},
        "embed": {"--catalog": data / "catalog.jsonl"},
        "index": {"--embeddings": run / "embeddings.tsv", "--levels": 2,
                  "--codebook-size": 4, "--latent-dim": 4, "--epochs": 30},
        "build-corpus": user_data,
        "train": {"--sids": run / "sids.jsonl", "--corpus-dir": run},
        "dpo": {"--policy": run / "dpo_policy.json", **user_data},
        "generate": {"--scorer": run / "scorer.json", **user_data},
        "eval": {"--results": run / "results.jsonl", "--truth": data / "truth.jsonl",
                 "--catalog": data / "catalog.jsonl",
                 "--ltr-labels": data / "ltr_labels.jsonl"},
        "simulate": {"--trace": root / "trace.jsonl"},
        "pipeline": {"--config": root / "config.json"},
    }[command]
    if command not in ("eval", "simulate"):
        options["--out"] = root / "out"
    return options


def cli_outputs(capsys, command: str, options: dict, root: Path) -> dict:
    """Run one subcommand in-process; digests of the JSON it prints and of
    each file it writes (report.json without config, manifest.json not at
    all, since both echo the settings)."""
    argv = [command]
    for option, value in options.items():
        argv += [option] if value is True else [option, str(value)]
    out = root / "out"
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()
    assert main(argv) == 0, (argv, capsys.readouterr().err)
    text = capsys.readouterr().out
    result = json.loads(text) if text.strip() else None
    if isinstance(result, dict):
        result.pop("config", None)
    digests = {"stdout": _sha(json.dumps(result, sort_keys=True).encode())}
    files = [out] if out.is_file() else sorted(out.rglob("*")) if out.exists() else []
    for path in files:
        if path.name == "report.json":
            digests[str(path)] = _report_digest(path)
        elif path.is_file() and path.name != "manifest.json":
            digests[str(path)] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("command, option", sorted(CLI_CASES),
                         ids=["".join(key) for key in sorted(CLI_CASES)])
def test_cli_option_moves_an_output(capsys, inputs, command, option):
    value, context = CLI_CASES[command, option]
    base = {**base_options(command, inputs), **context}
    before = cli_outputs(capsys, command, base, inputs)
    after = cli_outputs(capsys, command, {**base, option: value}, inputs)
    assert moved(before, after), f"{command} {option}: nothing moved"
