"""Every public name in the package has a caller outside the tests.

An AST scan: each public (non-underscore) top-level function or class in
src/genret/*.py, and each public method or property of a public class, must
be referenced outside its own definition, somewhere in src/genret (the
re-exporting __init__.py does not count), benchmarks/ or demos/. A bare name
counts in its own module and in files that import it by name; an attribute
(``rqvae.train``) counts anywhere. A method counts only by attribute, and
any attribute of its name counts, whatever object it is read from.

ORACLES lists the test-only names that are kept on purpose. The scan also
fails when one of them is gone or has gained a caller, so the list cannot
go stale.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genret"

# Test-only oracles, fixtures and conveniences. decode_exhaustive is one
# too, but the benchmark's check_oracle (run by offline-build and
# batch-generate) and demo 02 call it, so it needs no entry.
ORACLES = {
    "dice",                # acceptance criterion 07
    "freeze_forward",      # rqvae finite-difference gradient check
    "losses",              # rqvae per-sample loss oracle
    "make_cluster_table",  # quantizer test data
    "surrogate_loss",      # rqvae finite-difference gradient check
    "total_loss",          # rqvae training-progress check
    # one position's counts: train counts whole samples by the same rule,
    # and the traced benchmark wraps observe by name
    "NgramScorer.observe",
    "RetrievalList.ad_ids",         # test convenience: a list's ads in rank order
    "SemanticId.disambiguation",    # test convenience: the collision suffix
}


def public_definitions(package: Path) -> dict[str, tuple[Path, ast.AST]]:
    """Public top-level functions and classes, and the public methods and
    properties of public classes under ``Class.method``: name -> (module
    path, node)."""
    out = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out[node.name] = (path, node)
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        out[f"{node.name}.{member.name}"] = (path, member)
    return out


def referenced(definitions, sources: dict[Path, str]) -> set[str]:
    """Names in definitions referenced in sources (path -> text) outside
    their own definition."""
    by_ref: dict[str, list[str]] = {}  # the name a reference reads -> definitions
    for name in definitions:
        by_ref.setdefault(name.rpartition(".")[2], []).append(name)
    found = set()
    for path, text in sources.items():
        tree = ast.parse(text)
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Attribute):
                ref_name = ref.attr
            elif isinstance(ref, ast.Name):
                ref_name = ref.id
            else:
                continue
            for name in by_ref.get(ref_name, ()):
                home, node = definitions[name]
                if path == home and node.lineno <= ref.lineno <= node.end_lineno:
                    continue
                if isinstance(ref, ast.Name) and (
                        "." in name or (path != home and ref_name not in imported)):
                    continue
                found.add(name)
    return found


def surface_problems(definitions, sources, oracles) -> list[str]:
    used = referenced(definitions, sources)
    unused = sorted(n for n in definitions if n not in used and n not in oracles)
    gone = sorted(n for n in oracles if n not in definitions)
    called = sorted(n for n in oracles if n in used)
    return ([f"no caller: {n}" for n in unused]
            + [f"oracle no longer defined: {n}" for n in gone]
            + [f"oracle has a caller: {n}" for n in called])


def test_scan_flags_each_kind_of_problem(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return used\n\n"
        "def dead():\n    return dead()\n\n"
        "def _private():\n    pass\n\n"
        "def oracle():\n    pass\n\n"
        "class Called:\n"
        "    def called(self):\n        return self._private()\n\n"
        "    def dead_method(self):\n        return self.dead_method()\n\n"
        "    def _private(self):\n        pass\n")
    definitions = public_definitions(tmp_path)
    # a bare name is no call of a method of that name
    sources = {tmp_path / "mod.py": (tmp_path / "mod.py").read_text(),
               tmp_path / "user.py": "import mod\nfrom mod import used\n"
                                     "used()\nmod.Called().called()\n"
                                     "dead_method = None\n"}
    assert surface_problems(definitions, sources, {"oracle", "missing"}) == [
        "no caller: Called.dead_method",
        "no caller: dead",
        "oracle no longer defined: missing",
    ]
    assert surface_problems(definitions, sources, {"used", "Called.dead_method"}) == [
        "no caller: dead", "no caller: oracle", "oracle has a caller: used"]


def test_every_public_name_has_a_caller():
    files = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
             + list((ROOT / "benchmarks").glob("*.py"))
             + list((ROOT / "demos").glob("*.py")))
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    problems = surface_problems(public_definitions(PACKAGE), sources, ORACLES)
    assert not problems, "\n".join(problems)


def _writes(call: ast.Call) -> bool:
    """An open call whose mode, the second argument or mode=, may write."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes)


def test_only_jsonl_parses_json_lines():
    """How a file reaches disk and how a JSON document is parsed live in
    genret.jsonl alone: no other module calls json.load, json.loads,
    json.dump or a JSONDecoder, passes an object_pairs_hook, or opens a
    file for writing. So every object read goes through jsonl's check for
    a key repeated inside it. json.dumps of printed output and opens that
    only read are allowed."""
    callers = sorted(
        f"{path.name}:{node.lineno}" for path in PACKAGE.glob("*.py")
        if path.name != "jsonl.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads", "dump")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            or isinstance(node.func, ast.Name) and node.func.id == "open"
            and _writes(node)
            or "JSONDecoder" in (getattr(node.func, "attr", None),
                                 getattr(node.func, "id", None))
            or any(kw.arg == "object_pairs_hook" for kw in node.keywords)))
    assert not callers, callers


def test_only_the_scorer_lays_out_neural_batches():
    """A neural batch's layout lives in genret.scorer alone: callers pass
    ``seq_logprob_vjp`` one id array per context, and no other module names
    the layout helper or a CSR form of the contexts."""
    layout = {"_batch_layout", "ctx_ptr", "csr"}
    names = sorted(
        f"{path.name}:{node.lineno}" for path in PACKAGE.glob("*.py")
        if path.name != "scorer.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if layout & {getattr(node, attr, None) for attr in ("id", "attr", "name", "arg")})
    assert not names, names


def test_only_the_vocabulary_maps_tokens_to_ids():
    """A token or an S-ID code becomes an id in genret.vocab alone: no
    other module reads a vocabulary's ``id_of`` map; they ask ``lookup``,
    ``ids`` or ``code_ids``."""
    names = sorted(
        f"{path.name}:{node.lineno}" for path in PACKAGE.glob("*.py")
        if path.name != "vocab.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "id_of")
    assert not names, names


def test_the_decoder_takes_no_logarithm():
    """A retrieval's score is a product of probabilities: decoder.py names
    no log, log1p, exp or expm1 of math or numpy, called or passed, so its
    scores round alike on every host, whatever its SIMD loops or libm."""
    names = {"log", "log1p", "exp", "expm1"}
    tree = ast.parse((PACKAGE / "decoder.py").read_text(encoding="utf-8"))
    found = sorted(
        f"decoder.py:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and getattr(node.value, "id", None) in ("math", "np", "numpy")
        or isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy")
        and names & {alias.name for alias in node.names})
    assert not found, found


def test_the_decoder_reads_the_trie_through_its_levels():
    """decoder.py reads the trie only as ``levels``, ``leaf_ads``,
    ``leaf_sids``, ``depth`` and ``ad_count``, or hands it to a function of
    its own, which this scan covers too: decode and decode_exhaustive both
    walk each level's view, built once, and neither walks the nodes."""
    allowed = {"levels", "leaf_ads", "leaf_sids", "depth", "ad_count"}
    tree = ast.parse((PACKAGE / "decoder.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = {id(node.value): node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    handed = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) in functions for arg in node.args}
    found = sorted(f"decoder.py:{node.lineno}: {reads.get(id(node), 'trie')}"
                   for node in ast.walk(tree) if isinstance(node, ast.Name)
                   and node.id == "trie" and reads.get(id(node)) not in allowed
                   and id(node) not in handed)
    assert not found, found
    for name in ("decode", "decode_exhaustive"):
        assert any(isinstance(node, ast.Name) and reads.get(id(node)) == "levels"
                   for node in ast.walk(functions[name])), name


def calls_of(name: str) -> list[str]:
    """Where src/genret calls name, by bare name or attribute: each caller
    once, as its module and the defs around the call
    (``alignment.CorpusPair.__post_init__``)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


def test_only_the_decoder_and_prob_dist_keep_candidates():
    """A decode state moves to its next level in three places:
    decoder.decode keeps a level's survivors, decoder.decode_exhaustive
    keeps every node, and scorer._prob_dist walks a prefix. No state class
    in genret.scorer still defines ``extend``, the move by (rows, ids) that
    ``keep`` replaced."""
    assert calls_of("keep") == ["decoder.decode", "decoder.decode_exhaustive",
                                "scorer._prob_dist"]
    tree = ast.parse((PACKAGE / "scorer.py").read_text(encoding="utf-8"))
    extends = sorted(f"{node.name}.{member.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) for member in node.body
                     if isinstance(member, ast.FunctionDef) and member.name == "extend")
    assert not extends, extends


def test_generate_reaches_the_decoder_only_as_decoder_decode():
    """pipeline.build_generate_fn decodes by one call of the module
    attribute ``decoder.decode`` and names the decoder no other way, and
    pipeline imports nothing from genret.decoder by name. The benchmark's
    traced run wraps that attribute, so each request leaves its
    ``decoder.decode`` span, and the leaky-handler check in
    benchmarks/smoke.py counts those spans."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "build_generate_fn")
    calls = [node.func.value for node in ast.walk(fn) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "decode"
             and getattr(node.func.value, "id", None) == "decoder"]
    named = [node for node in ast.walk(fn) if isinstance(node, ast.Name)
             and node.id in {"decoder", "decode", "decode_exhaustive", "RetrievalList"}]
    assert len(calls) == 1 and named == calls, [ast.unparse(n) for n in named]
    by_name = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").rpartition(".")[2] == "decoder"]
    assert not by_name, by_name


def test_only_compact_context_builds_a_scorer_context():
    """Training buckets, DPO and serving read a user through one function,
    so what the scorer sees of a user is decided in one place."""
    assert calls_of("ScorerContext") == ["alignment.compact_context"]


def compiled_patterns() -> dict[str, list[ast.expr]]:
    """The pattern argument of every ``re.compile`` call in src/genret, by
    module."""
    found: dict[str, list[ast.expr]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compile"
                    and getattr(node.func.value, "id", None) == "re"):
                found.setdefault(path.stem, []).append(node.args[0])
    return found


def test_only_sid_spells_and_compile_corpus_derives_a_main_context():
    """sid.py, which renders and parses S-IDs, owns every pattern over S-ID
    tokens: elsewhere each pattern is a literal without the "_" that every
    S-ID token holds. A main pair's context is read from its prompt in one
    place, compile_corpus, whether the pair was built or loaded."""
    patterns = compiled_patterns()
    assert "sid" in patterns
    for module, args in patterns.items():
        if module != "sid":
            assert all(isinstance(a, ast.Constant) and "_" not in a.value
                       for a in args), module
    assert calls_of("rendered_tokens") == ["alignment.compile_corpus"]


def test_only_sid_and_vocab_read_tokens():
    """What counts as an S-ID token is decided in genret.sid: outside it,
    only genret.vocab calls parse_token or is_token."""
    callers = {where.partition(".")[0] for name in ("parse_token", "is_token")
               for where in calls_of(name)}
    assert callers <= {"sid", "vocab"}, sorted(callers)


def test_a_dict_of_records_reads_a_keyed_spec():
    """A loader that turns records into a dict reads a spec that names its
    key field, so jsonl.read rejects a repeated key by file and line instead
    of the dict keeping the last line. Each ``dict(jsonl.read(...))`` call's
    spec, read's fourth argument, is evaluated in its module."""
    keyed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = vars(importlib.import_module(f"genret.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
                    and node.args and isinstance(read := node.args[0], ast.Call)
                    and getattr(read.func, "attr", None) == "read"
                    and getattr(read.func.value, "id", None) == "jsonl"):
                spec = (read.args[3] if len(read.args) > 3
                        else next(k.value for k in read.keywords if k.arg == "spec"))
                spec = eval(compile(ast.Expression(spec), str(path), "eval"), module)
                keyed[f"{path.name}:{node.lineno}"] = bool(spec.keys)
    assert len(keyed) >= 4, keyed  # S-IDs, profiles, truth and LTR labels
    assert all(keyed.values()), sorted(where for where, ok in keyed.items() if not ok)
