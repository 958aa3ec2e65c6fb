"""Every stage artifact reader checks each record against its artifact's
spec, and reports a malformed line or a bad record by file and line."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genret.alignment import load_corpus
from genret.catalog import CatalogError, load_catalog
from genret.embed import EmbeddingTable, save_embeddings
from genret.jsonl import JsonlError, dump, write
from genret.pipeline import load_results
from genret.prompting import load_events, load_profiles
from genret.rqvae import load_sids
from genret.scorer import NeuralScorer, NgramScorer
from genret.sid import SemanticId, SidError
from genret.serving import load_trace
from genret.synth import load_ltr_labels, load_truth
from genret.vocab import Vocabulary

PROFILE = {"user_id": "u0", "age": 30, "gender": "female", "residence": "r",
           "education_level": "e", "occupation": "o", "consumption_level": "low"}


def load_ad_events(path):
    """Events whose ad a1 has an S-ID."""
    return load_events(path, {"a1": SemanticId((1, 0))})


# loader -> (a valid first record, a record it must reject). A valid record
# holds each optional field at its default, so dropping one loads the same
# objects.
LOADERS = [
    (load_catalog, {"ad_id": "a1", "name": "n", "product_type": "", "first_category": "",
                    "second_category": "", "attributes": [], "ecpm": 0.0},
     {"ad_id": "a2", "name": "n", "ecpm": -1}),
    (load_profiles, PROFILE, dict(PROFILE, user_id="u1", age=300)),
    (functools.partial(load_events, sids={}), {"user_id": "u0", "days_ago": 1, "event_type": "search",
                   "domain": "content", "title": "t", "positive": True},
     {"user_id": "u0", "days_ago": 2, "event_type": "search", "domain": "content"}),
    (load_trace, {"user_id": "u0", "tick": 0}, {"user_id": "u1"}),
    (load_corpus, {"prompt": "p", "response": "<a_1, b_0>", "stage": "main", "bucket": [],
                   "user_id": ""},
     {"prompt": "p", "stage": "main"}),
    (load_sids, {"ad_id": "a1", "tokens": ["a_1", "b_0"]},
     {"ad_id": "a2", "tokens": ["b_1", "a_0"]}),
    (load_truth, {"user_id": "u0", "ad_id": "a1"}, {"user_id": "u1"}),
    (load_ltr_labels, {"user_id": "u0", "ad_ids": ["a1"]}, {"user_id": "u1"}),
    (load_results, {"user_id": "u0", "ad_id": "a1", "score": 0.0},
     {"user_id": "u0", "score": 0.0}),
    (load_ad_events, {"user_id": "u0", "days_ago": 2, "event_type": "click on ad",
                      "domain": "ad", "ad_id": "a1", "positive": True},
     {"user_id": "u0", "days_ago": 3, "event_type": "click on ad", "domain": "ad"}),
]
IDS = [getattr(f, "func", f).__name__ for f, _, _ in LOADERS]
BY_ID = {name: row for name, row in zip(IDS, LOADERS)}
# the catalog and the S-IDs keep their own error types; the rest raise JsonlError
ERRORS = {load_catalog: CatalogError, load_sids: SidError}
# loader -> a change to its valid record that keeps the record's key field,
# or its user; a keyed loader rejects the changed record as a second line
AGAIN = {
    "load_catalog": {"name": "m"}, "load_profiles": {"age": 50},
    "load_events": {"days_ago": 2}, "load_trace": {"tick": 1},
    "load_corpus": {"response": "<a_2, b_0>"}, "load_sids": {"tokens": ["a_2", "b_0"]},
    "load_truth": {"ad_id": "a2"}, "load_ltr_labels": {"ad_ids": ["a2"]},
    "load_results": {"ad_id": "a2"}, "load_ad_events": {"days_ago": 3},
}
KEYED = {"load_catalog", "load_sids", "load_profiles", "load_truth", "load_ltr_labels"}


def _load_second_line(tmp_path, load, first, second):
    path = tmp_path / "artifact.jsonl"
    path.write_text(first + "\n" + second + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value)
    assert "line 2" in str(info.value)
    return info.value


@pytest.mark.parametrize("load, record, _", LOADERS, ids=IDS)
def test_malformed_line_names_file_and_line(tmp_path, load, record, _):
    error = _load_second_line(tmp_path, load, json.dumps(record), "not json")
    assert isinstance(error, ERRORS.get(load, JsonlError))
    # a byte that is not UTF-8 on line 302, after more than the 8 KB a text
    # file decodes at once: lines 2-301 are JSON whitespace, which read skips
    path = tmp_path / "not_utf8.jsonl"
    path.write_bytes(json.dumps(record).encode() + b"\n" + (b" " * 39 + b"\n") * 300
                     + b'{"\xff": 1}\n')
    with pytest.raises(ERRORS.get(load, JsonlError)) as info:
        load(path)
    assert f"{path}: line 302: UnicodeDecodeError: " in str(info.value)
    assert "byte 0xff in position 2" in str(info.value)


@pytest.mark.parametrize("load, record, _", LOADERS, ids=IDS)
def test_crlf_lines_load(tmp_path, load, record, _):
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes(json.dumps(record).encode() + b"\n")
    crlf.write_bytes(json.dumps(record).encode() + b"\r\n\r\n")
    assert repr(load(crlf)) == repr(load(lf))


def test_a_utf8_line_that_is_not_ascii_loads(tmp_path):
    path = tmp_path / "profiles.jsonl"
    write(path, [dict(PROFILE, residence="Z\u00fcrich \u5317\u4eac")], ensure_ascii=False)
    assert load_profiles(path)["u0"].residence == "Z\u00fcrich \u5317\u4eac"


@pytest.mark.parametrize("load, record, _", LOADERS, ids=IDS)
def test_non_object_record_names_file_and_line(tmp_path, load, record, _):
    error = _load_second_line(tmp_path, load, json.dumps(record), "[1, 2]")
    assert isinstance(error, ERRORS.get(load, JsonlError))


@pytest.mark.parametrize("load, record, bad", LOADERS, ids=IDS)
def test_bad_record_names_file_and_line(tmp_path, load, record, bad):
    error = _load_second_line(tmp_path, load, json.dumps(record), json.dumps(bad))
    assert isinstance(error, ERRORS.get(load, JsonlError))


@pytest.mark.parametrize("name", IDS)
def test_a_repeated_key_names_file_and_line(tmp_path, name):
    """A second line that repeats a keyed record's key field fails like any
    record its spec rejects; unkeyed records load two lines for one user."""
    load, record, _ = BY_ID[name]
    again = {**record, **AGAIN[name]}
    if name in KEYED:
        error = _load_second_line(tmp_path, load, json.dumps(record), json.dumps(again))
        assert isinstance(error, ERRORS.get(load, JsonlError))
        assert "duplicate" in str(error) and "first on line 1" in str(error)
        return
    path = tmp_path / "artifact.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(again) + "\n", encoding="utf-8")
    loaded = load(path)
    assert len(loaded[record["user_id"]] if isinstance(loaded, dict) else loaded) == 2


def test_a_key_repeated_inside_one_record_names_file_and_line(tmp_path):
    """json keeps the last of two values of one key; read rejects the
    record instead, so an ad is not loaded under its second ad_id."""
    path = tmp_path / "catalog.jsonl"
    path.write_text('{"ad_id": "a1", "name": "n", "ad_id": "a2"}\n', encoding="utf-8")
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert f"{path}: line 1: " in str(info.value)
    assert "key 'ad_id' repeats" in str(info.value)


# a record's field set to a value its spec rejects, or a key its spec does
# not name: each was read as something else, or failed with no file or line
@pytest.mark.parametrize("name, key, value", [
    ("load_events", "positive", "no"),  # read as true
    ("load_events", "domain", "xyz"),
    ("load_events", "domain", None),
    ("load_events", "days_ago", 1.5),  # read as day 1
    ("load_events", "days_ago", True),
    ("load_events", "event_type", 7),
    ("load_events", "postive", False),  # a typo
    ("load_ad_events", "ad_id", ["a1"]),
    ("load_catalog", "ad_id", None),  # read as the ad "None"
    ("load_catalog", "name", None),
    ("load_catalog", "attributes", [["k"]]),
    ("load_catalog", "attributes", [[1, 2]]),
    ("load_ltr_labels", "ad_ids", "xyz"),  # read as {"x", "y", "z"}
    ("load_corpus", "bucket", "xyz"),  # read as ("x", "y", "z")
    ("load_truth", "user_id", []),  # unhashable
    ("load_truth", "user_id", None),
    ("load_ltr_labels", "user_id", []),
    ("load_results", "user_id", []),
    ("load_sids", "ad_id", []),
    ("load_sids", "ad_id", 1.5),  # kept as a float key
    ("load_trace", "tick", 1.5),
    ("load_profiles", "age", "30"),
], ids=lambda v: json.dumps(v) if not isinstance(v, str) else v)
def test_a_value_its_spec_rejects_names_file_and_line(tmp_path, name, key, value):
    load, record, _ = BY_ID[name]
    error = _load_second_line(tmp_path, load, json.dumps(record),
                              json.dumps({**record, key: value}))
    assert isinstance(error, ERRORS.get(load, JsonlError))
    assert repr(key) in str(error)


DROP = object()  # the mutation that leaves the field out
# every field of every valid record
FIELDS = [(name, key) for name, (_, record, _) in zip(IDS, LOADERS) for key in record]
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
           | st.text(max_size=3))
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.dictionaries(
    st.text(max_size=2), SCALARS, max_size=2)


def json_type(value) -> str:
    """The JSON type of a value json reads: int and float are both numbers."""
    return {bool: "boolean", int: "number", float: "number"}.get(type(value),
                                                                type(value).__name__)


def _retyped_or_dropped(field):
    """field with a value of another JSON type than its valid record's, or DROP."""
    name, key = field
    original = json_type(BY_ID[name][1][key])
    return st.tuples(st.just(field), st.just(DROP) | JSON_VALUES.filter(
        lambda value: json_type(value) != original))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.one_of([_retyped_or_dropped(field) for field in FIELDS]))
# values of the field's own JSON type that its spec rejects
@example(case=(("load_events", "days_ago"), 1.5))
@example(case=(("load_events", "domain"), "xyz"))
@example(case=(("load_truth", "ad_id"), ""))
@example(case=(("load_corpus", "stage"), "Main"))
@example(case=(("load_catalog", "attributes"), [["k", "v", "w"]]))
def test_a_retyped_or_dropped_field_loads_the_same_or_names_its_line(
        tmp_path_factory, case):
    """One field of a valid record set to a value of another JSON type, or
    dropped, either loads the objects the valid record loads, or raises the
    loader's error naming the file and the line. No TypeError, KeyError or
    AttributeError escapes a loader."""
    (name, key), value = case
    load, record, _ = BY_ID[name]
    changed = {k: v for k, v in {**record, key: value}.items() if v is not DROP}
    root = tmp_path_factory.getbasetemp()
    valid, path = root / "valid.jsonl", root / "changed.jsonl"
    valid.write_text(json.dumps(record) + "\n", encoding="utf-8")
    path.write_text("\n" + json.dumps(changed) + "\n", encoding="utf-8")
    try:
        loaded = load(path)
    except ERRORS.get(load, JsonlError) as exc:
        assert f"{path}: line 2: " in str(exc)
        return
    assert loaded == load(valid)


def test_write_leaves_nothing_when_rows_fail(tmp_path):
    """A row generator that raises midway leaves no partial artifact and no
    temporary file; an artifact already at the path stays as it was."""
    def rows(fail_at):
        for i in range(5):
            if i == fail_at:
                raise RuntimeError("row generator failed")
            yield {"i": i}

    path = tmp_path / "rows.jsonl"
    with pytest.raises(RuntimeError, match="row generator"):
        write(path, rows(3))
    assert list(tmp_path.iterdir()) == []

    write(path, rows(None))
    before = path.read_bytes()
    assert before.count(b"\n") == 5
    with pytest.raises(RuntimeError, match="row generator"):
        write(path, rows(2))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("dumps", [{}, {"sort_keys": True}, {"ensure_ascii": False}])
def test_write_gives_the_json_dumps_line_of_each_row(tmp_path, dumps):
    """write encodes a file's rows with one encoder, whose lines are the
    per-row json.dumps lines, also for sorted keys and non-ASCII values."""
    rows = [dict(PROFILE, residence="Z\u00fcrich \u5317\u4eac \U0001f600"),
            {"z": 1, "a": [0.1, "\u00e9"], "m": {"y": None, "b": True}}]
    path = tmp_path / "rows.jsonl"
    write(path, rows, **dumps)
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(row, **dumps) + "\n" for row in rows)


def save_embedding_table(ad_id, path):
    table = EmbeddingTable(2)
    table.add(ad_id, np.array([0.5, -1.0]))
    save_embeddings(table, path)


# each writes a file whose text holds a string it is given; UTF-8 cannot
# encode the lone surrogate "\ud800", which a snapshot or catalog can carry
# as the JSON escape \ud800
WHOLE_FILE_WRITERS = {
    "dump": lambda text, path: dump(path, {"token": text}, ensure_ascii=False),
    "ngram-save": lambda text, path: NgramScorer(Vocabulary(["<unk>", text])).save(path),
    "neural-save": lambda text, path: NeuralScorer(
        Vocabulary(["<unk>", text]), embed_dim=2, hidden_dim=2).save(path),
    "save_embeddings": save_embedding_table,
}


@pytest.mark.parametrize("save", WHOLE_FILE_WRITERS.values(), ids=WHOLE_FILE_WRITERS)
def test_whole_file_writes_leave_nothing_when_they_fail(tmp_path, save):
    """A whole-file write that fails midway leaves no partial file and no
    temporary file; a file already at the path stays byte for byte."""
    path = tmp_path / "artifact"
    with pytest.raises(UnicodeEncodeError):
        save("\ud800", path)
    assert list(tmp_path.iterdir()) == []

    save("a_0", path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        save("\ud800", path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
