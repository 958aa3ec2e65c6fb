"""Every stage artifact reader reports a malformed line or a bad record by
file and line."""

import json

import pytest

from genret.alignment import load_corpus
from genret.catalog import CatalogError, load_catalog
from genret.jsonl import JsonlError
from genret.pipeline import load_results
from genret.prompting import load_events, load_profiles
from genret.rqvae import load_sids
from genret.sid import SidError
from genret.serving import load_trace
from genret.synth import load_ltr_labels, load_truth

PROFILE = {"user_id": "u0", "age": 30, "gender": "female", "residence": "r",
           "education_level": "e", "occupation": "o", "consumption_level": "low"}

# loader -> (a valid first record, a record it must reject)
LOADERS = [
    (load_catalog, {"ad_id": "a1", "name": "n"},
     {"ad_id": "a2", "name": "n", "ecpm": -1}),
    (load_profiles, PROFILE, dict(PROFILE, user_id="u1", age=300)),
    (load_events, {"user_id": "u0", "days_ago": 1, "event_type": "search",
                   "domain": "content", "title": "t"},
     {"user_id": "u0", "days_ago": 2, "event_type": "search", "domain": "content"}),
    (load_trace, {"user_id": "u0", "tick": 0}, {"user_id": "u1"}),
    (load_corpus, {"prompt": "p", "response": "<a_1, b_0>", "stage": "main"},
     {"prompt": "p", "stage": "main"}),
    (load_sids, {"ad_id": "a1", "tokens": ["a_1", "b_0"]},
     {"ad_id": "a2", "tokens": ["b_1", "a_0"]}),
    (load_truth, {"user_id": "u0", "ad_id": "a1"}, {"user_id": "u1"}),
    (load_ltr_labels, {"user_id": "u0", "ad_ids": ["a1"]}, {"user_id": "u1"}),
    (load_results, {"user_id": "u0", "ad_id": "a1", "score": 0.0},
     {"user_id": "u0", "score": 0.0}),
]
IDS = [f.__name__ for f, _, _ in LOADERS]
# the catalog and the S-IDs keep their own error types; the rest raise JsonlError
ERRORS = {load_catalog: CatalogError, load_sids: SidError}


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


@pytest.mark.parametrize("load, record, _", LOADERS, ids=IDS)
def test_non_object_record_names_file_and_line(tmp_path, load, record, _):
    error = _load_second_line(tmp_path, load, json.dumps(record), "[1, 2]")
    assert isinstance(error, ERRORS.get(load, JsonlError))


@pytest.mark.parametrize("load, record, bad", LOADERS, ids=IDS)
def test_bad_record_names_file_and_line(tmp_path, load, record, bad):
    error = _load_second_line(tmp_path, load, json.dumps(record), json.dumps(bad))
    assert isinstance(error, ERRORS.get(load, JsonlError))
