"""Every stage artifact reader reports a malformed line by file and line."""

import json

import pytest

from genret.alignment import load_corpus
from genret.catalog import load_catalog
from genret.pipeline import load_results
from genret.prompting import load_events, load_profiles
from genret.rqvae import load_sids
from genret.serving import load_trace
from genret.synth import load_ltr_labels, load_truth

PROFILE = {"user_id": "u0", "age": 30, "gender": "female", "residence": "r",
           "education_level": "e", "occupation": "o", "consumption_level": "low"}

# loader -> a valid first record for it
LOADERS = [
    (load_catalog, {"ad_id": "a1", "name": "n"}),
    (load_profiles, PROFILE),
    (load_events, {"user_id": "u0", "days_ago": 1, "event_type": "search",
                   "domain": "content", "title": "t"}),
    (load_trace, {"user_id": "u0", "tick": 0}),
    (load_corpus, {"prompt": "p", "response": "<a_1, b_0>", "stage": "main"}),
    (load_sids, {"ad_id": "a1", "tokens": ["a_1", "b_0"]}),
    (load_truth, {"user_id": "u0", "ad_id": "a1"}),
    (load_ltr_labels, {"user_id": "u0", "ad_ids": ["a1"]}),
    (load_results, {"user_id": "u0", "ad_id": "a1", "score": 0.0}),
]


@pytest.mark.parametrize("load, record", LOADERS, ids=[f.__name__ for f, _ in LOADERS])
def test_malformed_line_names_file_and_line(tmp_path, load, record):
    path = tmp_path / "artifact.jsonl"
    path.write_text(json.dumps(record) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value)
    assert "line 2" in str(info.value)
