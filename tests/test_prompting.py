import pytest

from genret.prompting import (BehaviorEvent, InterestSummary, PromptError,
                              UserProfile, augment, build_prompt, count_tokens,
                              filter_events, interaction_reuse_splits,
                              load_events, load_profiles)
from genret.sid import SemanticId

from conftest import WORKED_PROMPT, worked_prompt_inputs


def _profile():
    return UserProfile(age=30, gender="female", residence="Chaoyang",
                       education_level="master", occupation="finance",
                       consumption_level="high")


def _ad(days, i):
    return BehaviorEvent(days, "click_ad", "ad", ad_id=f"ad{i}",
                         sid=SemanticId((i, 0, 0)))


def _content(days, title="clip"):
    return BehaviorEvent(days, "play_short_video", "content", title=title)


def test_worked_prompt_byte_for_byte():
    profile, summary, events = worked_prompt_inputs()
    assert build_prompt(profile, summary, events, template_id=0) == WORKED_PROMPT


def test_empty_events_prompt():
    profile, summary, _ = worked_prompt_inputs()
    prompt = build_prompt(profile, summary, [], template_id=0)
    assert prompt.endswith("what ad will the user be interested in next time?")
    assert "(format: time^behavior type^title) are " in prompt


def test_events_must_be_oldest_first():
    profile, summary, _ = worked_prompt_inputs()
    with pytest.raises(PromptError, match="oldest-first"):
        build_prompt(profile, summary, [_ad(5, 1), _ad(9, 2)])


def test_budget_truncation_drops_oldest():
    profile = _profile()
    summary = InterestSummary([("travel", 3)])
    events = [_content(40, f"title{i}") for i in range(8, 0, -1)]
    full = build_prompt(profile, summary, events)
    # choose a budget that forces dropping exactly the two oldest events
    target = count_tokens(build_prompt(profile, summary, events[2:]))
    too_big = count_tokens(build_prompt(profile, summary, events[1:]))
    assert target < too_big < count_tokens(full)
    prompt = build_prompt(profile, summary, events, token_budget=target)
    assert count_tokens(prompt) <= target
    assert "title8" not in prompt and "title7" not in prompt
    for i in range(1, 7):
        assert f"title{i}" in prompt


def test_budget_too_small_for_skeleton():
    profile, summary, _ = worked_prompt_inputs()
    with pytest.raises(PromptError, match="budget"):
        build_prompt(profile, summary, [], token_budget=5)


def test_templates_render_distinct_and_end_with_question():
    profile, summary, events = worked_prompt_inputs()
    prompts = {t: build_prompt(profile, summary, events, template_id=t)
               for t in (0, 1, 2)}
    assert len(set(prompts.values())) == 3
    for t, prompt in prompts.items():
        assert prompt.endswith("what ad will the user be interested in next time?")
        assert ("<task>" in prompt) == (t != 0)


def test_unknown_template_rejected():
    profile, summary, events = worked_prompt_inputs()
    with pytest.raises(PromptError, match="template"):
        build_prompt(profile, summary, events, template_id=9)


def test_filter_events_window_and_positivity():
    events = [
        _content(120),
        _content(30),
        BehaviorEvent(10, "click_ad", "ad", positive=False, ad_id="a",
                      sid=SemanticId((0, 0))),
        _ad(5, 1),
    ]
    kept = filter_events(events, window_days=90)
    assert kept == [events[1], events[3]]


def test_interaction_reuse_worked_example():
    # sequence [c1, a2, a3, c4, a5] -> three (history, target) pairs
    c1, a2, a3 = _content(50, "c1"), _ad(40, 2), _ad(30, 3)
    c4, a5 = _content(20, "c4"), _ad(10, 5)
    seq = [c1, a2, a3, c4, a5]
    pairs = interaction_reuse_splits(seq)
    assert pairs == [([c1], a2), ([c1, a2], a3), ([c1, a2, a3, c4], a5)]


def test_reuse_no_ad_events():
    assert interaction_reuse_splits([_content(9), _content(5)]) == []


def test_augment_reuse_counts_and_responses():
    c1, a2, a3 = _content(50, "c1"), _ad(40, 2), _ad(30, 3)
    c4, a5 = _content(20, "c4"), _ad(10, 5)
    samples = augment([c1, a2, a3, c4, a5], _profile(),
                      InterestSummary([("x", 1)]), "u1")
    assert len(samples) == 3
    assert [s.response for s in samples] == [
        a2.sid.render(), a3.sid.render(), a5.sid.render()]
    assert all(s.user_id == "u1" for s in samples)


def test_augment_template_cross_product():
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3)]
    samples = augment(seq, _profile(), InterestSummary([]), "u1",
                      template_ids=(0, 1, 2))
    assert len(samples) == 6
    assert sorted({s.template_id for s in samples}) == [0, 1, 2]


def test_augment_rejects_no_templates():
    seq = [_content(50, "c1"), _ad(40, 2)]
    with pytest.raises(PromptError, match="template"):
        augment(seq, _profile(), InterestSummary([]), "u1", template_ids=())


def test_augment_deterministic():
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3)]
    kw = dict(template_ids=(0, 1))
    a = augment(seq, _profile(), InterestSummary([]), "u1", **kw)
    b = augment(seq, _profile(), InterestSummary([]), "u1", **kw)
    assert a == b


def test_no_label_leakage():
    # the response S-ID never appears in the prompt's behavior section when
    # the target ad wasn't interacted with earlier
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3), _ad(20, 4)]
    for s in augment(seq, _profile(), InterestSummary([]), "u1"):
        assert s.response not in s.prompt


def test_summary_sorted_descending_distinct():
    summary = InterestSummary([("b", 2), ("a", 9), ("c", 2)])
    assert summary.entries == [("a", 9), ("b", 2), ("c", 2)]
    with pytest.raises(PromptError):
        InterestSummary([("a", 1), ("a", 2)])
    with pytest.raises(PromptError):
        InterestSummary([("a", 0)])


def test_event_domain_validation():
    with pytest.raises(PromptError):
        BehaviorEvent(1, "click_ad", "ad")  # no ad reference
    with pytest.raises(PromptError):
        BehaviorEvent(1, "search", "content")  # no title
    with pytest.raises(PromptError):
        UserProfile(age=130, gender="m", residence="r", education_level="e",
                    occupation="o", consumption_level="c")


def test_load_profiles_and_events(tmp_path):
    ppath = tmp_path / "profiles.jsonl"
    ppath.write_text('{"user_id": "u1", "age": 25, "gender": "male", '
                     '"residence": "r", "education_level": "e", '
                     '"occupation": "o", "consumption_level": "c"}\n')
    epath = tmp_path / "events.jsonl"
    epath.write_text(
        '{"user_id": "u1", "days_ago": 3, "event_type": "click_ad", '
        '"domain": "ad", "ad_id": "adX"}\n'
        '{"user_id": "u1", "days_ago": 9, "event_type": "search", '
        '"domain": "content", "title": "t"}\n')
    profiles = load_profiles(ppath)
    assert profiles["u1"].age == 25
    events = load_events(epath, sids={"adX": SemanticId((1, 2, 0))})
    assert [e.days_ago for e in events["u1"]] == [9, 3]  # oldest first
    assert events["u1"][1].sid == SemanticId((1, 2, 0))
