import pytest
from hypothesis import example, given, settings, strategies as st

from genret.jsonl import JsonlError
from genret import prompting
from genret.prompting import (TEMPLATE_IDS, BehaviorEvent, InterestSummary,
                              PromptError, PromptSample, UserProfile, augment,
                              build_prompt, count_tokens, filter_events,
                              interaction_reuse_splits, load_events, load_profiles)
from genret.sid import SemanticId, rendered_tokens

from conftest import WORKED_PROMPT, window_ad_tokens, worked_prompt_inputs


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


@given(st.text())
def test_count_tokens_never_exceeds_length(text):
    assert count_tokens(text) <= len(text)


def full_scan_prompt(profile, summary, events, template_id, token_budget):
    """The budget loop as a full token scan of every candidate prompt: drop
    the oldest event until the prompt fits or no event is left."""
    unbounded = 10**9
    for start in range(len(events) + 1):
        prompt = build_prompt(profile, summary, events[start:], template_id, unbounded)
        if count_tokens(prompt) <= token_budget or start == len(events):
            return prompt


# punctuation titles are one token per character, which brings a prompt's
# length closest to its token count
_titles = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
            min_size=1, max_size=12),
    st.text("!?.,;:^", min_size=1, max_size=60))


@settings(max_examples=60, deadline=None)
@given(titles=st.lists(_titles, max_size=8), template_id=st.sampled_from([0, 1, 2]),
       data=st.data())
def test_build_prompt_equals_full_scan(titles, template_id, data):
    """Skipping the count of a prompt no longer than the budget drops the
    same events as scanning every prompt, for budgets from the skeleton's
    size upward: below the full prompt's count (events drop) and above it,
    up to past its length (no prompt is scanned)."""
    profile, summary = _profile(), InterestSummary([("travel", 3)])
    events = [_content(len(titles) - i, t) for i, t in enumerate(titles)]
    skeleton = count_tokens(build_prompt(profile, summary, [], template_id))
    full = build_prompt(profile, summary, events, template_id, 10**9)
    budget = data.draw(st.one_of(
        st.integers(skeleton, count_tokens(full)),
        st.integers(count_tokens(full), len(full) + 2)))
    assert (build_prompt(profile, summary, events, template_id, budget)
            == full_scan_prompt(profile, summary, events, template_id, budget))


def test_build_prompt_equals_full_scan_at_every_budget():
    """The densest prompts (punctuation titles, one token per character) at
    every budget from the skeleton's count to past the full prompt's length."""
    profile, summary = _profile(), InterestSummary([("travel", 3)])
    events = [_content(8 - i, "!?" * 30) for i in range(8)]
    skeleton = count_tokens(build_prompt(profile, summary, [], 1))
    full = build_prompt(profile, summary, events, 1, 10**9)
    for budget in range(skeleton, len(full) + 2):
        assert (build_prompt(profile, summary, events, 1, budget)
                == full_scan_prompt(profile, summary, events, 1, budget)), budget


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
    kept = filter_events(events)
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
    for samples in augment([c1, a2, a3, c4, a5], _profile(),
                           InterestSummary([("x", 1)])):
        assert len(samples) == 3
        assert [s.response for s in samples] == [a2.sid, a3.sid, a5.sid]


def test_augment_template_cross_product():
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3)]
    views = augment(seq, _profile(), InterestSummary([]), template_ids=(0, 1, 2))
    # split-major, one sample per template in the order given; ads by title,
    # then by S-ID
    assert [[s.prompt for s in samples] for samples in views] == [
        [build_prompt(_profile(), InterestSummary([]), history, tid, use_sid=use_sid)
         for history, _ in interaction_reuse_splits(seq) for tid in (0, 1, 2)]
        for use_sid in (False, True)]


def split_by_split(events, profile, summary, template_ids, token_budget, use_sid):
    """augment as one build_prompt per split and template, kept as the
    reference for rendering each behaviour line once."""
    if not template_ids:
        raise PromptError("template_ids must name at least one template")
    splits = interaction_reuse_splits(list(events))
    for _, target in splits:
        if target.sid is None:
            raise PromptError(f"ad event {target.ad_id!r} has no S-ID")
    return [PromptSample(build_prompt(profile, summary, history, tid, token_budget,
                                      use_sid), target.sid)
            for history, target in splits for tid in template_ids]


def views_outcome(fn, *args):
    """fn's sample lists, one per view, each sample as (prompt, response),
    or the error it raised."""
    try:
        return [[(s.prompt, s.response) for s in samples]
                for samples in fn(*args)]
    except PromptError as exc:
        return repr(exc)


# words near S-ID tokens and markers, and the punctuation between the texts
# a prompt is built of
_words = st.sampled_from(["a_1", "<b_2>", "<a_1", "c_0>", "x_y", "<task>", "^",
                          ";", ".", "_", "Name", "filler " * 60, ""])
_text = st.lists(_words, min_size=1, max_size=4).map(" ".join)


@st.composite
def augment_inputs(draw):
    events = []
    positive = st.sampled_from([True, True, True, False])
    for k in range(draw(st.integers(0, 7))):
        days = draw(st.integers(0, 30))
        if draw(st.booleans()):
            events.append(BehaviorEvent(days, draw(_text), "content", title=draw(_text),
                                        positive=draw(positive)))
        else:
            sid = draw(st.sampled_from([SemanticId((k, 1, 0))] * 5 + [None]))
            events.append(BehaviorEvent(days, "click_ad", "ad", ad_id=f"ad{k}", sid=sid,
                                        title=draw(st.one_of(st.none(), _text)),
                                        positive=draw(positive)))
    if draw(st.booleans()):  # most histories are in order
        events.sort(key=lambda e: -e.days_ago)
    profile = UserProfile(age=draw(st.integers(0, 120)), gender=draw(_text),
                          residence=draw(_text), education_level="e",
                          occupation=draw(_text), consumption_level="c")
    summary = InterestSummary(list(draw(st.dictionaries(_text, st.integers(1, 4),
                                                        max_size=3)).items()))
    template_ids = tuple(draw(st.one_of(
        st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3),
        st.lists(st.sampled_from([0, 1, 2, 7]), max_size=3))))
    budget = draw(st.one_of(st.integers(0, 150), st.integers(100, 1000), st.just(2096)))
    return events, profile, summary, template_ids, budget


_NO_SID = BehaviorEvent(25, "close_ad", "ad", positive=False, ad_id="adN")


@settings(max_examples=300, deadline=None)
@given(augment_inputs())
# a history ad without an S-ID fails where its line is first rendered, after
# the first split's skeleton check and before the next template's
@example(([_content(30), _ad(28, 1), _NO_SID, _ad(20, 2)], _profile(),
          InterestSummary([]), (0, 7), 2096))
@example(([_content(30), _NO_SID, _ad(20, 2)], _profile(), InterestSummary([]),
          (0,), 3))
@example(([_content(30), _NO_SID, _ad(20, 2)], _profile(), InterestSummary([]),
          (0, 7), 2096))
@example(([_content(30), _NO_SID, _ad(20, 2)], _profile(), InterestSummary([]),
          (0,), 2096))
# the order check covers each history, not events after the last split
@example(([_ad(30, 1), _content(20), _ad(25, 2), _ad(10, 3)], _profile(),
          InterestSummary([]), (0,), 2096))
@example(([_ad(30, 1), _ad(20, 2), _content(25)], _profile(), InterestSummary([]),
          (1, 2), 2096))
def test_augment_equals_build_prompt_per_split(inputs):
    """Rendering each line once gives the prompts of one build_prompt per
    split in each view, ads by title then by S-ID, and raises the error
    that would raise first, the title view's before the S-ID view's: an
    unknown template or a skeleton over budget only once a split exists,
    the order check over each split's history, a missing S-ID where a line
    is first rendered."""
    assert views_outcome(augment, *inputs) == views_outcome(
        lambda *a: [split_by_split(*a, False), split_by_split(*a, True)], *inputs)


_SID_LIKE_USER = UserProfile(age=30, gender="c_0", residence="<a_1", education_level="e",
                             occupation="x_y", consumption_level="c")
_SID_LIKE_SUMMARY = InterestSummary([("a_1", 2), ("<b_2>", 1)])
_SID_LIKE_EVENTS = [_content(30, "a_1 <task>"), _ad(28, 1), _content(25, "c_0>"),
                    _ad(20, 2), _ad(10, 3)]


@settings(max_examples=100, deadline=None)
@given(augment_inputs())
# S-ID-like words in every slot of every template, with and without the
# oldest lines dropped (budget 150)
@example((_SID_LIKE_EVENTS, _SID_LIKE_USER, _SID_LIKE_SUMMARY, TEMPLATE_IDS, 2096))
@example((_SID_LIKE_EVENTS, _SID_LIKE_USER, _SID_LIKE_SUMMARY, TEMPLATE_IDS, 150))
def test_augment_context_is_the_prompts_sid_tokens(inputs):
    """The main context of a sample, the tokens of the S-ID renders in its
    prompt, is the S-ID tokens of the ad events whose lines the prompt
    keeps in the main view, whatever S-ID-like words its profile, summary
    and titles hold, and () in the implicit view, which renders ads by
    title."""
    try:
        views = augment(*inputs)
    except PromptError:
        return
    events, profile, summary, template_ids, _ = inputs
    windows = [(history, tid) for history, _ in interaction_reuse_splits(events)
               for tid in template_ids]
    assert all(rendered_tokens(s.prompt) == () for s in views[0])
    for sample, (history, tid) in zip(views[1], windows, strict=True):
        assert rendered_tokens(sample.prompt) == window_ad_tokens(
            sample.prompt, profile, summary, history, tid), sample.prompt


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
def test_template_keeps_what_the_context_scan_needs(template_id):
    """A main context is the S-ID renders of the whole prompt, so it holds
    only the ads of the filled slots while the template's fixed text holds
    no render and each slot is in the template once."""
    template = prompting._TEMPLATES[template_id]
    assert rendered_tokens(template.format(profile="", summary="", behaviors="")) == ()
    for slot in ("{profile}", "{summary}", "{behaviors}"):
        assert template.count(slot) == 1, slot


@pytest.mark.parametrize("template_id", [len(TEMPLATE_IDS), -1])
def test_assemble_rejects_an_unknown_template_id(template_id):
    # -1 would index the table from its end
    with pytest.raises(PromptError, match="unknown template_id"):
        prompting._assemble(template_id, "p", "s", "b")


def test_augment_rejects_no_templates():
    seq = [_content(50, "c1"), _ad(40, 2)]
    with pytest.raises(PromptError, match="template"):
        augment(seq, _profile(), InterestSummary([]), template_ids=())


def test_augment_rejects_a_target_without_sid():
    # the response is the target's S-ID, so a target without one cannot
    # become a sample
    seq = [_content(50, "c1"), _ad(40, 2), BehaviorEvent(30, "click_ad", "ad", ad_id="adX")]
    with pytest.raises(PromptError, match="adX"):
        augment(seq, _profile(), InterestSummary([]))


def test_augment_deterministic():
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3)]
    kw = dict(template_ids=(0, 1))
    a = augment(seq, _profile(), InterestSummary([]), **kw)
    b = augment(seq, _profile(), InterestSummary([]), **kw)
    assert a == b


def test_no_label_leakage():
    # the response S-ID never appears in the prompt's behavior section when
    # the target ad wasn't interacted with earlier
    seq = [_content(50, "c1"), _ad(40, 2), _ad(30, 3), _ad(20, 4)]
    _, main = augment(seq, _profile(), InterestSummary([]))
    for s in main:
        assert s.response.render() not in s.prompt


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


def test_event_rejects_a_negative_days_ago():
    """An event lies in the past or today: "-3 days ago" would render into
    a prompt and pass the behaviour window."""
    assert BehaviorEvent(0, "search", "content", title="t").days_ago == 0
    with pytest.raises(PromptError, match="days_ago"):
        BehaviorEvent(-3, "search", "content", title="t")


def test_load_events_names_the_line_of_a_negative_days_ago(tmp_path):
    epath = tmp_path / "events.jsonl"
    epath.write_text(
        '{"user_id": "u1", "days_ago": 3, "event_type": "search", '
        '"domain": "content", "title": "t"}\n'
        '{"user_id": "u1", "days_ago": -3, "event_type": "search", '
        '"domain": "content", "title": "t"}\n')
    with pytest.raises(JsonlError, match=r"events\.jsonl: line 2: .*days_ago"):
        load_events(epath, sids={})
