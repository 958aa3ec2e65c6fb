import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genret import alignment, rqvae, synth
from genret.alignment import (AlignmentError, PreferenceTriplet,
                              build_preference_triplets, build_stage_corpora,
                              compact_context, compile_corpus, dpo_loss, dpo_update,
                              explicit_pairs, load_corpus,
                              preference_margin, save_corpus,
                              summary_from_events, train_staged, user_context)
from genret.catalog import Ad, Catalog, load_catalog
from genret.embed import embed_catalog
from genret.jsonl import JsonlError
from genret.prompting import (BehaviorEvent, UserProfile, filter_events,
                              interaction_reuse_splits, load_events, load_profiles)
from genret.scorer import NeuralScorer, NgramScorer, ScorerContext, tokenize_text
from genret.sid import SemanticId
from genret.vocab import Vocabulary, vocab_from_sids

from conftest import one_pair, render_scan, window_ad_tokens

SIDS = {f"ad{i}": SemanticId((i % 4, i // 4, 0)) for i in range(8)}


def _catalog():
    catalog = Catalog()
    for i in range(8):
        catalog.add(Ad(ad_id=f"ad{i}", name=f"Name {i}", product_type="type",
                       first_category=f"cat{i % 2}", second_category="sub"))
    return catalog


def _profile():
    return UserProfile(age=34, gender="female", residence="r",
                       education_level="e", occupation="o",
                       consumption_level="c")


@pytest.fixture
def vocab():
    return vocab_from_sids(SIDS, extra_tokens=["cat:cat0", "cat:cat1"])


# --- corpora -----------------------------------------------------------------

def test_explicit_pairs_shape():
    pairs = explicit_pairs(_catalog(), SIDS)
    assert len(pairs) == 8
    p = next(p for p in pairs if "Name 3" in p.prompt)
    assert p.prompt.startswith("Given the ad's detailed description \"")
    assert p.prompt.endswith("what is the corresponding ad?")
    assert p.response == SIDS["ad3"]
    assert p.stage == "explicit"


def test_explicit_missing_sid_rejected():
    catalog = _catalog()
    with pytest.raises(AlignmentError, match="ad7"):
        explicit_pairs(catalog, {k: v for k, v in SIDS.items() if k != "ad7"})


def _events():
    return [
        BehaviorEvent(40, "play_short_video", "content", title="cat0 clip"),
        BehaviorEvent(30, "click_ad", "ad", ad_id="ad1", title="Name 1",
                      sid=SIDS["ad1"]),
        BehaviorEvent(20, "click_ad", "ad", ad_id="ad2", title="Name 2",
                      sid=SIDS["ad2"]),
    ]


def test_build_stage_corpora_stages_and_sid_usage():
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    assert len(corpora["explicit"]) == 8
    # two positive ad events -> two reuse pairs per stage
    assert len(corpora["implicit"]) == 2
    assert len(corpora["main"]) == 2
    # implicit prompts describe history ads by title, main by S-ID
    final_implicit = corpora["implicit"][-1]
    final_main = corpora["main"][-1]
    assert "Name 1" in final_implicit.prompt
    assert SIDS["ad1"].render() not in final_implicit.prompt
    assert SIDS["ad1"].render() in final_main.prompt
    # responses are the target's S-ID in both
    assert final_implicit.response == SIDS["ad2"]
    assert final_main.response == SIDS["ad2"]


def test_build_stage_corpora_augments_each_user_once(monkeypatch):
    """Both prompt views of a user come from one augment call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return augment(*args, **kwargs)

    augment = alignment.augment
    monkeypatch.setattr(alignment, "augment", counted)
    profiles = {u: _profile() for u in ("u1", "u2")}
    build_stage_corpora(_catalog(), SIDS, profiles, {u: _events() for u in profiles})
    assert len(calls) == len(profiles)


def test_corpus_bucket_matches_serving_context():
    """The n-gram bucket of every training pair is the one decoding builds
    from the same logged events, also when the newest ad event is negative
    and so outside the prompt's behaviour window."""
    events = _events() + [BehaviorEvent(10, "close_ad", "ad", positive=False,
                                        ad_id="ad3", title="Name 3", sid=SIDS["ad3"])]
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()}, {"u1": events})
    bucket = user_context(_profile(), events, _catalog()).bucket
    assert bucket[3] == SIDS["ad3"].codes[0]
    pairs = corpora["implicit"] + corpora["main"]
    assert len(pairs) == 4
    assert all(p.bucket == bucket for p in pairs)


def test_main_neural_context_keeps_only_sid_tokens():
    """Words with an underscore in event types and titles are not S-ID
    tokens: the main-stage context keeps the history ad's S-ID alone, as
    serving's context does."""
    sids = dict(SIDS, ad9=SemanticId((1, 2, 0)))
    events = [
        BehaviorEvent(40, "play_video", "content", title="travel_vlog 3"),
        BehaviorEvent(30, "click_ad", "ad", ad_id="ad9", title="Name 9", sid=sids["ad9"]),
        BehaviorEvent(20, "click_ad", "ad", ad_id="ad2", title="Name 2", sid=sids["ad2"]),
    ]
    pair = build_stage_corpora(_catalog(), sids, {"u1": _profile()},
                               {"u1": events})["main"][-1]
    assert "play_video" in pair.prompt and "click_ad" in pair.prompt
    vocab = vocab_from_sids(sids)
    tokens = tuple(vocab.tokens[i] for i in compile_corpus([pair], vocab)[0][0])
    assert tokens == ("a_1", "b_2", "c_0")
    serving = user_context(_profile(), events[:2], _catalog()).tokens
    assert set(tokens) <= set(serving)


def test_summary_from_events_counts():
    summary = summary_from_events(_events(), _catalog())
    # ad1 -> cat1, ad2 -> cat0, content title "cat0 clip" -> cat0
    assert summary.entries == [("cat0", 2), ("cat1", 1)]


def test_summary_from_events_skips_blank_titles():
    # a title of only whitespace names no category, as an empty one does
    blank = [BehaviorEvent(50, "play_short_video", "content", title=t)
             for t in ("   ", "\t\n", "")]
    summary = summary_from_events(blank + _events(), _catalog())
    assert summary.entries == [("cat0", 2), ("cat1", 1)]


def test_make_bucket_and_compact_context():
    summary = summary_from_events(_events(), _catalog())
    ctx = compact_context(_profile(), summary, _events())
    assert ctx.bucket == (3, "female", "cat0", SIDS["ad2"].codes[0])
    assert ctx.tokens[:2] == ("cat:cat0", "cat:cat1")
    assert ctx.tokens[2:] == SIDS["ad1"].tokens() + SIDS["ad2"].tokens()


def test_corpus_round_trip(tmp_path):
    pairs = explicit_pairs(_catalog(), SIDS)
    path = tmp_path / "corpus.jsonl"
    save_corpus(pairs, path)
    assert load_corpus(path) == pairs


def test_stage_corpora_round_trip(tmp_path):
    """Every stage's pairs, with their buckets and users, load back equal:
    the file holds rendered S-IDs and load_corpus parses them back. Main
    pairs, built or loaded, compile to their prompts' S-ID render tokens."""
    users = {f"u{i}": _profile() for i in range(2)}
    corpora = build_stage_corpora(_catalog(), SIDS, users,
                                  {uid: _events() for uid in users})
    for stage, pairs in corpora.items():
        path = tmp_path / f"{stage}.jsonl"
        save_corpus(pairs, path)
        assert SIDS["ad2"].render() in path.read_text(encoding="utf-8")
        assert load_corpus(path) == pairs
    check_main_contexts(corpora, tmp_path)


@pytest.mark.parametrize("record, message", [
    ({"prompt": "p", "response": "<a_1, b_0>", "stage": "Main"}, "'stage' must be one of"),
    ({"prompt": "p", "response": "<a_1, b_0>", "stage": "dpo"}, "'stage' must be one of"),
    ({"prompt": "p", "response": "<b_1, a_0>", "stage": "main"}, "wrong level"),
    ({"prompt": "p", "response": "a_1, b_0", "stage": "main"}, "angle-bracketed"),
    # spellings that render never writes
    ({"prompt": "p", "response": "<a_\u0661, b_2>", "stage": "main"}, "malformed S-ID token"),
    ({"prompt": "p", "response": "<a_1, b_007>", "stage": "main"}, "malformed S-ID token"),
    ({"prompt": "p", "response": "<a_1,b_0>", "stage": "main"}, "malformed S-ID token"),
    ({"prompt": "p", "response": "<a_1,  b_0>", "stage": "main"}, "malformed S-ID token"),
    ({"prompt": "p", "response": " <a_1, b_0>", "stage": "main"}, "angle-bracketed"),
    ({"prompt": "p", "response": "<a_1, b_0>\n", "stage": "main"}, "angle-bracketed"),
])
def test_load_corpus_rejects_bad_stage_and_response(tmp_path, record, message):
    path = tmp_path / "corpus.jsonl"
    good = {"prompt": "p", "response": "<a_1, b_0>", "stage": "main"}
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(JsonlError, match=message) as info:
        load_corpus(path)
    assert f"{path}: line 2" in str(info.value)


def test_load_corpus_rejects_a_code_past_int64(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"prompt": "p", "response": "<a_1, b_0>", "stage": "main"})
                    + "\n" + json.dumps({"prompt": "p", "stage": "main",
                                         "response": "<a_1, b_18446744073709551616>"})
                    + "\n", encoding="utf-8")
    with pytest.raises(JsonlError, match="code outside") as info:
        load_corpus(path)
    assert f"{path}: line 2" in str(info.value)


# --- staged training ---------------------------------------------------------

def test_staged_ngram_equals_direct_train(vocab, monkeypatch):
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    staged = NgramScorer(vocab)

    def no_tokenizing(text):
        raise AssertionError("the n-gram reads only the bucket")

    # the n-gram path never tokenizes a prompt
    with monkeypatch.context() as patch:
        patch.setattr(alignment, "tokenize_text", no_tokenizing)
        train_staged(staged, corpora)

    # training stage-by-stage must equal three direct train() calls that
    # parse every pair's response on its own
    direct = NgramScorer(vocab)
    for stage in ("explicit", "implicit", "main"):
        direct.train([(p.bucket, [vocab.lookup(t) for t in string_response(p)])
                      for p in corpora[stage]])
    assert staged.counts == direct.counts
    ctx = ScorerContext(bucket=(3, "female", "cat0", SIDS["ad2"].codes[0]))
    np.testing.assert_allclose(staged.prob_dist(ctx, [vocab.lookup("a_1")]),
                               direct.prob_dist(ctx, [vocab.lookup("a_1")]), atol=1e-12)


def test_staged_training_parses_no_response(vocab, monkeypatch):
    """Responses reach train_staged as SemanticIds, so neither scorer's
    training parses an S-ID string."""
    users = {f"u{i}": _profile() for i in range(4)}
    corpora = build_stage_corpora(_catalog(), SIDS, users,
                                  {uid: _events() for uid in users})
    pairs = [p for stage in ("explicit", "implicit", "main") for p in corpora[stage]]
    assert len(pairs) > len({p.response for p in pairs})

    parsed = []
    real = SemanticId.parse.__func__

    def counting(cls, text):
        parsed.append(text)
        return real(cls, text)

    with monkeypatch.context() as patch:
        patch.setattr(SemanticId, "parse", classmethod(counting))
        staged, _ = train_staged(NgramScorer(vocab), corpora)
        train_staged(NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0), corpora,
                     epochs_per_stage={s: 1 for s in alignment.STAGES})
    assert parsed == []

    # the count tables equal those of parsing every pair on its own
    per_pair = NgramScorer(vocab)
    for stage in ("explicit", "implicit", "main"):
        per_pair.train([(p.bucket, [vocab.lookup(t) for t in string_response(p)])
                        for p in corpora[stage]])
    assert staged.counts == per_pair.counts


def test_staged_neural_order_and_log(vocab):
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    scorer = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    _, log = train_staged(scorer, corpora, epochs_per_stage={s: 1 for s in
                                                            ("explicit", "implicit", "main")})
    assert [e["stage"] for e in log] == ["explicit", "implicit", "main"]
    assert all(e["pairs"] > 0 for e in log)


def test_fine_tuning_and_dpo_update_through_apply_grads(vocab, monkeypatch):
    # apply_grads is the one parameter update: fine-tuning ascends the
    # log-likelihood with one call per minibatch of TRAIN_BATCH pairs and
    # epoch, DPO makes one per step
    rates = []
    real = NeuralScorer.apply_grads

    def spy(self, grads, lr):
        rates.append(lr)
        return real(self, grads, lr)

    monkeypatch.setattr(NeuralScorer, "apply_grads", spy)
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    epochs = {"explicit": 2, "implicit": 1, "main": 3}
    scorer = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    train_staged(scorer, corpora, epochs_per_stage=epochs, learning_rate=0.05)
    assert rates == [-0.05] * sum(epochs[s] * -(-len(corpora[s]) // alignment.TRAIN_BATCH)
                                  for s in epochs)

    rates.clear()
    dpo_update(scorer, scorer.copy(), [_triplet(vocab)], learning_rate=0.1, steps=4)
    assert rates == [0.1] * 4


@pytest.mark.parametrize("rate", [0.0, -0.1, math.nan, math.inf])
def test_staged_rejects_a_learning_rate_that_cannot_train(vocab, rate):
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    ngram = NgramScorer(vocab)
    with pytest.raises(AlignmentError, match="learning_rate must be a finite number > 0"):
        train_staged(ngram, corpora, learning_rate=rate)
    assert ngram.counts == {}
    neural = NeuralScorer(vocab, embed_dim=4, hidden_dim=4)
    with pytest.raises(AlignmentError, match="learning_rate must be a finite number > 0"):
        train_staged(neural, corpora, learning_rate=rate)
    fresh = NeuralScorer(vocab, embed_dim=4, hidden_dim=4)
    for name, value in fresh.params.items():
        np.testing.assert_array_equal(neural.params[name], value)


def test_staged_neural_rejects_responses_of_different_depths(vocab):
    # a stage's responses are one (P, n) array, so its S-IDs share a depth
    pairs = [alignment.CorpusPair(prompt="p", response=SIDS["ad1"], stage="main"),
             alignment.CorpusPair(prompt="p", response=SemanticId((1, 0)), stage="main")]
    with pytest.raises(AlignmentError, match="one depth"):
        train_staged(NeuralScorer(vocab, embed_dim=4, hidden_dim=4), {"main": pairs},
                     order=("main",))


def test_staged_unsupported_scorer(vocab):
    with pytest.raises(AlignmentError, match="unsupported"):
        train_staged(object(), {"explicit": explicit_pairs(_catalog(), SIDS)},
                     order=("explicit",))


def test_staged_rejects_an_unknown_stage(vocab):
    # a misspelled stage used to be skipped with "pairs": 0; no stage trains
    # before the check
    corpora = {"explicit": explicit_pairs(_catalog(), SIDS)}
    order = ("explicit", "implcit", "main")
    ngram = NgramScorer(vocab)
    with pytest.raises(AlignmentError, match="unknown stage 'implcit'"):
        train_staged(ngram, corpora, order=order)
    assert ngram.counts == {}
    neural = NeuralScorer(vocab, embed_dim=4, hidden_dim=4)
    with pytest.raises(AlignmentError, match="unknown stage 'implcit'"):
        train_staged(neural, corpora, order=order)
    fresh = NeuralScorer(vocab, embed_dim=4, hidden_dim=4)
    for name, value in fresh.params.items():
        np.testing.assert_array_equal(neural.params[name], value)


# --- compiled corpus: the neural scorer's ids, mapped once ----------------------

def string_context(pair):
    """The neural context of a pair by the string path: the prompt's tokens,
    and for the main stage the tokens of its S-ID renders."""
    return render_scan(pair.prompt) if pair.stage == "main" else tokenize_text(pair.prompt)


def string_response(pair):
    return list(pair.response.tokens())


# words that are, or nearly are, S-ID tokens or markers; a_\u0661 ends in a
# non-ASCII digit and b_01 has a leading zero, so neither is an S-ID token
ADVERSARIAL = ["a_1", "b_0", "c_0", "<a_1>", "a_1x", "xa_1", "A_1", "play_video",
               "<sep>", "a_\u0661", "<unk>", "a_", "_1", "b_01", "z_9", "cat:cat0",
               "Name", "3"]
SEPARATORS = [" ", ", ", "<", ">", "", "\n", "^", "<a_1 ", "> "]


@st.composite
def corpus_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        parts = draw(st.lists(st.tuples(st.sampled_from(ADVERSARIAL),
                                        st.sampled_from(SEPARATORS)), max_size=12))
        prompt = "".join(w + sep for w, sep in parts)
        response = SIDS[draw(st.sampled_from(sorted(SIDS)))]
        pairs.append(alignment.CorpusPair(prompt=prompt, response=response,
                                          stage=draw(st.sampled_from(alignment.STAGES))))
    return pairs


@settings(max_examples=150, deadline=None)
@given(corpus_pairs())
@example([alignment.CorpusPair(
    prompt="<a_1> a_1x xa_1 A_1 play_video <sep> a_\u0661 <b_0, c_0> a_1",
    response=SIDS["ad1"], stage=stage) for stage in alignment.STAGES]
    + [alignment.CorpusPair(prompt="", response=SIDS["ad2"], stage="main")])
# renders beside near misses: no space, a leading zero, a Unicode digit,
# nesting and a skipped level
@example([alignment.CorpusPair(
    prompt="<a_1, b_0> <a_1,b_0> <a_01, b_0> <a_\u0661, b_0> <<a_3, b_1, c_0>> "
           "<a_1, c_0> a_1",
    response=SIDS["ad1"], stage=stage) for stage in alignment.STAGES])
@example([alignment.CorpusPair(prompt="", response=SIDS["ad2"], stage="main")])
def test_compiled_ids_equal_string_path(pairs):
    vocab = vocab_from_sids(SIDS, extra_tokens=["a_\u0661", "play_video", "cat:cat0"])
    contexts, responses, unk_share = compile_corpus(pairs, vocab)
    assert len(contexts) == len(responses) == len(pairs)
    unk = total = 0
    for pair, ctx, resp in zip(pairs, contexts, responses):
        want = [vocab.lookup(t) for t in string_context(pair)]
        assert ctx.tolist() == want, pair.prompt
        assert resp.tolist() == [vocab.lookup(t) for t in string_response(pair)]
        unk += sum(i == vocab.lookup("<unk>") for i in want)
        total += len(want)
    assert unk_share == (unk / total if total else 0.0)


def adversarial_world(titles, profile_words):
    """Three users whose titles and profile hold words near S-ID tokens and
    markers; each user's events alternate content and ad events."""
    profiles, events = {}, {}
    for u in range(3):
        profiles[f"u{u}"] = UserProfile(
            age=20 + u, gender=profile_words[u % len(profile_words)],
            residence=profile_words[(u + 1) % len(profile_words)], education_level="e",
            occupation=profile_words[(u + 2) % len(profile_words)], consumption_level="c")
        user_events = []
        for k, title in enumerate(titles):
            days = 60 - 5 * k
            if k % 2:
                ad = f"ad{(u + k) % 8}"
                user_events.append(BehaviorEvent(days, title.split(" ")[0] or "click",
                                                  "ad", ad_id=ad, title=title,
                                                  sid=SIDS[ad]))
            else:
                user_events.append(BehaviorEvent(days, "play_video", "content",
                                                 title=title))
        events[f"u{u}"] = user_events
    return profiles, events


def assert_main_contexts(pairs, want):
    """The main pairs compile to the token contexts want. The vocabulary
    holds every wanted token, so equal ids mean equal tokens."""
    vocab = Vocabulary.build([t for p in pairs for t in p.response.tokens()],
                             [t for w in want for t in w])
    got = compile_corpus(pairs, vocab)[0]
    assert [c.tolist() for c in got] == [vocab.ids(w).tolist() for w in want]


def check_main_contexts(corpora, tmp_path):
    """Each main pair, built or read back from text, compiles to the tokens
    of its prompt's S-ID renders, found by an oracle that uses no regex."""
    main = corpora["main"]
    path = tmp_path / "corpus_main.jsonl"
    save_corpus(main, path)
    loaded = load_corpus(path)
    assert loaded == main
    want = [render_scan(p.prompt) for p in main]
    for pairs in (main, loaded):
        assert_main_contexts(pairs, want)


def check_window_contexts(corpora, catalog, profiles, events, template_ids=(0,)):
    """Each main pair compiles to the S-ID tokens of the ad events whose
    behaviour lines its prompt keeps."""
    windows = []
    for uid in sorted(events):
        summary = summary_from_events(events[uid], catalog)
        windows += [(profiles[uid], summary, history, tid)
                    for history, _ in interaction_reuse_splits(filter_events(events[uid]))
                    for tid in template_ids]
    main = corpora["main"]
    assert_main_contexts(main, [window_ad_tokens(p.prompt, *w)
                                for p, w in zip(main, windows, strict=True)])


_adversarial_words = st.lists(st.tuples(st.sampled_from(ADVERSARIAL),
                                        st.sampled_from(["", " ", "_", "<", ">", ";",
                                                         ".", "^", "\n", ", "])),
                              min_size=1, max_size=6).map(
    lambda parts: "".join(w + sep for w, sep in parts))


@settings(max_examples=60, deadline=None)
@given(st.lists(_adversarial_words, min_size=2, max_size=8),
       st.lists(_adversarial_words, min_size=1, max_size=3))
def test_main_context_equals_a_scan_of_the_prompt(tmp_path_factory, titles, words):
    """Each main pair's context is the tokens of its prompt's S-ID renders,
    whatever words its profile, summary and lines hold, in every template."""
    profiles, events = adversarial_world(titles, words)
    corpora = build_stage_corpora(_catalog(), SIDS, profiles, events,
                                  template_ids=(0, 1, 2))
    assert corpora["main"]
    check_main_contexts(corpora, tmp_path_factory.mktemp("c"))


def test_main_context_of_trimmed_histories(tmp_path):
    """Titles of about 700 tokens each take the prompts past the token
    budget, so the oldest lines drop; the context holds the kept ads' S-ID
    tokens only, not the S-ID-like words of the titles and profile."""
    titles = [f"a_1 <b_2> {'word ' * 700}x_{k}" for k in range(6)]
    profiles, events = adversarial_world(titles, ["c_0", "<a_1>"])
    corpora = build_stage_corpora(_catalog(), SIDS, profiles, events,
                                  template_ids=(0, 1, 2))
    trimmed = [p for p in corpora["main"] if "x_0" not in p.prompt]
    assert trimmed and len(trimmed) < len(corpora["main"])
    check_main_contexts(corpora, tmp_path)
    check_window_contexts(corpora, _catalog(), profiles, events, template_ids=(0, 1, 2))


def load_world(spec, out_dir, assign):
    """The world of spec written by gen_data and read back as the pipeline
    reads it: (catalog, S-IDs, profiles, logged events by user), the S-IDs
    from assign(catalog)."""
    paths = synth.gen_data(spec, out_dir)
    catalog = load_catalog(paths["catalog"])
    sids = assign(catalog)
    return (catalog, sids, load_profiles(paths["profiles"]),
            load_events(paths["events"], sids))


def _trained_sids(catalog):
    table = embed_catalog(catalog, 16, 0)
    return rqvae.assign_sids(rqvae.train(rqvae.RqVaeConfig(
        codebook_size=8, latent_dim=8, epochs=30, seed=0), table), table)


@pytest.fixture(scope="module")
def world_s_inputs(tmp_path_factory):
    """Scale S: 4 categories x 8 ads, 20 users, 3 levels of 8 codes."""
    return load_world(synth.SyntheticSpec(), tmp_path_factory.mktemp("s"), _trained_sids)


@pytest.fixture(scope="module")
def world_s(world_s_inputs):
    catalog, sids, profiles, events = world_s_inputs
    return sids, build_stage_corpora(catalog, sids, profiles, events)


def _hand_sids(catalog):
    """Three-level S-IDs by catalog order, without a quantizer."""
    return {ad.ad_id: SemanticId((k % 3, k // 3, 0)) for k, ad in enumerate(catalog)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 4), st.integers(2, 12),
       st.integers(0, 5), st.sampled_from([(0,), (1, 2), (0, 1, 2)]))
def test_corpus_contexts_are_the_serving_contexts(tmp_path_factory, categories, ads,
                                                  users, events_per_user, seed,
                                                  template_ids):
    """In any tiny world, main pairs read back from text compile to the
    contexts of the built pairs. The bucket check holds by construction
    today, as build_stage_corpora calls the same compact_context over the
    same events. It is kept for ROADMAP item 4 step 2, which will pass each
    split its own history and so turn it into a check against user_context
    over the history before each pair's target."""
    out = tmp_path_factory.mktemp("w")
    catalog, sids, profiles, events = load_world(synth.SyntheticSpec(
        num_categories=categories, ads_per_category=ads, num_users=users,
        events_per_user=events_per_user, seed=seed), out, _hand_sids)
    corpora = build_stage_corpora(catalog, sids, profiles, events,
                                  template_ids=template_ids)
    serving = {uid: user_context(profiles[uid], events[uid], catalog).bucket
               for uid in events}
    for pair in corpora["implicit"] + corpora["main"]:
        assert pair.bucket == serving[pair.user_id]
    check_main_contexts(corpora, out)
    check_window_contexts(corpora, catalog, profiles, events, template_ids)


@pytest.mark.parametrize("title", [None, "b_3 clip"])
def test_main_context_is_the_window_ads(world_s_inputs, title):
    """In the S world, and in one whose content titles read "b_3 clip" (so
    the summary and the lines hold b_3), each main context is the S-ID
    tokens of the ad events in its prompt's behaviour window."""
    catalog, sids, profiles, events = world_s_inputs
    if title is not None:
        events = {uid: [dataclasses.replace(e, title=title) if e.domain == "content"
                        else e for e in logged] for uid, logged in events.items()}
    corpora = build_stage_corpora(catalog, sids, profiles, events)
    assert title is None or any(title in p.prompt for p in corpora["main"])
    check_window_contexts(corpora, catalog, profiles, events)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4 step 2: every split's bucket reads all "
                   "of the user's logged events, its own target and later ones "
                   "included")
def test_main_buckets_read_only_the_past(world_s_inputs, world_s):
    """No main pair's bucket reads its own target or a later event: it is
    the bucket decoding builds from the user's history before the target."""
    catalog, _, profiles, events = world_s_inputs
    past = []
    for uid in sorted(events):
        logged = events[uid]
        for _, target in interaction_reuse_splits(filter_events(logged)):
            cut = next(i for i, e in enumerate(logged) if e is target)
            past.append(user_context(profiles[uid], logged[:cut], catalog).bucket)
    main = world_s[1]["main"]
    # a length mismatch raises ValueError, which the xfail does not accept
    pairs = list(zip(main, past, strict=True))
    assert [p.bucket for p, _ in pairs] == [bucket for _, bucket in pairs]


def string_path_train(scorer, corpora, epochs, learning_rate=0.02, seed=0):
    """train_staged's neural loop over strings: every pair mapped to tokens,
    and each minibatch of the seeded permutation stepped through the
    batched gradient."""
    rng = np.random.default_rng(seed)
    for stage in alignment.STAGES:
        samples = [(scorer.vocab.ids(string_context(p)),
                    scorer.vocab.ids(string_response(p))) for p in corpora[stage]]
        for _ in range(epochs):
            perm = rng.permutation(len(samples))
            for start in range(0, len(perm), alignment.TRAIN_BATCH):
                batch = [samples[i] for i in perm[start:start + alignment.TRAIN_BATCH]]
                _, pullback = scorer.seq_logprob_vjp([c for c, _ in batch],
                                                     np.array([r for _, r in batch]))
                scorer.apply_grads(pullback(), -learning_rate)


def test_staged_neural_equals_string_path_at_scale_s(world_s):
    sids, corpora = world_s
    assert all(corpora[stage] for stage in alignment.STAGES)
    epochs = {stage: 2 for stage in alignment.STAGES}
    staged, _ = train_staged(NeuralScorer(vocab_from_sids(sids), seed=4), corpora,
                             epochs_per_stage=epochs, seed=4)
    reference = NeuralScorer(vocab_from_sids(sids), seed=4)
    string_path_train(reference, corpora, epochs=2, seed=4)
    for k in reference.params:
        np.testing.assert_array_equal(staged.params[k], reference.params[k], err_msg=k)


def test_unk_share_per_stage_at_scale_s(world_s):
    """The explicit and implicit prompts hold no S-ID token, so over the
    S-ID vocabulary every one of their context tokens is <unk>."""
    sids, corpora = world_s
    _, log = train_staged(NeuralScorer(vocab_from_sids(sids), embed_dim=4, hidden_dim=4),
                          corpora, epochs_per_stage={s: 1 for s in alignment.STAGES})
    assert {e["stage"]: e["unk_share"] for e in log} == {
        "explicit": 1.0, "implicit": 1.0, "main": 0.0}


def test_neural_lookups_do_not_grow_with_epochs(vocab, monkeypatch):
    users = {f"u{i}": _profile() for i in range(3)}
    corpora = build_stage_corpora(_catalog(), SIDS, users,
                                  {uid: _events() for uid in users})
    calls = []
    real = Vocabulary.ids

    def counting(vocab, tokens):
        calls.extend(tokens)
        return real(vocab, tokens)

    monkeypatch.setattr(Vocabulary, "ids", counting)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        train_staged(NeuralScorer(vocab, embed_dim=4, hidden_dim=4), corpora,
                     epochs_per_stage={s: epochs for s in alignment.STAGES})
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# --- preference triplets -----------------------------------------------------

def test_triplet_combinatorics():
    ctx = ScorerContext(tokens=("cat:cat0",))
    sids = [SemanticId((i, 0, 0)) for i in range(4)]
    candidates = {ctx: [(sids[0], 5.0), (sids[1], 3.0), (sids[2], 5.0),
                        (sids[3], 1.0)]}
    triplets = build_preference_triplets(candidates.items())
    # C(4,2)=6 pairs minus the one equal-ECPM pair
    assert len(triplets) == 5
    for t in triplets:
        assert t.user == ctx
    highs = {(t.high_ad.codes[0], t.low_ad.codes[0]) for t in triplets}
    assert highs == {(0, 1), (0, 3), (1, 3), (2, 1), (2, 3)}


def test_triplet_empty_and_all_equal():
    assert build_preference_triplets({}) == []
    ctx = ScorerContext()
    same = {ctx: [(SemanticId((0, 0)), 2.0), (SemanticId((1, 0)), 2.0)]}
    assert build_preference_triplets(same.items()) == []


def test_triplets_of_users_with_equal_contexts_are_kept():
    ctx = ScorerContext(tokens=("cat:cat0",))
    a = [(SemanticId((0, 0, 0)), 3.0), (SemanticId((1, 0, 0)), 1.0)]
    b = [(SemanticId((2, 0, 0)), 1.0), (SemanticId((3, 0, 0)), 2.0)]
    triplets = build_preference_triplets([(ctx, a), (ctx, b)])
    assert [(t.high_ad.codes[0], t.low_ad.codes[0]) for t in triplets] == [(0, 1), (3, 2)]


# --- DPO ---------------------------------------------------------------------

def _triplet(vocab, seed=0):
    ctx = ScorerContext(tokens=("cat:cat0",))
    return PreferenceTriplet(user=ctx, high_ad=SemanticId((1, 0, 0)),
                             low_ad=SemanticId((2, 1, 0)))


def test_dpo_loss_log2_at_reference(vocab):
    # policy == reference -> inner term 0 -> loss = log 2, for both variants
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=1)
    reference = policy.copy()
    for variant in ("log-ratio", "prob-ratio"):
        loss, _ = dpo_loss(policy, reference, _triplet(vocab), beta=0.1,
                           variant=variant)
        if variant == "prob-ratio":
            # ratios are both exactly 1, so beta*(1-1)=0 as well
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        else:
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_dpo_variants_differ_off_reference(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=1)
    reference = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=2)
    a, _ = dpo_loss(policy, reference, _triplet(vocab), variant="log-ratio")
    b, _ = dpo_loss(policy, reference, _triplet(vocab), variant="prob-ratio")
    assert a != pytest.approx(b, abs=1e-9)


def test_dpo_gradients_match_finite_differences(vocab):
    reference = NeuralScorer(vocab, embed_dim=6, hidden_dim=6, seed=3)
    triplet = _triplet(vocab)
    for variant in ("log-ratio", "prob-ratio"):
        policy = NeuralScorer(vocab, embed_dim=6, hidden_dim=6, seed=4)
        _, grads = dpo_loss(policy, reference, triplet, beta=0.3,
                            variant=variant)
        eps = 1e-6
        rng = np.random.default_rng(0)
        for name, arr in policy.params.items():
            flat = arr.reshape(-1)
            for j in rng.choice(flat.size, size=min(6, flat.size),
                                replace=False):
                old = flat[j]
                flat[j] = old + eps
                up, _ = dpo_loss(policy, reference, triplet, beta=0.3,
                                 variant=variant)
                flat[j] = old - eps
                down, _ = dpo_loss(policy, reference, triplet, beta=0.3,
                                   variant=variant)
                flat[j] = old
                fd = (up - down) / (2 * eps)
                g = grads[name].reshape(-1)[j]
                assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-6), \
                    (variant, name)


def test_dpo_update_increases_margin(vocab):
    reference = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=5)
    policy = reference.copy()
    triplets = [_triplet(vocab)]
    before = preference_margin(policy, triplets)
    policy, losses = dpo_update(policy, reference, triplets,
                                learning_rate=0.1, steps=20)
    after = preference_margin(policy, triplets)
    assert after > before
    assert losses[-1] < losses[0]
    # the reference was never touched
    np.testing.assert_array_equal(reference.params["emb"],
                                  NeuralScorer(vocab, embed_dim=8,
                                               hidden_dim=8, seed=5).params["emb"])


def loop_dpo_step(policy, reference, triplets, beta, learning_rate, variant):
    """A dpo_update step as a loop over the triplets, kept as the reference:
    each triplet's loss and gradient from the one-pair gradient of its two
    responses, added over len(triplets) to gradients that start at zero.
    Returns the mean loss."""
    total, loss_sum = policy.zero_grads(), 0.0
    for t in triplets:
        ctx = policy.vocab.ids(t.user.tokens)
        high, low = (policy.vocab.ids(sid.tokens()) for sid in (t.high_ad, t.low_ad))
        ref_h, ref_l = one_pair(reference, ctx, high)[0], one_pair(reference, ctx, low)[0]
        logp_h, grad_h = one_pair(policy, ctx, high)
        logp_l, grad_l = one_pair(policy, ctx, low)
        if variant == "prob-ratio":
            rho_h, rho_l = math.exp(logp_h - ref_h), math.exp(logp_l - ref_l)
            inner, coef_h, coef_l = beta * (rho_h - rho_l), beta * rho_h, beta * rho_l
        else:
            inner = beta * ((logp_h - ref_h) - (logp_l - ref_l))
            coef_h = coef_l = beta
        loss_sum += math.log1p(math.exp(-abs(inner))) + max(-inner, 0.0)
        d_inner = -1.0 / (1.0 + math.exp(inner))
        for k in total:
            total[k] += d_inner * (coef_h * grad_h[k] - coef_l * grad_l[k]) / len(triplets)
    policy.apply_grads(total, learning_rate)
    return loss_sum / len(triplets)


CONTEXT_TOKENS = ["cat:cat0", "cat:cat1", "a_1", "b_0", "c_0", "novel"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(CONTEXT_TOKENS), max_size=6),
                          st.sampled_from(sorted(SIDS)), st.sampled_from(sorted(SIDS))),
                min_size=1, max_size=9),
       st.sampled_from(alignment.DPO_VARIANTS), st.integers(1, 4),
       st.floats(0.05, 2.0), st.integers(0, 100))
def test_dpo_step_equals_per_triplet_loop(raw, variant, chunk, beta, seed):
    vocab = vocab_from_sids(SIDS, extra_tokens=["cat:cat0", "cat:cat1"])
    triplets = [PreferenceTriplet(user=ScorerContext(tokens=tuple(ctx)),
                                  high_ad=SIDS[high], low_ad=SIDS[low])
                for ctx, high, low in raw]
    reference = NeuralScorer(vocab, embed_dim=6, hidden_dim=5, seed=seed)
    policy = NeuralScorer(vocab, embed_dim=6, hidden_dim=5, seed=seed + 1)
    looped = policy.copy()
    want_loss = loop_dpo_step(looped, reference, triplets, beta, 0.3, variant)
    # chunks of 1 to 4 triplets: a step spans several of them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alignment, "DPO_CHUNK", chunk)
        _, (loss,) = dpo_update(policy, reference, triplets, beta=beta,
                                learning_rate=0.3, steps=1, variant=variant)
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
    for k in looped.params:
        np.testing.assert_allclose(policy.params[k], looped.params[k],
                                   rtol=0, atol=1e-12, err_msg=k)


def test_dpo_update_rejects_a_beta_that_cannot_align(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    for beta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(AlignmentError, match="beta must be a finite number > 0"):
            dpo_update(policy, policy.copy(), [_triplet(vocab)], beta=beta, steps=1)


def test_dpo_update_rejects_a_learning_rate_that_cannot_align(vocab):
    # at 0 every step returns the same loss, and below 0 the loss rises
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    fresh = policy.copy()
    for rate in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(AlignmentError,
                           match="learning_rate must be a finite number > 0"):
            dpo_update(policy, policy.copy(), [_triplet(vocab)], learning_rate=rate,
                       steps=1)
    for name, value in fresh.params.items():
        np.testing.assert_array_equal(policy.params[name], value)


def test_staged_ngram_rejects_responses_of_different_depths(vocab):
    # the n-gram's responses are mapped as one (P, n) array too
    pairs = [alignment.CorpusPair(prompt="p", response=SIDS["ad1"], stage="main"),
             alignment.CorpusPair(prompt="p", response=SemanticId((1, 0)), stage="main")]
    ngram = NgramScorer(vocab)
    with pytest.raises(AlignmentError, match="one depth"):
        train_staged(ngram, {"main": pairs}, order=("main",))
    assert ngram.counts == {}


def test_dpo_update_rejects_ads_of_different_depths(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    short = PreferenceTriplet(user=_triplet(vocab).user, high_ad=SIDS["ad1"],
                              low_ad=SemanticId((1, 0)))
    with pytest.raises(AlignmentError, match="one depth"):
        dpo_update(policy, policy.copy(), [_triplet(vocab), short], steps=1)


def test_dpo_unknown_variant(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    with pytest.raises(AlignmentError, match="variant"):
        dpo_loss(policy, policy.copy(), _triplet(vocab), variant="mystery")


def test_dpo_empty_triplets(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    _, losses = dpo_update(policy, policy.copy(), [], steps=3)
    assert losses == [0.0, 0.0, 0.0]


def test_dpo_update_rejects_negative_steps(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    with pytest.raises(AlignmentError, match="steps must be >= 0, got -1"):
        dpo_update(policy, policy.copy(), [_triplet(vocab)], steps=-1)


def test_dpo_rejects_reference_with_other_vocabulary(vocab):
    # the reference reads the ids the policy's vocabulary gives
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    other = NeuralScorer(vocab_from_sids(SIDS), embed_dim=8, hidden_dim=8, seed=0)
    with pytest.raises(AlignmentError, match="vocabularies"):
        dpo_loss(policy, other, _triplet(vocab))
    with pytest.raises(AlignmentError, match="vocabularies"):
        dpo_update(policy, other, [_triplet(vocab)], steps=1)
