import math

import numpy as np
import pytest

from genret import alignment
from genret.alignment import (AlignmentError, PreferenceTriplet,
                              build_preference_triplets, build_stage_corpora,
                              compact_context, dpo_loss, dpo_update,
                              explicit_pairs, load_corpus, make_bucket,
                              preference_margin, save_corpus,
                              summary_from_events, train_staged, user_context)
from genret.catalog import Ad, Catalog
from genret.prompting import BehaviorEvent, UserProfile
from genret.scorer import NeuralScorer, NgramScorer, ScorerContext
from genret.sid import SemanticId
from genret.vocab import vocab_from_sids

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
    assert p.response == SIDS["ad3"].render()
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
    # responses are rendered S-IDs in both
    assert final_implicit.response == SIDS["ad2"].render()
    assert final_main.response == SIDS["ad2"].render()


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


def test_summary_from_events_counts():
    summary = summary_from_events(_events(), _catalog())
    # ad1 -> cat1, ad2 -> cat0, content title "cat0 clip" -> cat0
    assert summary.entries == [("cat0", 2), ("cat1", 1)]


def test_make_bucket_and_compact_context():
    summary = summary_from_events(_events(), _catalog())
    bucket = make_bucket(_profile(), summary, _events())
    assert bucket == (3, "female", "cat0", SIDS["ad2"].codes[0])
    ctx = compact_context(_profile(), summary, _events())
    assert ctx.bucket == bucket
    assert ctx.tokens[:2] == ("cat:cat0", "cat:cat1")
    assert ctx.tokens[2:] == SIDS["ad1"].tokens() + SIDS["ad2"].tokens()


def test_corpus_round_trip(tmp_path):
    pairs = explicit_pairs(_catalog(), SIDS)
    path = tmp_path / "corpus.jsonl"
    save_corpus(pairs, path)
    assert load_corpus(path) == pairs


# --- staged training ---------------------------------------------------------

def test_staged_ngram_equals_weighted_single_pass(vocab, monkeypatch):
    corpora = build_stage_corpora(_catalog(), SIDS, {"u1": _profile()},
                                  {"u1": _events()})
    weights = {"explicit": 0.5, "implicit": 1.0, "main": 2.0}
    staged = NgramScorer(vocab)

    def no_tokenizing(text):
        raise AssertionError("the n-gram reads only the bucket")

    # the n-gram path never tokenizes a prompt
    with monkeypatch.context() as patch:
        patch.setattr(alignment, "tokenize_text", no_tokenizing)
        train_staged(staged, corpora, stage_weights=weights)

    # training stage-by-stage with those weights must equal three direct
    # weighted train() calls that parse every pair's response on its own
    # (count accumulation is order-independent)
    direct = NgramScorer(vocab)
    for stage in ("explicit", "implicit", "main"):
        direct.train([(ScorerContext(bucket=p.bucket),
                       list(SemanticId.parse(p.response).tokens()))
                      for p in corpora[stage]], weight=weights[stage])
    assert staged.counts == direct.counts
    ctx = ScorerContext(bucket=(3, "female", "cat0", SIDS["ad2"].codes[0]))
    np.testing.assert_allclose(staged.prob_dist(ctx, ["a_1"]),
                               direct.prob_dist(ctx, ["a_1"]), atol=1e-12)


def test_staged_ngram_parses_each_distinct_response_once(vocab, monkeypatch):
    users = {f"u{i}": _profile() for i in range(4)}
    corpora = build_stage_corpora(_catalog(), SIDS, users,
                                  {uid: _events() for uid in users})
    pairs = [p for stage in ("explicit", "implicit", "main") for p in corpora[stage]]
    distinct = {p.response for p in pairs}
    assert len(pairs) > len(distinct)

    parsed = []
    real = SemanticId.parse.__func__

    def counting(cls, text):
        parsed.append(text)
        return real(cls, text)

    with monkeypatch.context() as patch:
        patch.setattr(SemanticId, "parse", classmethod(counting))
        staged, _ = train_staged(NgramScorer(vocab), corpora)
    assert sorted(parsed) == sorted(distinct)

    # the count tables equal those of parsing every pair on its own
    per_pair = NgramScorer(vocab)
    for stage in ("explicit", "implicit", "main"):
        per_pair.train([(ScorerContext(bucket=p.bucket),
                         list(SemanticId.parse(p.response).tokens()))
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
    # log-likelihood with one call per pair and epoch, DPO makes one per step
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
    assert rates == [-0.05] * sum(epochs[s] * len(corpora[s]) for s in epochs)

    rates.clear()
    dpo_update(scorer, scorer.copy(), [_triplet(vocab)], learning_rate=0.1, steps=4)
    assert rates == [0.1] * 4


def test_staged_unsupported_scorer(vocab):
    with pytest.raises(AlignmentError, match="unsupported"):
        train_staged(object(), {"explicit": explicit_pairs(_catalog(), SIDS)},
                     order=("explicit",))


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


def test_dpo_unknown_variant(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    with pytest.raises(AlignmentError, match="variant"):
        dpo_loss(policy, policy.copy(), _triplet(vocab), variant="mystery")


def test_dpo_empty_triplets(vocab):
    policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
    _, losses = dpo_update(policy, policy.copy(), [], steps=3)
    assert losses == [0.0, 0.0, 0.0]
