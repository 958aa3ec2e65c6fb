"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is a single test with pinned tolerances.
"""

import json
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

from genret.alignment import (build_stage_corpora, compact_context, dpo_loss,
                              dpo_update, preference_margin,
                              summary_from_events, train_staged)
from genret.alignment import PreferenceTriplet
from genret.decoder import decode, decode_exhaustive
from genret.metrics import (EvalRecord, dice, diversity, hit_ratio, ltrr,
                            ndcg)
from genret.pipeline import PipelineConfig, run_pipeline
from genret.prompting import (BehaviorEvent, build_prompt,
                              interaction_reuse_splits)
from genret.rqvae import (RqVaeConfig, _forward_backward, assign_sids,
                          codebook_metrics, freeze_forward, init_model,
                          quantize, seed_codebooks, surrogate_loss,
                          total_loss, train)
from genret.scorer import NeuralScorer, ScorerContext
from genret.serving import (AdmissionPolicy, FeatureStore, Request,
                            WorkerPool, nearline_tick, run_simulation)
from genret.sid import SemanticId
from genret.synth import SyntheticSpec, make_catalog, make_cluster_table, \
    make_events, make_profiles
from genret.trie import build, contains
from genret.vocab import vocab_from_sids

from conftest import (EXAMPLE_PROBS, EXAMPLE_SIDS, WORKED_PROMPT, RowScorer,
                      TableScorer, worked_prompt_inputs)

CTX = ScorerContext()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS")


def _example_setup():
    trie = build(EXAMPLE_SIDS)
    scorer = TableScorer(EXAMPLE_PROBS, vocab_from_sids(EXAMPLE_SIDS))
    return trie, scorer


def test_01_worked_beam_example():
    with criterion(1, "worked beam example, B=2, scores exact to 1e-12"):
        trie, scorer = _example_setup()
        decode(scorer, CTX, trie, beam_width=2)  # warm-up
        start = time.perf_counter()
        result = decode(scorer, CTX, trie, beam_width=2)
        elapsed = time.perf_counter() - start
        entries = [(sid.tokens(), score) for _, sid, score in result.entries]
        assert entries[0][0] == ("a_12", "b_7", "c_4")
        assert entries[1][0] == ("a_12", "b_6", "c_22")
        assert abs(entries[0][1] - 0.24) < 1e-12
        assert abs(entries[1][1] - 0.192) < 1e-12
        assert len(entries) == 2
        assert elapsed < 1e-3, f"decode took {elapsed * 1e3:.3f} ms"


def test_02_trie_shape():
    with criterion(2, "three-ad trie shape and membership"):
        trie, _ = _example_setup()
        root = trie.root
        assert set(root.children) == {12}
        a12 = root.children[12]
        assert set(a12.children) == {7, 6}
        assert set(a12.children[7].children) == {4, 14}
        assert set(a12.children[6].children) == {22}
        ends = [a12.children[7].children[4], a12.children[7].children[14],
                a12.children[6].children[22]]
        assert all(n.end_of_ad for n in ends)
        assert sum(1 for n in ends if n.end_of_ad) == 3
        for sid in EXAMPLE_SIDS.values():
            assert contains(trie, sid)


def test_03_oracle_equivalence_fuzz():
    with criterion(3, "beam equals exhaustive oracle over 1000 fuzz trials"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            if trial % 100 == 0:
                n_ads, levels, span = 200, 3, 8
            else:
                levels = int(rng.integers(2, 5))
                span = int(rng.integers(2, 6))
                capacity = span ** (levels + 1)
                n_ads = int(rng.integers(2, min(25, capacity // 2 + 2)))
            codes = set()
            while len(codes) < n_ads:
                codes.add(tuple(int(rng.integers(span ** (1 if l else 2)))
                                for l in range(levels)))
            sids = {f"ad{i}": SemanticId(c)
                    for i, c in enumerate(sorted(codes))}
            trie = build(sids)
            vocab = vocab_from_sids(sids)
            seed = int(rng.integers(1 << 31))

            class RandomScorer(RowScorer):
                def __init__(self):
                    self.vocab = vocab

                def prob_dist(self, context, prefix):
                    local = np.random.default_rng(
                        (seed, hash(tuple(prefix)) & 0x7FFFFFFF))
                    dist = local.random(len(vocab)) + 1e-9
                    return dist / dist.sum()

            scorer = RandomScorer()
            beam = decode(scorer, CTX, trie, beam_width=len(sids))
            full = decode_exhaustive(scorer, CTX, trie)
            assert beam.ad_ids() == full.ad_ids(), f"trial {trial}"
            assert [s for _, _, s in beam.entries] == \
                [s for _, _, s in full.entries], f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"fuzz took {elapsed:.1f} s"


def test_04_rqvae_correctness():
    with criterion(4, "RQ-VAE telescoping, gradients 1e-4, training to 10%"):
        # residual telescoping at machine precision
        rng = np.random.default_rng(0)
        codebooks = [rng.normal(size=(6, 8)) for _ in range(4)]
        z_hat = rng.normal(size=8)
        codes, z, residuals = quantize(codebooks, z_hat)
        np.testing.assert_allclose(z + residuals[-1], z_hat, atol=1e-14)
        for l, c in enumerate(codes):
            np.testing.assert_allclose(residuals[l + 1] + codebooks[l][c],
                                       residuals[l], atol=1e-14)

        # finite-difference gradient validation: d_PLM=16, d_RQ=8, M=2, K=4
        config = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8,
                             seed=0)
        model = init_model(config, 16)
        X = np.random.default_rng(1).normal(size=(6, 16))
        frozen = freeze_forward(model, X)
        base_loss, grads = _forward_backward(model, X)
        assert abs(surrogate_loss(model, X, frozen) - base_loss) < 1e-12
        eps = 1e-6
        check_rng = np.random.default_rng(2)
        worst = 0.0
        for name, arr in model.param_items():
            flat = arr.reshape(-1)
            picks = check_rng.choice(flat.size, size=min(10, flat.size),
                                     replace=False)
            for j in picks:
                old = flat[j]
                flat[j] = old + eps
                up = surrogate_loss(model, X, frozen)
                flat[j] = old - eps
                down = surrogate_loss(model, X, frozen)
                flat[j] = old
                fd = (up - down) / (2 * eps)
                g = grads[name].reshape(-1)[j]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
        assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"

        # training on the 4-cluster corpus to <= 10% of initial loss
        start = time.perf_counter()
        table = make_cluster_table(4, 16, dim=16, seed=0)
        train_config = RqVaeConfig(num_levels=3, codebook_size=8,
                                   latent_dim=8, epochs=200, seed=0)
        init_rng = np.random.default_rng(train_config.seed)
        X0 = table.matrix(sorted(table.entries))
        initial_model = init_model(train_config, X0.shape[1], init_rng)
        seed_codebooks(initial_model, X0, init_rng)
        initial = total_loss(initial_model, table)
        trained = train(train_config, table)
        final = total_loss(trained, table)
        elapsed = time.perf_counter() - start
        assert final <= 0.10 * initial, \
            f"loss only reached {final / initial:.1%} of initial"
        assert elapsed < 60.0, f"training took {elapsed:.1f} s"


def test_05_collision_trend():
    with criterion(5, "collision rate ordering (M=4,K=1024) <= (M=3,K=1024)"
                      " <= (M=3,K=256)"):
        table = make_cluster_table(8, 16, dim=16, seed=3)
        rates = {}
        for label, (m, k) in (("m4k1024", (4, 1024)), ("m3k1024", (3, 1024)),
                              ("m3k256", (3, 256))):
            config = RqVaeConfig(num_levels=m, codebook_size=k, latent_dim=8,
                                 epochs=40, seed=0)
            model = train(config, table)
            sids = assign_sids(model, table)
            rate, _, usage = codebook_metrics(sids, config)
            rates[label] = rate
            print(f"  {label}: collision_rate={rate:.4f} "
                  f"usage_rate_per_level={[round(u, 4) for u in usage]} "
                  f"mean={np.mean(usage):.4f}")
        assert rates["m4k1024"] <= rates["m3k1024"] <= rates["m3k256"]


def test_06_dpo_properties():
    with criterion(6, "DPO log 2 at reference, FD gradients, margin increase"):
        start = time.perf_counter()
        sids = {f"ad{i}": SemanticId((i % 3, i // 3, 0)) for i in range(6)}
        vocab = vocab_from_sids(sids, extra_tokens=["cat:x"])
        ctx = ScorerContext(tokens=("cat:x",))
        triplets = [
            PreferenceTriplet(user=ctx, high_ad=sids["ad0"],
                              low_ad=sids["ad4"]),
            PreferenceTriplet(user=ctx, high_ad=sids["ad2"],
                              low_ad=sids["ad5"]),
        ]

        # both variants equal log 2 when policy == reference
        policy = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=0)
        reference = policy.copy()
        for variant in ("prob-ratio", "log-ratio"):
            loss, _ = dpo_loss(policy, reference, triplets[0],
                               variant=variant)
            assert abs(loss - math.log(2.0)) < 1e-12, variant

        # finite-difference gradients within 1e-4 relative, both variants
        reference = NeuralScorer(vocab, embed_dim=6, hidden_dim=6, seed=1)
        eps = 1e-6
        for variant in ("prob-ratio", "log-ratio"):
            policy = NeuralScorer(vocab, embed_dim=6, hidden_dim=6, seed=2)
            _, grads = dpo_loss(policy, reference, triplets[0], beta=0.2,
                                variant=variant)
            rng = np.random.default_rng(0)
            for name, arr in policy.params.items():
                flat = arr.reshape(-1)
                for j in rng.choice(flat.size, size=min(6, flat.size),
                                    replace=False):
                    old = flat[j]
                    flat[j] = old + eps
                    up, _ = dpo_loss(policy, reference, triplets[0],
                                     beta=0.2, variant=variant)
                    flat[j] = old - eps
                    down, _ = dpo_loss(policy, reference, triplets[0],
                                       beta=0.2, variant=variant)
                    flat[j] = old
                    fd = (up - down) / (2 * eps)
                    g = grads[name].reshape(-1)[j]
                    assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-6), \
                        (variant, name)

        # one small-step update strictly increases the mean margin
        reference = NeuralScorer(vocab, embed_dim=8, hidden_dim=8, seed=3)
        policy = reference.copy()
        before = preference_margin(policy, triplets)
        policy, _ = dpo_update(policy, reference, triplets,
                               learning_rate=0.05, steps=1)
        after = preference_margin(policy, triplets)
        assert after > before
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"DPO checks took {elapsed:.1f} s"


def test_07_metric_closed_forms():
    with criterion(7, "metric closed forms and NDCG <= HR on 1000 records"):
        retrieved = [f"a{i}" for i in range(10)]
        for rank in range(1, 11):
            records = [EvalRecord("u", retrieved, f"a{rank - 1}")]
            assert abs(ndcg(records, 10) - 1.0 / math.log2(rank + 1)) < 1e-12

        records = [EvalRecord("u1", ["a", "b", "c"], "b"),
                   EvalRecord("u2", ["a", "b", "c"], "z")]
        assert hit_ratio(records, 2) == 0.5
        assert dice(["a", "b"], ["b", "c"]) == 0.5
        cats = {"a": "x", "b": "x", "c": "y"}
        conc, abund, score = diversity(
            [EvalRecord("u", ["a", "b", "c"], "a", cats)], 3)
        assert abs(conc - 2 / 3) < 1e-12
        assert abund == 2.0
        assert abs(score - ((1 - 2 / 3) + (2 - 1) / 2) / 2) < 1e-12
        mean, excluded = ltrr(
            [EvalRecord("u", ["a", "b"], "a", ltr_labels={"a", "z"})], 2)
        assert mean == 0.5 and excluded == 0

        rng = np.random.default_rng(7)
        pool = [f"a{i}" for i in range(20)]
        random_records = []
        for u in range(1000):
            perm = list(rng.permutation(pool))
            random_records.append(
                EvalRecord(f"u{u}", perm[:8], pool[int(rng.integers(20))]))
        for k in (1, 4, 8):
            assert ndcg(random_records, k) <= hit_ratio(random_records, k) + 1e-12


def _ablation_hr(seed):
    """Held-out HR@4 for staged versus main-only neural training."""
    spec = SyntheticSpec(num_categories=2, ads_per_category=4, num_users=20,
                         events_per_user=8, seed=seed)
    catalog = make_catalog(spec)
    profiles_raw = make_profiles(spec)
    train_events, truth, _, _ = make_events(spec, catalog)

    from genret.catalog import render_description
    from genret.embed import embed_catalog
    from genret.prompting import UserProfile
    from genret.scorer import tokenize_text

    table = embed_catalog(catalog, 16, seed)
    rq = RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8, epochs=60,
                     seed=seed)
    model = train(rq, table)
    sids = assign_sids(model, table)
    trie = build(sids)
    # a vocabulary covering catalog description words lets the explicit and
    # implicit stages carry real signal into the main stage
    extra = [f"cat:{c}" for c in sorted(catalog.category_index)]
    for ad in catalog:
        extra.extend(tokenize_text(render_description(ad)))
    vocab = vocab_from_sids(sids, extra_tokens=extra)

    profiles = {uid: UserProfile(**{k: v for k, v in p.items()
                                    if k != "user_id"})
                for uid, p in profiles_raw.items()}
    events_by_user = {}
    for uid, rows in train_events.items():
        events_by_user[uid] = [
            BehaviorEvent(days_ago=r["days_ago"], event_type=r["event_type"],
                          domain=r["domain"], positive=r["positive"],
                          title=r.get("title"), ad_id=r.get("ad_id"),
                          sid=sids.get(r.get("ad_id")))
            for r in rows
        ]
    corpora = build_stage_corpora(catalog, sids, profiles, events_by_user,
                                  seed=seed)

    def evaluate(scorer):
        records = []
        for uid, events in sorted(events_by_user.items()):
            summary = summary_from_events(events, catalog)
            ctx = compact_context(profiles[uid], summary, events)
            result = decode(scorer, ctx, trie, beam_width=4)
            records.append(EvalRecord(uid, result.ad_ids(), truth[uid]))
        return hit_ratio(records, 4)

    epochs = {"explicit": 2, "implicit": 2, "main": 2}
    staged = NeuralScorer(vocab, embed_dim=12, hidden_dim=16, seed=seed)
    train_staged(staged, corpora, order=("explicit", "implicit", "main"),
                 epochs_per_stage=epochs, seed=seed)
    main_only = NeuralScorer(vocab, embed_dim=12, hidden_dim=16, seed=seed)
    train_staged(main_only, corpora, order=("main",),
                 epochs_per_stage=epochs, seed=seed)
    return evaluate(staged), evaluate(main_only)


def test_08_ablation_direction():
    with criterion(8, "staged EX->IM->Main HR@4 >= Main-only (mean, 5 seeds)"):
        staged_scores, main_scores = [], []
        for seed in range(5):
            s, m = _ablation_hr(seed)
            staged_scores.append(s)
            main_scores.append(m)
        staged_mean = float(np.mean(staged_scores))
        main_mean = float(np.mean(main_scores))
        print(f"  staged HR@4 per seed: {staged_scores} (mean {staged_mean:.3f})")
        print(f"  main-only HR@4 per seed: {main_scores} (mean {main_mean:.3f})")
        assert staged_mean >= main_mean
        if staged_mean == main_mean:
            print("  note: documented tie (means equal)")


def test_09_prompt_fidelity():
    with criterion(9, "worked prompt byte-for-byte and reuse augmentation"):
        profile, summary, events = worked_prompt_inputs()
        assert build_prompt(profile, summary, events, template_id=0) == \
            WORKED_PROMPT

        def ad(days, i):
            return BehaviorEvent(days, "click_ad", "ad", ad_id=f"a{i}",
                                 sid=SemanticId((i, 0, 0)))

        def content(days, title):
            return BehaviorEvent(days, "search", "content", title=title)

        c1, a2, a3 = content(50, "c1"), ad(40, 2), ad(30, 3)
        c4, a5 = content(20, "c4"), ad(10, 5)
        pairs = interaction_reuse_splits([c1, a2, a3, c4, a5])
        assert pairs == [([c1], a2), ([c1, a2], a3),
                         ([c1, a2, a3, c4], a5)]


def test_10_serving_invariants():
    with criterion(10, "serving: zero request-path decodes, atomic publish, "
                       "priority admission, balanced dispatch"):
        start = time.perf_counter()

        # 10,000-request trace: the latency-sensitive path never decodes
        users = [f"u{i:03d}" for i in range(100)]
        trace = [Request(users[(7 * i) % 100], i // 100)
                 for i in range(10_000)]
        trace.sort(key=lambda r: r.arrival_tick)
        policy = AdmissionPolicy(
            arpu_of={u: float(i) for i, u in enumerate(users)},
            budget_per_tick=20)
        report = run_simulation(trace, lambda u: [(u, 1.0)], policy,
                                WorkerPool(4), ticks=110)
        assert report["requests"] == 10_000
        assert report["decoder_invocations_in_request_path"] == 0

        # atomic-publication fuzz: 10,000 publications under concurrent reads
        store = FeatureStore()
        versions = {v: tuple((f"ad{v}_{j}", float(v)) for j in range(3))
                    for v in range(10_000)}
        store.publish("u", versions[0], 0)
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                entries, at = store.get("u")
                if entries != versions[at]:
                    torn.append(at)
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for v in range(1, 10_000):
            store.publish("u", versions[v], v)
        stop.set()
        for t in readers:
            t.join()
        assert not torn

        # budget 1 with two pending groups: higher ARPU always admitted first
        two_group = AdmissionPolicy(arpu_of={"low": 1.0, "high": 9.0},
                                    budget_per_tick=1, num_groups=2)
        admitted = []
        triggers = []
        seqno = 0
        for tick in range(50):
            for u in ("low", "high"):
                seqno += 1
                triggers.append((tick, seqno, u))
            nearline_tick(FeatureStore(), triggers, two_group, WorkerPool(1),
                          lambda u: admitted.append(u) or [], tick, {})
        assert all(u == "high" for u in admitted)

        # dispatch balance under 8 concurrent dispatchers
        pool = WorkerPool(5)

        def work():
            for _ in range(250):
                pool.dispatch_one()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(pool.processed) == 2000
        assert max(pool.processed) - min(pool.processed) <= 1

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"serving checks took {elapsed:.1f} s"


def test_11_end_to_end_determinism(tmp_path):
    with criterion(11, "identical config+seed produce identical manifests"):
        kw = dict(
            seed=5,
            synthetic={"num_categories": 2, "ads_per_category": 4,
                       "num_users": 5, "events_per_user": 6},
            embed_dim=16,
            rqvae={"num_levels": 2, "codebook_size": 4, "latent_dim": 4,
                   "epochs": 30},
            beam_width=4, eval_k=(1, 4),
        )
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "a"), **kw))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "b"), **kw))
        manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest_a == manifest_b
