"""Render intent prompts and run the three-stage training curriculum.

Shows the prompt template with profile, interest summary, and the merged
behavior sequence; the interaction-reuse augmentation; staged training
(explicit -> implicit -> main) of an n-gram scorer; and one fine-tuning step
of the neural scorer on one pair.
"""

from genret.alignment import build_stage_corpora, compile_corpus, train_staged
from genret.embed import embed_catalog
from genret.prompting import (BehaviorEvent, InterestSummary, UserProfile,
                              augment, build_prompt)
from genret.rqvae import RqVaeConfig, assign_sids, train
from genret.scorer import NeuralScorer, NgramScorer
from genret.sid import SemanticId
from genret.synth import SyntheticSpec, make_catalog
from genret.vocab import vocab_from_sids


def main():
    profile = UserProfile(age=29, gender="female", residence="Pudong, Shanghai",
                          education_level="master's", occupation="finance",
                          consumption_level="high")
    summary = InterestSummary([("travel", 41), ("fitness", 12), ("beauty", 5)])
    sid = SemanticId((3, 1, 4, 0))
    events = [
        BehaviorEvent(21, "play short video", "content", title="island hopping"),
        BehaviorEvent(14, "search", "content", title="trail shoes"),
        BehaviorEvent(6, "click on ad", "ad", ad_id="ad_x", sid=sid),
    ]

    print("=== rendered prompt (template 0) ===")
    print(build_prompt(profile, summary, events))

    print("\n=== interaction-reuse augmentation ===")
    _, main = augment(events, profile, summary)
    for s in main:
        history = s.prompt.count("days ago")
        print(f"  sample: {history} history events -> response {s.response.render()}")

    print("\n=== staged curriculum on synthetic users ===")
    spec = SyntheticSpec(num_categories=2, ads_per_category=4, num_users=6,
                         events_per_user=8, seed=1)
    catalog = make_catalog(spec)
    table = embed_catalog(catalog, 16, seed=1)
    model = train(RqVaeConfig(num_levels=2, codebook_size=4, latent_dim=8,
                              epochs=60, seed=1), table)
    sids = assign_sids(model, table)

    from genret.prompting import load_events, load_profiles
    from genret.synth import gen_data
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = gen_data(spec, tmp)
        profiles = load_profiles(paths["profiles"])
        events_by_user = load_events(paths["events"], sids)
        corpora = build_stage_corpora(catalog, sids, profiles, events_by_user)

    for stage in ("explicit", "implicit", "main"):
        print(f"  {stage}: {len(corpora[stage])} pairs; e.g.")
        example = corpora[stage][0]
        print(f"    prompt[:72] = {example.prompt[:72]!r}")
        print(f"    response    = {example.response.render()}")

    scorer = NgramScorer(vocab_from_sids(sids))
    _, log = train_staged(scorer, corpora)
    print("  stage log:", log)

    # fine-tuning ascends log P(response | context); train_staged steps on
    # the summed gradient of a minibatch, this is one pair's step
    neural = NeuralScorer(vocab_from_sids(sids), seed=1)
    contexts, responses, _ = compile_corpus(corpora["main"][:1], neural.vocab)
    before, pullback = neural.seq_logprob_vjp(contexts, responses)
    neural.apply_grads(pullback(), -0.05)
    print(f"  one neural step on the first main pair: log P {before[0]:.4f} -> "
          f"{neural.seq_logprob_vjp(contexts, responses)[0][0]:.4f}")


if __name__ == "__main__":
    main()
