import math

import numpy as np
import pytest
from hypothesis import strategies as st

from genret.decoder import DecodeError, RetrievalList
from genret.prompting import BehaviorEvent, InterestSummary, UserProfile, build_prompt
from genret.scorer import RowState
from genret.sid import SemanticId, SidError, render_token
from genret.trie import Trie, build
from genret.vocab import Vocabulary, vocab_from_sids

EXAMPLE_SIDS = {
    "Ad_66": SemanticId((12, 7, 4)),
    "Ad_245": SemanticId((12, 7, 14)),
    "Ad_112": SemanticId((12, 6, 22)),
}

# worked probability table: P(a_12)=0.6; P(b_7)=0.5, P(b_6)=0.4;
# P(c_4)=0.8, P(c_14)=0.4, P(c_22)=0.8
EXAMPLE_PROBS = {
    (): {"a_12": 0.6},
    ("a_12",): {"b_7": 0.5, "b_6": 0.4},
    ("a_12", "b_7"): {"c_4": 0.8, "c_14": 0.4},
    ("a_12", "b_6"): {"c_22": 0.8},
}


class RowScorer:
    """Base for test scorers that answer one prefix at a time: ``begin``
    gives their decode state over their ``prob_dist`` rows."""

    def begin(self, context) -> RowState:
        return RowState(self.prob_dist, context)


def render_scan(text):
    """The main-stage context by an oracle that uses no regex: the tokens
    of each ``<...>`` span, from a "<" to the next ">", that
    SemanticId.parse accepts and that re-renders to itself, in order."""
    tokens = []
    start = text.find("<")
    while start >= 0:
        end = text.find(">", start)
        if end < 0:
            break
        try:
            sid = SemanticId.parse(text[start:end + 1])
        except SidError:
            sid = None
        if sid is not None and sid.render() == text[start:end + 1]:
            tokens += sid.tokens()
        start = text.find("<", start + 1)
    return tuple(tokens)


def window_ad_tokens(prompt, profile, summary, history, template_id):
    """The S-ID tokens of the ad events whose behaviour lines the prompt
    keeps, oldest first. The kept events are the one suffix of history that
    builds the prompt without a token budget."""
    for start in range(len(history) + 1):
        window = history[start:]
        if build_prompt(profile, summary, window, template_id, 10**9) == prompt:
            return tuple(t for e in window if e.domain == "ad" for t in e.sid.tokens())
    raise AssertionError(f"no suffix of the history builds {prompt!r}")


def one_pair(scorer, ctx_ids, resp_ids):
    """log P(response | context) of one pair, as a float, and its gradient:
    ``seq_logprob_vjp`` over a batch of that pair alone."""
    logps, pullback = scorer.seq_logprob_vjp([ctx_ids], np.asarray(resp_ids)[None])
    return float(logps[0]), pullback()


class TableScorer(RowScorer):
    """Scorer backed by an explicit per-prefix probability table; mass not
    listed goes to the unknown token so distributions still sum to 1."""

    def __init__(self, table, vocab: Vocabulary):
        self.table = table
        self.vocab = vocab

    def prob_dist(self, context, prefix):
        """The table row of the prefix's tokens; the decoder passes ids."""
        dist = np.zeros(len(self.vocab))
        row = self.table.get(tuple(self.vocab.tokens[i] for i in prefix), {})
        for token, p in row.items():
            dist[self.vocab.lookup(token)] = p
        dist[self.vocab.lookup("<unk>")] += max(0.0, 1.0 - dist.sum())
        return dist


def from_entries(entries) -> RetrievalList:
    """The list of (ad_id, SemanticId, score) entries, in their order."""
    return RetrievalList([(ad_id, score) for ad_id, _, score in entries],
                         [sid for _, sid, _ in entries])


def reference_owners(sids):
    """Leaf owners as inserting in ad-id order leaves them: the last
    inserter of a repeated sequence, the greatest ad id, owns its leaf."""
    owners = {}
    for ad_id in sorted(sids):
        owners[sids[ad_id].codes] = ad_id
    return owners


# The per-candidate beam search that decode replaced with array operations
# over the trie's level views, kept as a test-only pruning oracle: it
# walks the node dicts, and decode must give its entries bit for bit and its
# contract-error messages word for word.
def reference_decode(scorer, context, trie: Trie, beam_width: int) -> RetrievalList:
    """Layer-by-layer beam expansion constrained to trie-valid children.

    Each layer stacks the ``scorer.prob_dist`` rows of the whole beam. After
    each layer the top beam_width candidates survive; ties break by higher
    score first, then lexicographic code sequence. Scores are cumulative
    products of per-step probabilities, from 1.0, with a zero of either
    sign reported as 0.0.
    """
    if beam_width < 1:
        raise DecodeError(f"beam_width must be >= 1, got {beam_width}")
    if trie.ad_count == 0:
        raise DecodeError("empty inventory: trie holds no ads")

    # The beam is kept in lexicographic code order, so listing each entry's
    # children in ascending code order lists the candidates in lexicographic
    # order too, and a stable sort on score ranks them by (-score, codes).
    # Each entry's prefix is its vocabulary ids, which is what the scorer reads.
    v = len(scorer.vocab)
    codes, prefixes, scores, nodes = [()], [()], [1.0], [trie.root]
    for level in range(trie.depth):
        probs = np.array([scorer.prob_dist(context, p) for p in prefixes])
        if probs.shape != (len(prefixes), v):
            raise DecodeError(
                f"scorer contract violated: prob_dist returned shape "
                f"{probs.shape} for {len(prefixes)} prefixes")
        candidates = [(i, c) for i, node in enumerate(nodes) for c in node.children]
        id_of = {c: scorer.vocab.lookup(render_token(level, c))
                 for c in {c for _, c in candidates}}
        p = probs.ravel()[[i * v + id_of[c] for i, c in candidates]].tolist()
        bad = [k for k, x in enumerate(p) if not 0.0 <= x < math.inf]
        if bad:
            raise DecodeError(f"scorer contract violated: p={p[bad[0]]} for token "
                              f"{render_token(level, candidates[bad[0]][1])}")
        expanded = [scores[i] * x + 0.0 for (i, _), x in zip(candidates, p)]
        ranked = sorted(range(len(expanded)), key=expanded.__getitem__, reverse=True)
        keep = sorted(ranked[:beam_width])
        scores = [expanded[k] for k in keep]
        kept = [candidates[k] for k in keep]
        codes = [codes[i] + (c,) for i, c in kept]
        prefixes = [prefixes[i] + (id_of[c],) for i, c in kept]
        nodes = [nodes[i].children[c] for i, c in kept]

    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    entries = [(nodes[i].end_of_ad, SemanticId(codes[i]), scores[i])
               for i in ranked if nodes[i].end_of_ad is not None]
    return from_entries(entries)


def worked_prompt_inputs():
    """Inputs reproducing the frozen full-prompt rendering example."""
    profile = UserProfile(
        age=22, gender="male", residence="Haidian, Beijing",
        education_level="bachelor's", occupation="Internet industry",
        consumption_level="medium",
    )
    summary = InterestSummary([
        ("emotion", 115), ("entertainment", 28), ("mental health", 8),
        ("education", 6), ("finance", 6),
    ])
    sid_a = SemanticId((51, 10, 67, 93, 0))
    sid_b = SemanticId((243, 136, 23, 245, 0))
    sid_c = SemanticId((164, 243, 38, 88, 0))
    events = [
        BehaviorEvent(32, "play short video", "content", title="reality"),
        BehaviorEvent(31, "click on ad", "ad", ad_id="x1", sid=sid_a),
        BehaviorEvent(27, "play short video", "content", title="shuttlecock"),
        BehaviorEvent(25, "Play short video", "content",
                      title="Emotional/psychological age test"),
        BehaviorEvent(22, "Conversion ad", "ad", ad_id="x2", sid=sid_b),
        BehaviorEvent(19, "Click ad", "ad", ad_id="x3", sid=sid_c),
        BehaviorEvent(16, "Conversion ad", "ad", ad_id="x1", sid=sid_a),
    ]
    return profile, summary, events


WORKED_PROMPT = (
    "The following is an instruction describing a task. Please give a "
    "response to complete this request appropriately.\n"
    "22-year-old male, resident in Haidian, Beijing, with a bachelor's "
    "degree, working in Internet industry, with a medium consumption level. "
    "The categories that have been frequently interacted recently are "
    "(format: category^interaction times): emotion^115 times; "
    "entertainment^28 times; mental health^8 times; education^6 times; "
    "finance^6 times;\n"
    "The most recent interaction behavior sequence details "
    "(format: time^behavior type^title) are "
    "32 days ago^play short video^reality; "
    "31 days ago^click on ad^<a_51, b_10, c_67, d_93, e_0>; "
    "27 days ago^play short video^shuttlecock; "
    "25 days ago^Play short video^Emotional/psychological age test; "
    "22 days ago^Conversion ad^<a_243, b_136, c_23, d_245, e_0>; "
    "19 days ago^Click ad^<a_164, b_243, c_38, d_88, e_0>; "
    "16 days ago^Conversion ad^<a_51, b_10, c_67, d_93, e_0>. "
    "what ad will the user be interested in next time?"
)


@pytest.fixture
def example_trie():
    return build(EXAMPLE_SIDS)


@pytest.fixture
def example_scorer():
    vocab = vocab_from_sids(EXAMPLE_SIDS)
    return TableScorer(EXAMPLE_PROBS, vocab)


@st.composite
def collision_tries(draw, max_levels=3):
    """S-IDs of 1 to max_levels base codes plus a suffix that numbers each
    collision group, as assign_sids gives them, and a few ads that repeat
    another's S-ID; returns (sids, trie)."""
    levels, span = draw(st.integers(1, max_levels)), draw(st.integers(1, 4))
    bases = draw(st.lists(st.tuples(*[st.integers(0, span - 1)] * levels),
                          min_size=1, max_size=24))
    seen: dict[tuple, int] = {}
    codes = []
    for base in bases:
        seen[base] = seen.get(base, -1) + 1
        codes.append(base + (seen[base],))
    codes += [codes[i] for i in draw(st.lists(st.integers(0, len(codes) - 1),
                                              max_size=3))]
    sids = {f"ad{i:02d}": SemanticId(c) for i, c in enumerate(codes)}
    return sids, build(sids)
