"""Token vocabulary shared by scorers and the constrained decoder, and the
one place a token or an S-ID code becomes a model id."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .sid import is_token, parse_token, render_token

UNK = "<unk>"
SEP = "<sep>"
TASK = "<task>"

RESERVED = (UNK, SEP, TASK)

# A vocabulary with a code at or above this gets no per-level id tables, and
# code_ids looks up each code's rendered token: a table's memory grows with
# the greatest code a token names, and tokens come from scorer files.
TABLE_CODES = 1 << 16


@dataclass
class Vocabulary:
    """Dense, stable token-id mapping: reserved tokens first, then S-ID
    tokens sorted by (level, code), then any extra text tokens in sorted
    order."""

    tokens: list[str]
    id_of: dict[str, int] = field(init=False, repr=False, compare=False)
    # per level, indexed by code, the id of the token render_token spells for
    # it, and <unk> in a last slot that a clipped gather reads for every code
    # beyond; None when a code reaches TABLE_CODES
    _level_ids: list[np.ndarray] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.id_of = {t: i for i, t in enumerate(self.tokens)}
        code_id = {parse_token(t): i for t, i in self.id_of.items() if is_token(t)}
        top: dict[int, int] = {}  # level -> its greatest code
        for level, code in code_id:
            top[level] = max(top.get(level, 0), code)
        if max(top.values(), default=0) >= TABLE_CODES:
            self._level_ids = None
            return
        self._level_ids = [np.full(top.get(level, -1) + 2, self.id_of[UNK], dtype=np.intp)
                           for level in range(1 + max(top, default=-1))]
        for (level, code), i in code_id.items():
            self._level_ids[level][code] = i

    @classmethod
    def build(cls, sid_tokens, extra_tokens=()) -> "Vocabulary":
        sid_sorted = sorted(set(sid_tokens), key=parse_token)
        extra_sorted = sorted(set(extra_tokens) - set(sid_sorted) - set(RESERVED))
        return cls(list(RESERVED) + sid_sorted + extra_sorted)

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        """Unknown tokens map to the reserved unknown id."""
        return self.id_of.get(token, self.id_of[UNK])

    def ids(self, tokens) -> np.ndarray:
        """``lookup`` of each token, in order, as one intp array."""
        return np.fromiter(map(self.id_of.get, tokens, repeat(self.id_of[UNK])),
                           dtype=np.intp, count=len(tokens))

    def code_ids(self, level: int, codes: np.ndarray) -> np.ndarray:
        """``lookup(render_token(level, c))`` for each code c of an int
        array: one gather from the level's table, or token by token at a
        level the tables do not reach or in a vocabulary too wide for them."""
        if self._level_ids is None or level >= len(self._level_ids):
            return self.ids([render_token(level, code) for code in codes.tolist()])
        return self._level_ids[level].take(codes, mode="clip")


def vocab_from_sids(sids, extra_tokens=()) -> Vocabulary:
    return Vocabulary.build([t for sid in sids.values() for t in sid.tokens()], extra_tokens)
