"""Token vocabulary shared by scorers and the constrained decoder, and the
one place an S-ID code becomes a model id."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sid import is_token, parse_token, render_token

UNK = "<unk>"
SEP = "<sep>"
TASK = "<task>"

RESERVED = (UNK, SEP, TASK)

# A vocabulary with a code at or above this gets no per-level id tables, and
# code_ids maps code by code: a table's memory grows with the greatest code a
# token names, and tokens come from scorer files.
TABLE_CODES = 1 << 16


@dataclass
class Vocabulary:
    """Dense, stable token-id mapping: reserved tokens first, then S-ID
    tokens sorted by (level, code), then any extra text tokens in sorted
    order."""

    tokens: list[str]
    id_of: dict[str, int] = field(init=False, repr=False, compare=False)
    # (level, code) -> id of the token render_token spells for it
    _code_id: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    # the same map as one array per level, indexed by code, whose last slot
    # is <unk>: a gather clipped to it reads <unk> for every code beyond;
    # None when a code reaches TABLE_CODES
    _level_ids: list[np.ndarray] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.id_of = {t: i for i, t in enumerate(self.tokens)}
        self._code_id = {parse_token(t): i for t, i in self.id_of.items()
                         if is_token(t) and render_token(*parse_token(t)) == t}
        top: dict[int, int] = {}  # level -> its greatest code
        for level, code in self._code_id:
            top[level] = max(top.get(level, 0), code)
        if max(top.values(), default=0) >= TABLE_CODES:
            self._level_ids = None
            return
        self._level_ids = [np.full(top.get(level, -1) + 2, self.id_of[UNK], dtype=np.intp)
                           for level in range(1 + max(top, default=-1))]
        for (level, code), i in self._code_id.items():
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

    def code_id(self, level: int, code: int) -> int:
        """The id of S-ID code ``code`` at ``level``, as
        ``lookup(render_token(level, code))`` gives it, with no rendering."""
        return self._code_id.get((level, code), self.id_of[UNK])

    def code_ids(self, level: int, codes: np.ndarray) -> np.ndarray:
        """``code_id(level, c)`` for each code of an int array: one gather
        from the level's table, or code by code in a vocabulary too wide for
        tables."""
        if self._level_ids is None:
            return np.array([self.code_id(level, code) for code in codes.tolist()],
                            dtype=np.intp)
        if level >= len(self._level_ids):
            return np.full(len(codes), self.id_of[UNK], dtype=np.intp)
        return self._level_ids[level].take(codes, mode="clip")

    def sid_ids(self, sid) -> list[int]:
        """A SemanticId's codes as ids, level by level."""
        return [self.code_id(level, code) for level, code in enumerate(sid.codes)]


def vocab_from_sids(sids, extra_tokens=()) -> Vocabulary:
    toks = []
    for sid in sids.values():
        toks.extend(sid.tokens())
    return Vocabulary.build(toks, extra_tokens)
