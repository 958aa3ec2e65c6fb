"""Token vocabulary shared by scorers and the constrained decoder."""

from __future__ import annotations

from dataclasses import dataclass, field

UNK = "<unk>"
SEP = "<sep>"
TASK = "<task>"

RESERVED = (UNK, SEP, TASK)


@dataclass
class Vocabulary:
    """Dense, stable token-id mapping: reserved tokens first, then S-ID
    tokens sorted by (level, code), then any extra text tokens in sorted
    order."""

    tokens: list[str]
    id_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.id_of = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, sid_tokens, extra_tokens=()) -> "Vocabulary":
        from .sid import parse_token

        sid_sorted = sorted(set(sid_tokens), key=parse_token)
        extra_sorted = sorted(set(extra_tokens) - set(sid_sorted) - set(RESERVED))
        return cls(list(RESERVED) + sid_sorted + extra_sorted)

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        """Unknown tokens map to the reserved unknown id."""
        return self.id_of.get(token, self.id_of[UNK])


def vocab_from_sids(sids, extra_tokens=()) -> Vocabulary:
    toks = []
    for sid in sids.values():
        toks.extend(sid.tokens())
    return Vocabulary.build(toks, extra_tokens)
