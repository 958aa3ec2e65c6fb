"""Semantic IDs: level-prefixed discrete code sequences identifying ads."""

from __future__ import annotations

import functools
import itertools
import re
import string
from dataclasses import dataclass

# a level-prefixed token: its level's letter, "_" and its code
_TOKEN = "{}_{}"
# a code as str(int) writes it: ASCII digits without a leading zero
_CODE = "(?:0|[1-9][0-9]*)"
_TOKEN_RE = re.compile(_TOKEN.format("([a-z])", f"({_CODE})"))  # for fullmatch
# an S-ID render as SemanticId.render writes it: "<", the tokens of levels
# a, b, c, ... in order, at least two, joined by ", ", then ">"; each level
# after b is optional inside the one before it, so no level is skipped
_RENDER_RE = re.compile("<{}, {}>".format(_TOKEN.format("a", _CODE), functools.reduce(
    lambda tail, letter: f"{_TOKEN.format(letter, _CODE)}(?:, {tail})?",
    reversed(string.ascii_lowercase[1:-1]), _TOKEN.format("z", _CODE))))


class SidError(ValueError):
    pass


def level_prefix(level: int) -> str:
    """Prefix letter for a 0-based level index: a, b, c, ..."""
    if not 0 <= level < 26:
        raise SidError(f"level {level} out of supported range [0, 26)")
    return string.ascii_lowercase[level]


def render_token(level: int, code: int) -> str:
    return f"{level_prefix(level)}_{code}"


def is_token(token: str) -> bool:
    """Whether token is an S-ID token as render_token spells it (``b_3``)."""
    return _TOKEN_RE.fullmatch(token) is not None


def rendered_tokens(text: str) -> tuple[str, ...]:
    """The tokens of every S-ID render in a text, in order: a main-stage
    pair's neural context, as serving's context holds only S-ID tokens."""
    return tuple(itertools.chain.from_iterable(
        m[0][1:-1].split(", ") for m in _RENDER_RE.finditer(text)))


def parse_token(token: str) -> tuple[int, int]:
    m = _TOKEN_RE.fullmatch(token)
    if not m:
        raise SidError(f"malformed S-ID token {token!r}")
    return string.ascii_lowercase.index(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class SemanticId:
    """Base quantization codes plus a trailing disambiguation code.

    codes has length num_levels + 1; the last entry separates ads that share
    identical base codes. The tokens are rendered on first use and kept;
    they derive from the codes alone, so equality, hash and repr see only
    the codes.
    """

    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.codes) < 2:
            raise SidError("SemanticId needs at least one base code plus suffix")
        # a code becomes an int64 index in the trie and the id tables
        if not all(0 <= c < 2**63 for c in self.codes):
            raise SidError(f"code outside [0, 2**63) in {self.codes}")

    @property
    def base(self) -> tuple[int, ...]:
        return self.codes[:-1]

    @property
    def disambiguation(self) -> int:
        return self.codes[-1]

    @functools.cached_property
    def _tokens(self) -> tuple[str, ...]:
        return tuple(render_token(i, c) for i, c in enumerate(self.codes))

    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def render(self) -> str:
        return "<" + ", ".join(self.tokens()) + ">"

    @classmethod
    def from_tokens(cls, tokens) -> "SemanticId":
        """Build from level-prefixed tokens, checking each token's level."""
        codes = []
        for i, token in enumerate(tokens):
            level, code = parse_token(token)
            if level != i:
                raise SidError(f"token {token!r} at position {i} has wrong level prefix")
            codes.append(code)
        return cls(tuple(codes))

    @classmethod
    def parse(cls, text: str) -> "SemanticId":
        if not (text.startswith("<") and text.endswith(">")):
            raise SidError(f"S-ID rendering must be angle-bracketed: {text!r}")
        return cls.from_tokens(text[1:-1].split(", "))

    def __len__(self) -> int:
        return len(self.codes)
