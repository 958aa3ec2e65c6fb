"""Semantic IDs: level-prefixed discrete code sequences identifying ads."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"^([a-z])_(\d+)$")


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
    """Whether token is a level-prefixed S-ID token such as ``b_3``."""
    return _TOKEN_RE.match(token) is not None


def parse_token(token: str) -> tuple[int, int]:
    m = _TOKEN_RE.match(token)
    if not m:
        raise SidError(f"malformed S-ID token {token!r}")
    return string.ascii_lowercase.index(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class SemanticId:
    """Base quantization codes plus a trailing disambiguation code.

    codes has length num_levels + 1; the last entry separates ads that share
    identical base codes.
    """

    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.codes) < 2:
            raise SidError("SemanticId needs at least one base code plus suffix")
        if any(c < 0 for c in self.codes):
            raise SidError(f"negative code in {self.codes}")

    @property
    def base(self) -> tuple[int, ...]:
        return self.codes[:-1]

    @property
    def disambiguation(self) -> int:
        return self.codes[-1]

    def tokens(self) -> tuple[str, ...]:
        return tuple(render_token(i, c) for i, c in enumerate(self.codes))

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
        text = text.strip()
        if not (text.startswith("<") and text.endswith(">")):
            raise SidError(f"S-ID rendering must be angle-bracketed: {text!r}")
        return cls.from_tokens(p.strip() for p in text[1:-1].split(","))

    def __len__(self) -> int:
        return len(self.codes)
