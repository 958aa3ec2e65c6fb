"""Hashed text embeddings and embedding-table utilities."""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .catalog import Catalog

_TOKEN_RE = re.compile(r"\S+")


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingTable:
    dimension: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, ad_id: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise EmbeddingError(
                f"embedding for {ad_id!r} has dimension {vector.shape}, "
                f"expected ({self.dimension},)"
            )
        self.entries[ad_id] = vector

    def __getitem__(self, ad_id: str) -> np.ndarray:
        return self.entries[ad_id]

    def __contains__(self, ad_id: str) -> bool:
        return ad_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def matrix(self, ad_ids: list[str]) -> np.ndarray:
        return np.stack([self.entries[a] for a in ad_ids])


def _features(text: str) -> list[str]:
    """Character 3-grams plus whitespace-separated tokens."""
    grams = [text[i : i + 3] for i in range(len(text) - 2)]
    tokens = _TOKEN_RE.findall(text)
    return grams + tokens


def _signed_slot(feature: str, dimension: int, seed: int) -> tuple[int, float]:
    payload = f"{seed}\x00{feature}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    slot = value % dimension
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return slot, sign


# the narrowest width embed_hashed spreads features over
MIN_HASHED_DIM = 8


def embed_hashed(text: str, dimension: int, seed: int, *,
                 memo: dict | None = None) -> np.ndarray:
    """Deterministic feature-hashed embedding of a text, L2-normalized.

    Accumulates signed hashes of character 3-grams and whitespace tokens.
    Identical (text, dimension, seed) always yields identical output.

    memo maps a feature to its (slot, sign) under this dimension and seed;
    a caller embedding many texts passes one dict so that each distinct
    feature is hashed once. The terms are +-1.0, so every sum is exact and
    a shared memo leaves the vector's bits unchanged.
    """
    if dimension < MIN_HASHED_DIM:
        raise EmbeddingError(f"dimension must be >= {MIN_HASHED_DIM}, got {dimension}")
    feats = _features(text)
    if not feats:
        raise EmbeddingError("cannot embed empty text: no features")
    if memo is None:
        memo = {}
    acc = [0.0] * dimension
    for feat in feats:
        hit = memo.get(feat)
        if hit is None:
            hit = memo[feat] = _signed_slot(feat, dimension, seed)
        acc[hit[0]] += hit[1]
    vec = np.array(acc)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        # vanishingly unlikely sign cancellation; perturb the first slot
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def embed_catalog(catalog: Catalog, dimension: int, seed: int) -> EmbeddingTable:
    from .catalog import render_description

    table = EmbeddingTable(dimension)
    memo: dict[str, tuple[int, float]] = {}  # freed when the call returns
    for ad in catalog:
        table.add(ad.ad_id, embed_hashed(render_description(ad), dimension, seed,
                                         memo=memo))
    return table


def load_embeddings(path) -> EmbeddingTable:
    """Load a TSV of ad_id<TAB>space-separated decimals. The first row sets
    the width; a row that is not UTF-8, a row with an empty ad_id, a row of
    another width, a value that is not a finite number, or a file with no
    rows is an error naming the file (and the row).

    Duplicate ad_ids follow last-writer-wins with a warning.
    """
    table = None
    duplicates = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for rowno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            ad_id, _, rest = line.partition("\t")
            if not ad_id:
                raise EmbeddingError(f"{path}: row {rowno}: empty ad_id")
            try:
                jsonl.check_utf8(line)
                values = np.array([float(v) for v in rest.split()])
            except ValueError as exc:
                raise EmbeddingError(f"{path}: row {rowno}: {exc}") from exc
            if not values.size:
                raise EmbeddingError(f"{path}: row {rowno}: no values")
            if not np.isfinite(values).all():
                raise EmbeddingError(f"{path}: row {rowno}: non-finite value")
            if table is None:
                table = EmbeddingTable(values.size)
            if values.size != table.dimension:
                raise EmbeddingError(
                    f"{path}: row {rowno}: expected {table.dimension} values, "
                    f"got {values.size}"
                )
            if ad_id in table.entries:
                duplicates += 1
            table.entries[ad_id] = values
    if table is None:
        raise EmbeddingError(f"{path}: no embedding rows")
    if duplicates:
        warnings.warn(f"{duplicates} duplicate ad_id rows overwritten (last wins)")
    return table


def save_embeddings(table: EmbeddingTable, path) -> None:
    with jsonl.replacing(path) as fh:
        for ad_id, vec in table.entries.items():
            fh.write(ad_id + "\t" + " ".join(repr(float(v)) for v in vec) + "\n")

