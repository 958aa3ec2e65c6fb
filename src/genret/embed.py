"""Hashed text embeddings and embedding-table utilities."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .catalog import Catalog, render_description


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
    """Character 3-grams plus whitespace-separated tokens: the features of
    one text, as a list. The array passes below count the same features."""
    return [text[i : i + 3] for i in range(len(text) - 2)] + text.split()


def _signed_slot(feature: str, dimension: int, seed: int) -> tuple[int, float]:
    payload = f"{seed}\x00{feature}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    slot = value % dimension
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return slot, sign


# the narrowest width embed_hashed spreads features over
MIN_HASHED_DIM = 8

# code points summed in one array pass, about 31 ads of an M catalog: bounds
# the pass's code-point and gram arrays, whose whole-catalog size would set a
# build's peak memory, whatever the descriptions' length
PASS_POINTS = 8192

# a code point fits in 21 bits, so three make one int64 gram code
_POINT_BITS = 21
_POINT_MASK = (1 << _POINT_BITS) - 1


def _pass_sums(texts: list[str], dimension: int, seed: int, memo: dict) -> np.ndarray:
    """Each text's sum of its features' signed slots, one row per text. memo
    maps a feature to its (slot, sign), so that _signed_slot hashes it the
    first time any pass meets it.

    The 3-grams are counted on one code-point array of the joined texts:
    each gram is the int64 code c0<<42 | c1<<21 | c2, a gram that straddles
    two texts is dropped, and each distinct gram is decoded to its string
    once. A text's tokens are its str.split(), which splits on exactly the
    characters the pattern \\S+ does not match.
    """
    n = len(texts)
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                           dtype="<u4").astype(np.int64)
    owner = np.repeat(np.arange(n), np.fromiter(map(len, texts), np.intp, n))
    within = owner[:-2] == owner[2:]
    gram_rows = owner[:-2][within]
    codes = points[:-2] << 2 * _POINT_BITS
    codes |= points[1:-1] << _POINT_BITS
    codes |= points[2:]
    codes = codes[within]
    token_lists = [text.split() for text in texts]
    counts = np.fromiter(map(len, token_lists), np.intp, n)
    if not (np.bincount(gram_rows, minlength=n) + counts).all():
        raise EmbeddingError("cannot embed empty text: no features")
    grams, gram_ids = np.unique(codes, return_inverse=True)
    spelled = (np.stack([grams >> 2 * _POINT_BITS, grams >> _POINT_BITS & _POINT_MASK,
                         grams & _POINT_MASK], axis=1).astype("<u4").tobytes()
               .decode("utf-32-le", "surrogatepass"))
    tokens = list(itertools.chain.from_iterable(token_lists))
    # the pass's distinct features, its grams first: a token that is also
    # a gram shares the gram's id
    distinct = list(dict.fromkeys([spelled[i : i + 3] for i in range(0, len(spelled), 3)]
                                  + tokens))
    index = dict(zip(distinct, range(len(distinct))))
    hits = []
    for feat in distinct:
        hit = memo.get(feat)
        if hit is None:
            hit = memo[feat] = _signed_slot(feat, dimension, seed)
        hits.append(hit)
    slot, sign = np.array(hits, dtype=np.float64).reshape(-1, 2).T
    ids = np.concatenate([gram_ids, np.fromiter(map(index.__getitem__, tokens),
                                                np.intp, len(tokens))])
    rows = np.concatenate([gram_rows, np.repeat(np.arange(n), counts)])
    return np.bincount(rows * dimension + slot[ids].astype(np.intp), weights=sign[ids],
                       minlength=n * dimension).reshape(n, dimension)


def _embed_texts(texts: list[str], dimension: int, seed: int) -> np.ndarray:
    """The unit-norm hashed embeddings of texts, one row per text: each
    row's sum, in passes of consecutive texts of at most PASS_POINTS code
    points in all, or of one longer text, with one feature memo for all of
    them, divided by the square root of its sum of squares."""
    if dimension < MIN_HASHED_DIM:
        raise EmbeddingError(f"dimension must be >= {MIN_HASHED_DIM}, got {dimension}")
    memo: dict[str, tuple[int, float]] = {}
    sums = np.empty((len(texts), dimension))
    start = points = 0
    for end, text in enumerate(texts):
        if points + len(text) > PASS_POINTS and end > start:
            sums[start:end] = _pass_sums(texts[start:end], dimension, seed, memo)
            start, points = end, 0
        points += len(text)
    if texts:
        sums[start:] = _pass_sums(texts[start:], dimension, seed, memo)
    norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
    zero = norms == 0.0
    # vanishingly unlikely sign cancellation; such a text embeds as e0
    sums[zero, 0] = 1.0
    norms[zero] = 1.0
    sums /= norms[:, None]
    return sums


def embed_hashed(text: str, dimension: int, seed: int) -> np.ndarray:
    """Deterministic feature-hashed embedding of a text, L2-normalized.

    Accumulates signed hashes of character 3-grams and whitespace tokens.
    Identical (text, dimension, seed) always yields identical output.
    """
    return _embed_texts([text], dimension, seed)[0]


def embed_catalog(catalog: Catalog, dimension: int, seed: int) -> EmbeddingTable:
    """embed_hashed of each ad's description, in catalog order, bit for bit.

    The descriptions are summed in array passes of at most PASS_POINTS
    code points, and each distinct feature is hashed once per call. Every
    sum is of +-1.0 terms, so for a text of fewer than 2**26 features it,
    and its row's sum of squares, is an exact integer below 2**53: no order
    of the additions can move a bit. The square root and the division are correctly rounded, so
    each row equals the one text's sum divided by its np.linalg.norm,
    whatever the kernels that add.

    The bound caps the passes' arrays, and so what they add to a build's
    peak memory: one pass over the whole M catalog took the M rebuild's
    peak RSS from 57 to 82 MB.
    """
    ads = list(catalog)
    table = EmbeddingTable(dimension)
    vectors = _embed_texts([render_description(ad) for ad in ads], dimension, seed)
    for ad, vector in zip(ads, vectors):
        table.add(ad.ad_id, vector)
    return table


def load_embeddings(path) -> EmbeddingTable:
    """Load a TSV of ad_id<TAB>space-separated decimals. The first row sets
    the width; a row that is not UTF-8, a row with an empty or repeated
    ad_id, a row of another width, a value that is not a finite number, or a
    file with no rows is an error naming the file (and the row)."""
    table = None
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
                raise EmbeddingError(f"{path}: row {rowno}: duplicate ad_id {ad_id!r}")
            table.entries[ad_id] = values
    if table is None:
        raise EmbeddingError(f"{path}: no embedding rows")
    return table


def save_embeddings(table: EmbeddingTable, path) -> None:
    with jsonl.replacing(path) as fh:
        for ad_id, vec in table.entries.items():
            fh.write(ad_id + "\t" + " ".join(map(repr, vec.tolist())) + "\n")

