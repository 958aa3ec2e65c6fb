import hashlib

import numpy as np
import pytest

from genret.embed import (EmbeddingError, EmbeddingTable, embed_hashed,
                          load_embeddings, save_embeddings)


def oracle_embed(text, dimension, seed):
    """Independent re-derivation of the hashed embedding (same hash recipe,
    separate code path)."""
    feats = [text[i:i + 3] for i in range(len(text) - 2)] + text.split()
    vec = np.zeros(dimension)
    for f in feats:
        digest = hashlib.blake2b(f"{seed}\x00{f}".encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        vec[value % dimension] += 1.0 if (value >> 63) & 1 else -1.0
    return vec / np.linalg.norm(vec)


def test_determinism():
    a = embed_hashed("hello world", 64, 3)
    b = embed_hashed("hello world", 64, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, embed_hashed("hello world", 64, 4))


def test_unit_norm():
    for text in ("short", "a much longer piece of text with many tokens"):
        assert np.linalg.norm(embed_hashed(text, 32, 0)) == pytest.approx(1.0, abs=1e-9)


def test_empty_text_rejected():
    with pytest.raises(EmbeddingError, match="empty"):
        embed_hashed("", 64, 0)
    with pytest.raises(EmbeddingError):
        embed_hashed("hi", 4, 0)  # dimension too small


def test_shared_category_tokens_closer():
    # oracle-computed cosines: descriptions sharing a category token should
    # be closer than fully disjoint ones
    shared_a = "travel bali tour package deluxe"
    shared_b = "travel phuket tour package premium"
    disjoint = "automobile electric sedan lease offer"
    ca = float(oracle_embed(shared_a, 64, 0) @ oracle_embed(shared_b, 64, 0))
    cb = float(oracle_embed(shared_a, 64, 0) @ oracle_embed(disjoint, 64, 0))
    assert ca > cb
    # unit-norm embeddings: the dot product is the cosine
    assert float(embed_hashed(shared_a, 64, 0) @ embed_hashed(shared_b, 64, 0)) == pytest.approx(ca, abs=1e-12)


def test_load_save_round_trip(tmp_path):
    table = EmbeddingTable(8)
    rng = np.random.default_rng(0)
    for i in range(5):
        table.add(f"a{i}", rng.normal(size=8))
    path = tmp_path / "emb.tsv"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert len(loaded) == 5
    for k in table.entries:
        np.testing.assert_array_equal(loaded[k], table[k])


def test_load_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a1\t" + " ".join(["0.1"] * 64) + "\n"
                    "a2\t" + " ".join(["0.1"] * 63) + "\n")
    with pytest.raises(EmbeddingError, match="row 2"):
        load_embeddings(path)


def test_duplicate_rows_last_wins(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a1\t1 0 0 0 0 0 0 0\na1\t0 1 0 0 0 0 0 0\n")
    with pytest.warns(UserWarning, match="1 duplicate"):
        table = load_embeddings(path)
    assert table["a1"][1] == 1.0
