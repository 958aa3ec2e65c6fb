import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genret import embed
from genret.catalog import Ad, Catalog, load_catalog, render_description
from genret.synth import SyntheticSpec, gen_data
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


def test_embed_catalog_hashes_each_distinct_feature_once(monkeypatch):
    """embed_catalog shares one feature table across its ads, and its vectors
    equal per-text embed_hashed calls and the oracle bit for bit."""
    catalog = Catalog()
    for i in range(6):
        catalog.add(Ad(ad_id=f"ad{i}", name=f"Trail shoe {i % 3}", product_type="shoes",
                       first_category="sport", second_category="running"))
    texts = {ad.ad_id: render_description(ad) for ad in catalog}
    calls = []
    real = embed._signed_slot

    def counting(feature, dimension, seed):
        calls.append(feature)
        return real(feature, dimension, seed)

    monkeypatch.setattr(embed, "_signed_slot", counting)
    table = embed.embed_catalog(catalog, 32, 5)
    monkeypatch.undo()
    distinct = set().union(*(embed._features(t) for t in texts.values()))
    assert len(calls) == len(distinct) and set(calls) == distinct
    for ad_id, text in texts.items():
        np.testing.assert_array_equal(table[ad_id], embed_hashed(text, 32, 5))
        np.testing.assert_array_equal(table[ad_id], oracle_embed(text, 32, 5))


# astral-plane characters, Unicode whitespace (EM SPACE, FILE SEPARATOR) and
# repeats; fields may be shorter than a 3-gram
_FIELD = st.text(st.one_of(st.sampled_from("ab a \u2003\u001c\U0001f600\U00010348"),
                           st.characters(codec="utf-8")), max_size=5)
_ADS = st.lists(st.tuples(_FIELD.filter(bool), _FIELD, _FIELD, _FIELD,
                          st.lists(st.tuples(_FIELD, _FIELD), max_size=2)),
                min_size=1, max_size=6)


def make_catalog(ads):
    catalog = Catalog()
    for i, (name, product_type, first, second, attributes) in enumerate(ads):
        catalog.add(Ad(ad_id=f"ad{i}", name=name, product_type=product_type,
                       first_category=first, second_category=second,
                       attributes=tuple(attributes)))
    return catalog


@settings(max_examples=60, deadline=None)
@given(ads=_ADS, dimension=st.sampled_from([8, 13, 32]), seed=st.integers(0, 3))
@example(ads=[(f"ad {i % 7} \U0001f600" * (i % 3 + 1) * 300, "t", "c\u2003x", "",
               [("k", str(i))]) for i in range(6)], dimension=32, seed=1)
@example(ads=[("shoe", "", "", "", []), ("x\ud800y", "", "", "", [])], dimension=8, seed=0)
def test_embed_catalog_equals_the_per_text_recipe(ads, dimension, seed):
    """embed_catalog's array passes give the oracle's and per-text
    embed_hashed's vectors bit for bit, in catalog order, across a pass
    boundary; a lone surrogate, which UTF-8 cannot hash, raises as it does
    in embed_hashed."""
    catalog = make_catalog(ads)
    texts = [render_description(ad) for ad in catalog]
    try:
        want = [oracle_embed(text, dimension, seed) for text in texts]
    except UnicodeEncodeError:
        with pytest.raises(UnicodeEncodeError):
            embed.embed_catalog(catalog, dimension, seed)
        with pytest.raises(UnicodeEncodeError):
            embed_hashed(texts[-1], dimension, seed)
        return
    table = embed.embed_catalog(catalog, dimension, seed)
    assert list(table.entries) == [ad.ad_id for ad in catalog]
    for got, text, vec in zip(table.entries.values(), texts, want):
        assert got.tobytes() == vec.tobytes()
        assert embed_hashed(text, dimension, seed).tobytes() == vec.tobytes()


def test_long_descriptions_are_cut_into_passes_of_bounded_points(monkeypatch):
    """A catalog with a few long descriptions is summed in several passes in
    order, each as many texts as fit in PASS_POINTS code points, or one
    longer text, and each row equals embed_hashed of its text byte for byte."""
    words = (2, 900, 3000, 5, 1500, 1200, 20, 700)
    catalog = make_catalog([(f"word{i} " * n, "t", "c", "", []) for i, n in enumerate(words)])
    texts = [render_description(ad) for ad in catalog]
    passes, real = [], embed._pass_sums
    monkeypatch.setattr(embed, "_pass_sums",
                        lambda part, *rest: passes.append(part) or real(part, *rest))
    table = embed.embed_catalog(catalog, 32, 5)
    monkeypatch.undo()
    assert [text for part in passes for text in part] == texts
    assert len(passes) >= 4
    assert any(len(part) == 1 and len(part[0]) > embed.PASS_POINTS for part in passes)
    for part, after in zip(passes, passes[1:]):
        points = sum(map(len, part))
        assert len(part) == 1 or points <= embed.PASS_POINTS
        assert points + len(after[0]) > embed.PASS_POINTS
    for got, text in zip(table.entries.values(), texts):
        assert got.tobytes() == embed_hashed(text, 32, 5).tobytes()


def test_a_description_whose_features_cancel_embeds_as_e0(monkeypatch):
    """A text whose signed features sum to zero has no norm: it embeds as
    the first unit vector, alone and in a catalog, and no other ad moves."""
    def cancelling(text):
        # greedy signs on one slot, largest counts first: the sum ends at 0
        # or 1, whichever the parity of the feature count gives
        total, signs = 0, {}
        for feat, count in sorted(Counter(embed._features(text)).items(),
                                  key=lambda item: (-item[1], item[0])):
            signs[feat] = -1.0 if total > 0 else 1.0
            total += signs[feat] * count
        return total, signs

    base = [Ad(ad_id=f"ad{i}", name=f"Trail shoe {i}", product_type="shoes")
            for i in range(3)]
    zero = next(ad for ad in (Ad(ad_id="zero", name="Z" * k) for k in range(1, 9))
                if cancelling(render_description(ad))[0] == 0)
    signs = cancelling(render_description(zero))[1]
    real = embed._signed_slot
    monkeypatch.setattr(embed, "_signed_slot", lambda feature, dimension, seed: (
        (0, signs[feature]) if feature in signs else real(feature, dimension, seed)))

    def by_hand(text):
        vec = np.zeros(16)
        for feat in embed._features(text):
            slot, sign = embed._signed_slot(feat, 16, 2)
            vec[slot] += sign
        return vec / np.linalg.norm(vec)

    e0 = np.eye(16)[0]
    assert embed_hashed(render_description(zero), 16, 2).tobytes() == e0.tobytes()
    catalog = Catalog()
    for ad in [base[0], zero, *base[1:]]:
        catalog.add(ad)
    table = embed.embed_catalog(catalog, 16, 2)
    assert table["zero"].tobytes() == e0.tobytes()
    for ad in base:
        assert table[ad.ad_id].tobytes() == by_hand(render_description(ad)).tobytes()


# sha256 of the S catalog's embeddings at width 32 and seed 0, as one
# process that reads its catalog path from argv prints it
_DIGEST_CODE = (
    "import hashlib, sys\n"
    "from genret.catalog import load_catalog\n"
    "from genret.embed import embed_catalog\n"
    "table = embed_catalog(load_catalog(sys.argv[1]), 32, 0)\n"
    "print(hashlib.sha256(b''.join(v.tobytes() for v in table.entries.values()))"
    ".hexdigest())\n")


@pytest.mark.parametrize("kernels", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
], ids=["openblas-haswell", "numpy-no-avx512"])
def test_embeddings_hold_under_other_kernels(tmp_path, kernels):
    """The embeddings do not depend on which BLAS or numpy loops add: a
    child process with other kernels embeds the S catalog to the digest
    this process gets."""
    catalog_path = gen_data(SyntheticSpec(), tmp_path)["catalog"]
    table = embed.embed_catalog(load_catalog(catalog_path), 32, 0)
    digest = hashlib.sha256(b"".join(v.tobytes() for v in table.entries.values()))
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **kernels)
    proc = subprocess.run([sys.executable, "-c", _DIGEST_CODE, catalog_path], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == digest.hexdigest()


def test_load_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a1\t" + " ".join(["0.1"] * 64) + "\n"
                    "a2\t" + " ".join(["0.1"] * 63) + "\n")
    with pytest.raises(EmbeddingError, match="row 2"):
        load_embeddings(path)


@pytest.mark.parametrize("bad", [b"x", b"nan", b"inf", b"\xff"])
def test_load_bad_value_names_file_and_row(tmp_path, bad):
    path = tmp_path / "emb.tsv"
    path.write_bytes(b"a0\t0.1 0.2 0.3\n" b"a1\t0.1 " + bad + b" 0.3\n")
    with pytest.raises(EmbeddingError, match=r"emb\.tsv: row 2"):
        load_embeddings(path)


def test_load_names_the_row_of_a_byte_that_is_not_utf8(tmp_path):
    # after more than the 8 KB a text file decodes at once, in an ad_id
    path = tmp_path / "emb.tsv"
    path.write_bytes(b"".join(b"a%d\t0.1 0.2 0.3\n" % k for k in range(600))
                     + b"\xff\t0.1 0.2 0.3\n")
    with pytest.raises(EmbeddingError, match=r"emb\.tsv: row 601: .*byte 0xff in position 0"):
        load_embeddings(path)


def test_load_reads_crlf_rows(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_bytes(b"a0\t0.1 0.2\r\n\r\na1\t0.3 0.4\r\n")
    table = load_embeddings(path)
    assert list(table.entries) == ["a0", "a1"] and table["a1"].tolist() == [0.3, 0.4]


def test_load_rejects_an_empty_ad_id(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a0\t0.1 0.2\n\t0.3 0.4\n")
    with pytest.raises(EmbeddingError, match=r"emb\.tsv: row 2: empty ad_id"):
        load_embeddings(path)


def test_a_repeated_ad_id_names_its_row(tmp_path):
    """A second row for one ad is an error, not a vector that replaces the
    first."""
    path = tmp_path / "emb.tsv"
    path.write_text("a1\t1 0 0 0 0 0 0 0\na1\t0 1 0 0 0 0 0 0\n")
    with pytest.raises(EmbeddingError, match=r"emb\.tsv: row 2: duplicate ad_id 'a1'"):
        load_embeddings(path)
