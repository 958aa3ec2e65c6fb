import json

import pytest

from genret.catalog import (Ad, Catalog, CatalogError, load_catalog,
                            render_description, save_catalog)


def make_ad(ad_id="a1", **kw):
    defaults = dict(name="Thing", product_type="Stuff", first_category="Cat",
                    second_category="Sub", attributes=(), ecpm=1.0)
    defaults.update(kw)
    return Ad(ad_id=ad_id, **defaults)


VOLKSWAGEN = Ad(
    ad_id="vw1",
    name="SAIC Volkswagen-New Energy-ID.3",
    product_type="Automobile Products",
    first_category="Automobile",
    second_category="SAIC Volkswagen·New Energy",
    attributes=(("automobile brand", "Volkswagen"),
                ("automobile series", "Volkswagen ID.3")),
    ecpm=5.0,
)


def test_render_description_worked_example():
    assert render_description(VOLKSWAGEN) == (
        "The name of the ad is SAIC Volkswagen-New Energy-ID.3; "
        "The product type is Automobile Products; "
        "The first-level category is Automobile; "
        "The second-level category is SAIC Volkswagen·New Energy; "
        "The attributes include: automobile brand_Volkswagen, "
        "automobile series_Volkswagen ID.3."
    )


def test_render_description_empty_attributes():
    ad = make_ad(attributes=())
    assert render_description(ad).endswith("The attributes include: .")


def test_render_description_two_attributes():
    ad = make_ad(attributes=(("brand", "X"), ("series", "Y")))
    assert render_description(ad).endswith("include: brand_X, series_Y.")


def test_render_injective_on_differing_ads():
    a = make_ad("a1", name="A")
    b = make_ad("a2", name="B")
    assert render_description(a) != render_description(b)


def test_load_catalog_three_records(tmp_path):
    path = tmp_path / "cat.jsonl"
    lines = [json.dumps({"ad_id": f"a{i}", "name": f"n{i}", "ecpm": i})
             for i in range(3)]
    path.write_text("\n".join(lines) + "\n")
    catalog = load_catalog(path)
    assert len(catalog) == 3
    assert [ad.ad_id for ad in catalog] == ["a0", "a1", "a2"]


def test_load_catalog_empty_file(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text("")
    assert len(load_catalog(path)) == 0


def test_load_catalog_duplicate_id(tmp_path):
    path = tmp_path / "cat.jsonl"
    rec = json.dumps({"ad_id": "a1", "name": "n"})
    path.write_text(rec + "\n\n" + rec + "\n")
    with pytest.raises(CatalogError, match=r"cat\.jsonl: line 3: .*duplicate ad_id 'a1'"):
        load_catalog(path)


def test_load_catalog_malformed_line_number(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text(json.dumps({"ad_id": "a1", "name": "n"}) + "\nnot json\n")
    with pytest.raises(CatalogError, match="line 2"):
        load_catalog(path)


@pytest.mark.parametrize("ecpm", ["NaN", "Infinity", "-Infinity"])
def test_load_catalog_rejects_non_finite_ecpm(tmp_path, ecpm):
    # Python's json reads NaN and Infinity; a NaN ecpm is neither < 0 nor >= 0
    path = tmp_path / "cat.jsonl"
    path.write_text(json.dumps({"ad_id": "a1", "name": "n", "ecpm": 1.0}) + "\n"
                    + '{"ad_id": "a2", "name": "n", "ecpm": ' + ecpm + "}\n")
    with pytest.raises(CatalogError, match=r"cat\.jsonl: line 2: .*ecpm must be finite"):
        load_catalog(path)


def test_round_trip(tmp_path):
    catalog = Catalog()
    catalog.add(VOLKSWAGEN)
    catalog.add(make_ad("a2", attributes=(("k", "v"),)))
    path = tmp_path / "out.jsonl"
    save_catalog(catalog, path)
    loaded = load_catalog(path)
    assert [ad for ad in loaded] == [ad for ad in catalog]
    assert loaded.category_index == catalog.category_index


def test_invariants():
    with pytest.raises(CatalogError):
        make_ad(name="")
    with pytest.raises(CatalogError):
        make_ad(ecpm=-1.0)
    c = Catalog()
    c.add(make_ad("x"))
    with pytest.raises(CatalogError, match="x"):
        c.add(make_ad("x"))
