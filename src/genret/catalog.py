"""Ad catalog loading and textual description rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import jsonl


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class Ad:
    ad_id: str
    name: str
    product_type: str = ""
    first_category: str = ""
    second_category: str = ""
    attributes: tuple[tuple[str, str], ...] = ()
    ecpm: float = 0.0

    def __post_init__(self):
        if not self.ad_id:
            raise CatalogError("ad_id must be non-empty")
        if not self.name:
            raise CatalogError(f"ad {self.ad_id!r}: name must be non-empty")
        if not (math.isfinite(self.ecpm) and self.ecpm >= 0):
            raise CatalogError(f"ad {self.ad_id!r}: ecpm must be finite and >= 0, "
                               f"got {self.ecpm}")


# a catalog line; the fields it leaves out take Ad's defaults
AD_RECORD = jsonl.spec(
    ad_id=jsonl.key(jsonl.ID), name=jsonl.STRING, product_type=jsonl.optional(jsonl.STRING),
    first_category=jsonl.optional(jsonl.STRING),
    second_category=jsonl.optional(jsonl.STRING),
    attributes=jsonl.optional(jsonl.array(jsonl.tuple_of(jsonl.STRING, jsonl.STRING))),
    ecpm=jsonl.optional(jsonl.NUMBER))


@dataclass
class Catalog:
    ads: list[Ad] = field(default_factory=list)
    category_index: dict[str, list[str]] = field(default_factory=dict)
    _by_id: dict[str, Ad] = field(default_factory=dict, repr=False)

    def add(self, ad: Ad) -> None:
        if ad.ad_id in self._by_id:
            raise CatalogError(f"duplicate ad_id {ad.ad_id!r}")
        self.ads.append(ad)
        self._by_id[ad.ad_id] = ad
        self.category_index.setdefault(ad.first_category, []).append(ad.ad_id)

    def get(self, ad_id: str) -> Ad:
        return self._by_id[ad_id]

    def __contains__(self, ad_id: str) -> bool:
        return ad_id in self._by_id

    def __len__(self) -> int:
        return len(self.ads)

    def __iter__(self):
        return iter(self.ads)


def render_description(ad: Ad) -> str:
    """Instantiate the fixed description template for one ad.

    Attributes are joined as "key_value" pairs separated by ", "; empty
    fields render as empty substrings.
    """
    attrs = ", ".join(f"{k}_{v}" for k, v in ad.attributes)
    return (
        f"The name of the ad is {ad.name}; "
        f"The product type is {ad.product_type}; "
        f"The first-level category is {ad.first_category}; "
        f"The second-level category is {ad.second_category}; "
        f"The attributes include: {attrs}."
    )


def _ad_from_obj(obj: dict) -> Ad:
    attributes = tuple(map(tuple, obj.pop("attributes", ())))
    return Ad(**obj, attributes=attributes)


def load_catalog(path) -> Catalog:
    """Load a JSONL catalog, one ad object per line, preserving file order;
    a repeated ad_id raises CatalogError naming the file and the line."""
    catalog = Catalog()
    for ad in jsonl.read(path, _ad_from_obj, CatalogError, AD_RECORD):
        catalog.add(ad)
    return catalog


def save_catalog(catalog: Catalog, path) -> None:
    jsonl.write(path, ({
        "ad_id": ad.ad_id,
        "name": ad.name,
        "product_type": ad.product_type,
        "first_category": ad.first_category,
        "second_category": ad.second_category,
        "attributes": [[k, v] for k, v in ad.attributes],
        "ecpm": ad.ecpm,
    } for ad in catalog), ensure_ascii=False)
