"""Synthetic product instances for shopping categories.

The paper crawls product names from Google Shopping and Browsenodes to
use as instances (Section 4.5) and as the retrieval corpus of the case
study (Section 5.3).  Offline we synthesize products deterministically
per category: "<Brand> <category head noun> <model code>", e.g.
"Kradon Wireless Headphones X-240".  Products of a category embed the
category's head noun, so membership is decidable from text — the same
property real product titles have and the case-study retriever relies
on.
"""

from __future__ import annotations

import random

from repro.generators.names import WordForge
from repro.taxonomy.taxonomy import Taxonomy

_MODEL_LETTERS = "ABCDEFGHJKLMNPQRSTUVWX"

#: Taxonomies whose deepest-level categories hold product instances
#: (Amazon Browsenodes, Google Shopping), and how many each holds.
PRODUCT_KEYS: tuple[str, ...] = ("amazon", "google")
PRODUCTS_PER_CATEGORY = 3


def _brand(rng: random.Random) -> str:
    return WordForge(rng).proper(2, 2)


def _model_code(rng: random.Random) -> str:
    letter = rng.choice(_MODEL_LETTERS)
    number = rng.randint(10, 990)
    return f"{letter}-{number}"


def category_head(category_name: str) -> str:
    """The trailing noun phrase a product title inherits.

    For "Wireless Over-Ear Headphones" this is "Headphones"; two words
    are kept when the category is a two-word compound.
    """
    words = category_name.split(" ")
    return " ".join(words[-2:]) if len(words) >= 2 else words[-1]


def product_names(category_name: str, count: int,
                  seed: str = "") -> list[str]:
    """``count`` deterministic product titles for one category."""
    rng = random.Random(f"products|{seed}|{category_name}")
    head = category_head(category_name)
    titles = []
    for _ in range(count):
        titles.append(f"{_brand(rng)} {head} {_model_code(rng)}")
    return titles


def products_for_node(taxonomy: Taxonomy, node_id: str, count: int,
                      seed: str = "") -> list[str]:
    """Product titles for the category node ``node_id``."""
    return product_names(taxonomy.node(node_id).name, count, seed=seed)


def product_titles(taxonomy_key: str,
                   taxonomy: Taxonomy) -> list[tuple[str, str]]:
    """``(title, category node id)`` for every product instance of a
    shopping taxonomy: :data:`PRODUCTS_PER_CATEGORY` titles under each
    deepest-level category, in level order.  Other keys have none."""
    if taxonomy_key not in PRODUCT_KEYS:
        return []
    return [(title, node.node_id)
            for node in taxonomy.nodes_at_level(taxonomy.num_levels - 1)
            for title in products_for_node(taxonomy, node.node_id,
                                           PRODUCTS_PER_CATEGORY)]
