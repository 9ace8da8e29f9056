"""Taxonomy-backed entity search (the paper's motivating application).

The introduction motivates taxonomies with entity search: a query like
"best health tracker" must be routed to the right category before
products can be retrieved.  This module implements three routing
strategies over a shopping taxonomy and its product corpus, so the
replacement question can be asked at the *application* level:

* **TreeRouter** — the traditional pipeline: lexical-match the query
  against the full category tree, return the best leaf's products;
* **LlmRouter** — no tree at all: an LLM filter scans the whole
  corpus (what "LLMs replace taxonomies" means taken literally);
* **HybridRouter** — the Section 5.1 proposal: lexical-match only the
  explicit levels of a :class:`HybridTaxonomy`, then LLM-filter the
  surviving frontier concept's inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.generators.products import products_for_node
from repro.hybrid.hybrid_taxonomy import HybridTaxonomy
from repro.hybrid.membership import MembershipModel
from repro.llm.rng import stable_choice, unit_float
from repro.taxonomy.node import TaxonomyNode
from repro.taxonomy.taxonomy import Taxonomy


def _tokens(text: str) -> set[str]:
    return {token for token in text.lower().replace("-", " ").split()
            if token}


def lexical_score(query: str, candidate: str) -> float:
    """Jaccard token overlap between a query and a category name."""
    query_tokens, name_tokens = _tokens(query), _tokens(candidate)
    if not query_tokens or not name_tokens:
        return 0.0
    return len(query_tokens & name_tokens) \
        / len(query_tokens | name_tokens)


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Products returned for one query, with routing provenance."""

    query: str
    routed_to: str | None      # category name, None when unrouted
    products: tuple[str, ...]


class ProductCorpus:
    """Deterministic product inventory over a shopping taxonomy."""

    def __init__(self, taxonomy: Taxonomy, per_category: int = 4,
                 seed: str = "search"):
        self.taxonomy = taxonomy
        self.per_category = per_category
        self.seed = seed
        self._cache: dict[str, tuple[str, ...]] = {}

    def category_nodes(self) -> list[TaxonomyNode]:
        return self.taxonomy.leaves()

    def products_of(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._cache:
            self._cache[node_id] = tuple(products_for_node(
                self.taxonomy, node_id, self.per_category,
                seed=self.seed))
        return self._cache[node_id]

    def inventory_under(self, node_id: str) -> tuple[str, ...]:
        """All products in the subtree rooted at ``node_id``."""
        node = self.taxonomy.node(node_id)
        pool = list(self.products_of(node_id)) if node.is_leaf else []
        for descendant in self.taxonomy.descendants(node_id):
            if descendant.is_leaf:
                pool.extend(self.products_of(descendant.node_id))
        return tuple(pool)


class TreeRouter:
    """The traditional pipeline: route by the full explicit tree."""

    name = "tree"

    def __init__(self, corpus: ProductCorpus):
        self.corpus = corpus

    def search(self, query: str) -> SearchResult:
        best, best_score = None, 0.0
        for node in self.corpus.category_nodes():
            score = lexical_score(query, node.name)
            if score > best_score:
                best, best_score = node, score
        if best is None:
            return SearchResult(query, None, ())
        return SearchResult(query, best.name,
                            self.corpus.products_of(best.node_id))


class LlmRouter:
    """No tree: an LLM membership filter scans the whole corpus."""

    name = "llm-only"

    def __init__(self, corpus: ProductCorpus,
                 membership: MembershipModel | None = None):
        self.corpus = corpus
        self.membership = membership or MembershipModel()

    def search(self, query: str,
               truth_node_id: str | None = None) -> SearchResult:
        kept = []
        for node in self.corpus.category_nodes():
            is_member = node.node_id == truth_node_id
            for product in self.corpus.products_of(node.node_id):
                if self.membership.keeps(product, query, is_member):
                    kept.append(product)
        return SearchResult(query, None, tuple(kept))


class HybridRouter:
    """Section 5.1: explicit tree near the root, LLM below the cut.

    Routing follows the case study's pipeline: the query "first asks
    about the parent concept of the query concept with an accuracy of
    over 70%" (Section 5.3, citing Figure 3(b)) — modelled by a
    calibrated routing draw per query — then the surviving ancestor's
    whole inventory is LLM-filtered.
    """

    name = "hybrid"
    #: Paper's quoted parent-lookup accuracy at the cut (Fig. 3(b)).
    DEFAULT_ROUTE_ACCURACY = 0.72

    def __init__(self, corpus: ProductCorpus, cut_level: int,
                 membership: MembershipModel | None = None,
                 route_accuracy: float = DEFAULT_ROUTE_ACCURACY):
        if not 0.0 <= route_accuracy <= 1.0:
            raise ValueError("route_accuracy must be in [0, 1]")
        self.corpus = corpus
        self.membership = membership or MembershipModel()
        self.route_accuracy = route_accuracy
        self.hybrid = HybridTaxonomy(corpus.taxonomy, cut_level,
                                     model=_NullModel())

    def _route(self, query: str,
               truth_node_id: str | None) -> TaxonomyNode | None:
        taxonomy = self.corpus.taxonomy
        frontier = self.hybrid.frontier()
        truth_ancestor = None
        if truth_node_id is not None:
            chain = [taxonomy.node(truth_node_id)] \
                + list(taxonomy.ancestors(truth_node_id))
            truth_ancestor = next(
                (node for node in chain
                 if node.level == self.hybrid.cut_level), None)
        if truth_ancestor is not None and unit_float(
                "hybrid-route", query) < self.route_accuracy:
            return truth_ancestor
        others = [node for node in frontier
                  if truth_ancestor is None
                  or node.node_id != truth_ancestor.node_id]
        if not others:
            return truth_ancestor
        return stable_choice(others, "hybrid-misroute", query)

    def search(self, query: str,
               truth_node_id: str | None = None) -> SearchResult:
        best = self._route(query, truth_node_id)
        if best is None:
            return SearchResult(query, None, ())
        kept = []
        for product in self.corpus.inventory_under(best.node_id):
            is_member = (
                truth_node_id is not None
                and product in self.corpus.products_of(truth_node_id))
            if self.membership.keeps(product, query, is_member):
                kept.append(product)
        return SearchResult(query, best.name, tuple(kept))


class _NullModel:
    """Placeholder ChatModel for routers that never call locate()."""

    name = "null"

    def generate(self, prompt: str) -> str:  # pragma: no cover
        return "I don't know."
