"""The taxonomy oracle: resolving prompt text back to ground truth.

A simulated model only sees the prompt.  To behave like a model whose
pre-training corpus contained the taxonomies, it resolves the concept
names it parsed out of the prompt against the taxonomy registry (its
"pre-training data") and recovers: which taxonomy the question is
about, the question kind (positive / easy negative / hard negative),
the level being probed, and the ground truth — everything the
calibrated answering policy conditions on.

The registry taxonomies are read from the artifact store
(:meth:`repro.store.ArtifactStore.get_or_build_taxonomy`) one key at a
time, as a prompt first probes them.  The name index and the
product-title index (Amazon / Google instance typing: those names are
instances rather than taxonomy nodes) come straight from the artifact's
columns; the :class:`Taxonomy` node graph is decoded only for a
taxonomy that a prompt's names occur in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.data.paper_figures import LEVEL_SHAPES
from repro.generators.registry import TAXONOMY_KEYS
from repro.llm.prompt_parsing import ParsedPrompt
from repro.questions.model import QuestionKind, QuestionType
from repro.store.artifacts import build_taxonomy_artifact, default_store
from repro.store.codec import decode_taxonomy, taxonomy_columns
from repro.taxonomy.node import Domain, TaxonomyNode
from repro.taxonomy.taxonomy import Taxonomy

#: Domain hint -> taxonomy keys that can match it.  Health and Biology
#: templates carry no wrapper, so no hint means either of those (or a
#: custom taxonomy) — the oracle then tries every index.
_DOMAIN_KEYS: dict[Domain, tuple[str, ...]] = {
    Domain.SHOPPING: ("ebay", "amazon", "google"),
    Domain.GENERAL: ("schema",),
    Domain.COMPUTER_SCIENCE: ("acm_ccs",),
    Domain.GEOGRAPHY: ("geonames",),
    Domain.LANGUAGE: ("glottolog",),
    Domain.MEDICAL: ("oae",),
}


@dataclass(frozen=True, slots=True)
class Resolution:
    """What the oracle recovered about one prompt."""

    taxonomy_key: str
    qtype: QuestionType
    kind: QuestionKind
    truth: bool                  # True/False questions: is the answer Yes
    shape_level: int             # index into LEVEL_SHAPES[taxonomy_key]
    child_ref: str               # node id, or instance title
    asked_ref: str               # node id of the asked parent / "mcq"
    is_instance: bool = False
    correct_option: int | None = None
    #: Structural-coherence rank used to disambiguate when the same
    #: concept names exist in several taxonomies (shopping taxonomies
    #: share vocabulary): direct edges beat uncles beat same-level
    #: distractors beat ancestor-chain (typing) readings.
    rank: int = 0


class TaxonomyOracle:
    """Resolves concept names against a set of taxonomies.

    Without explicit ``taxonomies`` the oracle covers the registry and
    loads each key at most once, even when engine worker threads share
    it: loads and decodes run under one lock, and lookups of an
    already-loaded key take no lock.
    """

    def __init__(self, taxonomies: dict[str, Taxonomy] | None = None):
        self._taxonomies: dict[str, Taxonomy] = dict(taxonomies or {})
        self._lazy = taxonomies is None
        #: key -> (name -> node id, product title -> anchor node id).
        self._indexes: dict[str, tuple[dict[str, str],
                                       dict[str, str]]] = {}
        #: Taxonomy columns of loaded but not yet decoded keys.
        self._columns: dict[str, dict] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------
    def _keys(self) -> tuple[str, ...]:
        if self._lazy:
            return TAXONOMY_KEYS
        return tuple(self._taxonomies)

    def taxonomy(self, key: str) -> Taxonomy:
        """The node graph of ``key``, decoded from its columns on first
        use (after which the columns are dropped)."""
        taxonomy = self._taxonomies.get(key)
        if taxonomy is None:
            if not self._lazy:
                raise KeyError(key)
            with self._lock:
                taxonomy = self._taxonomies.get(key)
                if taxonomy is None:
                    self._index(key)
                    taxonomy = decode_taxonomy(self._columns.pop(key))
                    self._taxonomies[key] = taxonomy
        return taxonomy

    def _index(self, key: str) -> tuple[dict[str, str], dict[str, str]]:
        indexes = self._indexes.get(key)
        if indexes is None:
            with self._lock:
                indexes = self._indexes.get(key)
                if indexes is None:
                    indexes = self._indexes[key] = self._load(key)
        return indexes

    def _load(self, key: str) -> tuple[dict[str, str], dict[str, str]]:
        """Name and product-title indexes of ``key``, from its columns."""
        if self._lazy:
            store = default_store()
            payload = (build_taxonomy_artifact(key) if store is None
                       else store.get_or_build_taxonomy(key))
            columns = payload["taxonomy"]
        else:
            columns = taxonomy_columns(self.taxonomy(key), key)
        ids = columns["ids"]
        titles = {title: ids[row] for title, row in
                  zip(columns.pop("titles", ()), columns.pop("anchors", ()))}
        if key not in self._taxonomies:
            self._columns[key] = columns
        return dict(zip(columns["names"], ids)), titles

    def _names(self, key: str) -> dict[str, str]:
        return self._index(key)[0]

    def _instances(self, key: str) -> dict[str, str]:
        """Product-title -> anchor-node-id index (shopping only)."""
        return self._index(key)[1]

    def _candidate_keys(self, hint: Domain | None) -> tuple[str, ...]:
        if hint is None:
            return self._keys()
        keys = _DOMAIN_KEYS.get(hint, ())
        return tuple(key for key in keys if key in self._keys()) \
            or self._keys()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, parsed: ParsedPrompt) -> Resolution | None:
        """Ground a parsed prompt; None when concepts are unknown.

        When names resolve in several taxonomies (the shopping
        taxonomies share vocabulary), the structurally most coherent
        reading wins: a taxonomy where the asked concept is the child's
        parent (or uncle) explains the question better than one where
        the two names are unrelated.
        """
        best: Resolution | None = None
        for key in self._candidate_keys(parsed.domain_hint):
            resolution = self._resolve_in(key, parsed)
            if resolution is None:
                continue
            if best is None or resolution.rank < best.rank:
                best = resolution
            if best.rank == 0:
                break
        return best

    def _resolve_in(self, key: str,
                    parsed: ParsedPrompt) -> Resolution | None:
        names = self._names(key)
        child_id = names.get(parsed.child_name)
        if parsed.qtype is QuestionType.MCQ:
            if child_id is None:
                return None
            return self._resolve_mcq(key, child_id, parsed)
        asked_id = names.get(parsed.asked_name)
        if asked_id is None:
            return None
        if child_id is not None:
            return self._resolve_hierarchy(key, child_id, asked_id)
        anchor_id = self._instances(key).get(parsed.child_name)
        if anchor_id is not None:
            return self._resolve_instance(key, parsed.child_name,
                                          anchor_id, asked_id)
        return None

    def _shape_level(self, key: str, level: int) -> int:
        shape = LEVEL_SHAPES.get(key, (0.0,))
        return max(0, min(level, len(shape) - 1))

    def _resolve_hierarchy(self, key: str, child_id: str,
                           asked_id: str) -> Resolution:
        taxonomy = self.taxonomy(key)
        child = taxonomy.node(child_id)
        asked = taxonomy.node(asked_id)
        parent = taxonomy.parent(child_id)
        if parent is not None and asked_id == parent.node_id:
            return Resolution(key, QuestionType.TRUE_FALSE,
                              QuestionKind.POSITIVE, True,
                              self._shape_level(key, child.level - 1),
                              child_id, asked_id, rank=0)
        if asked.level == child.level - 1:
            uncles = {node.node_id
                      for node in taxonomy.uncles(child_id)}
            kind = (QuestionKind.NEGATIVE_HARD if asked_id in uncles
                    else QuestionKind.NEGATIVE_EASY)
            rank = 1 if kind is QuestionKind.NEGATIVE_HARD else 2
            return Resolution(key, QuestionType.TRUE_FALSE, kind, False,
                              self._shape_level(key, child.level - 1),
                              child_id, asked_id, rank=rank)
        # Instance-typing phrasing: the "child" is itself a taxonomy
        # node typed against a higher ancestor (paper Section 4.5).
        return self._typing_resolution(key, taxonomy, child, child_id,
                                       asked, is_instance=False)

    def _resolve_instance(self, key: str, title: str, anchor_id: str,
                          asked_id: str) -> Resolution:
        taxonomy = self.taxonomy(key)
        anchor = taxonomy.node(anchor_id)
        asked = taxonomy.node(asked_id)
        return self._typing_resolution(key, taxonomy, anchor, title,
                                       asked, is_instance=True,
                                       anchor_is_target=True)

    def _typing_resolution(self, key: str, taxonomy: Taxonomy,
                           anchor: TaxonomyNode, child_ref: str,
                           asked: TaxonomyNode, is_instance: bool,
                           anchor_is_target: bool = False) -> Resolution:
        """Classify an instance-typing pair against the ancestor chain.

        ``anchor`` is the node the instance hangs under (or the node
        itself when leaf entities act as instances); ``anchor_is_target``
        marks product instances, where the anchor itself is a valid
        type.
        """
        chain = ([anchor] if anchor_is_target else []) \
            + list(taxonomy.ancestors(anchor.node_id))
        chain_ids = {node.node_id for node in chain}
        truth = asked.node_id in chain_ids
        kind = QuestionKind.POSITIVE
        rank = 3
        if not truth:
            ancestor_at_level = next(
                (node for node in chain if node.level == asked.level),
                None)
            siblings: set[str] = set()
            if ancestor_at_level is not None:
                siblings = {
                    node.node_id for node in
                    taxonomy.siblings(ancestor_at_level.node_id)}
            if asked.node_id in siblings:
                kind, rank = QuestionKind.NEGATIVE_HARD, 4
            else:
                kind, rank = QuestionKind.NEGATIVE_EASY, 5
        return Resolution(key, QuestionType.TRUE_FALSE, kind, truth,
                          self._shape_level(key, asked.level),
                          child_ref, asked.node_id,
                          is_instance=is_instance, rank=rank)

    def _resolve_mcq(self, key: str, child_id: str,
                     parsed: ParsedPrompt) -> Resolution | None:
        taxonomy = self.taxonomy(key)
        child = taxonomy.node(child_id)
        parent = taxonomy.parent(child_id)
        if parent is None:
            return None
        names = self._names(key)
        resolved = sum(1 for option in parsed.options
                       if option in names)
        if resolved < 2:
            return None
        correct = None
        for index, option in enumerate(parsed.options):
            if option == parent.name:
                correct = index
                break
        return Resolution(key, QuestionType.MCQ, QuestionKind.MCQ,
                          correct is not None,
                          self._shape_level(key, child.level - 1),
                          child_id, "mcq", correct_option=correct,
                          rank=0 if correct is not None else 4)


_default_oracle: TaxonomyOracle | None = None
_default_lock = threading.Lock()


def default_oracle() -> TaxonomyOracle:
    """Process-wide oracle over the default synthetic taxonomies."""
    global _default_oracle
    if _default_oracle is None:
        with _default_lock:
            if _default_oracle is None:
                _default_oracle = TaxonomyOracle()
    return _default_oracle
