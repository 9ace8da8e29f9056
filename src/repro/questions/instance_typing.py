"""Instance typing datasets (paper Section 4.5).

Instances are typed against the whole ancestor chain: given instance
``i`` under entity ``e_k`` at level ``k``, pairs ``(i -> e_k)``,
``(i -> e_k.p)``, ..., ``(i -> root)`` are generated, grouped by the
*target entity's* level.  Negatives mirror Section 2.2: hard negatives
are siblings of the target ancestor, easy negatives random nodes at the
target's level.

Instance sources per taxonomy (paper's definitions):

* Amazon / Google — synthetic product titles under last-level
  categories (the paper crawled Browsenodes / Google Shopping);
* ICD-10-CM — the deepest-level disease entities;
* NCBI — species; Glottolog — leaf languages; OAE — leaf adverse
  events.

eBay, GeoNames, Schema.org and ACM-CCS have no well-defined instances
and are skipped, as in the paper.

Note: for these questions :attr:`Question.level` stores the *target
ancestor's* level (0 = root), unlike hierarchy questions where it is
the child's level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import QuestionGenerationError
from repro.generators.products import PRODUCT_KEYS, product_titles
from repro.generators.registry import build_taxonomy
from repro.questions.model import (DatasetKind, Question, QuestionKind,
                                   QuestionType)
from repro.stats.sampling import cochran_sample_size
from repro.taxonomy.node import TaxonomyNode
from repro.taxonomy.taxonomy import Taxonomy

#: Taxonomies with instance typing experiments (paper Figure 6).
INSTANCE_TYPING_KEYS: tuple[str, ...] = (
    "amazon", "google", "glottolog", "icd10cm", "oae", "ncbi")


@dataclass(frozen=True, slots=True)
class Instance:
    """An instance entity attached under a taxonomy node."""

    name: str
    anchor_id: str      # the taxonomy node the instance lives under
    anchor_level: int


class InstanceTypingPools:
    """Instance typing datasets grouped by target ancestor level."""

    def __init__(self, taxonomy_key: str,
                 by_level: dict[int, dict[DatasetKind,
                                          tuple[Question, ...]]]):
        self.taxonomy_key = taxonomy_key
        self._by_level = dict(sorted(by_level.items()))

    @property
    def target_levels(self) -> list[int]:
        return list(self._by_level)

    def questions(self, target_level: int,
                  dataset: DatasetKind) -> tuple[Question, ...]:
        return self._by_level[target_level][dataset]

    def total(self, dataset: DatasetKind) -> tuple[Question, ...]:
        out: list[Question] = []
        for level in self.target_levels:
            out.extend(self._by_level[level][dataset])
        return tuple(out)


def collect_instances(taxonomy_key: str, taxonomy: Taxonomy,
                      rng: random.Random) -> list[Instance]:
    """Materialize the instance population for a taxonomy."""
    deepest = taxonomy.num_levels - 1
    if taxonomy_key in PRODUCT_KEYS:
        return [Instance(title, anchor_id, deepest)
                for title, anchor_id in product_titles(taxonomy_key,
                                                       taxonomy)]
    # Leaf-entity taxonomies: the deepest level *is* the instance set,
    # typed against ancestors starting at the parent level.
    return [Instance(node.name, node.node_id, node.level)
            for node in taxonomy.nodes_at_level(deepest)]


def _uid(taxonomy_key: str, kind: QuestionKind, instance: Instance,
         target_level: int, asked: str) -> str:
    return (f"it|{taxonomy_key}|{kind.value}|{instance.name}"
            f"|{target_level}|{asked}")


def _pair(taxonomy: Taxonomy, taxonomy_key: str, kind: QuestionKind,
          instance: Instance, target: TaxonomyNode,
          truth: TaxonomyNode) -> Question:
    return Question(
        uid=_uid(taxonomy_key, kind, instance, truth.level,
                 target.node_id),
        taxonomy_key=taxonomy_key,
        domain=taxonomy.domain,
        qtype=QuestionType.TRUE_FALSE,
        kind=kind,
        level=truth.level,
        child_id=instance.anchor_id,
        child_name=instance.name,
        true_parent_id=truth.node_id,
        true_parent_name=truth.name,
        asked_parent_name=target.name,
    )


def build_instance_typing_pools(
        taxonomy_key: str, taxonomy: Taxonomy | None = None,
        sample_size: int | None = None,
        seed: str = "") -> InstanceTypingPools:
    """Generate the Figure 6 datasets for one taxonomy."""
    if taxonomy_key not in INSTANCE_TYPING_KEYS:
        raise QuestionGenerationError(
            f"{taxonomy_key} has no well-defined instances "
            f"(paper Section 4.5)")
    if taxonomy is None:
        taxonomy = build_taxonomy(taxonomy_key)
    rng = random.Random(f"instances|{seed}|{taxonomy_key}")
    instances = collect_instances(taxonomy_key, taxonomy, rng)
    if sample_size is None:
        sample_size = cochran_sample_size(len(instances))
    sample_size = min(sample_size, len(instances))
    sampled = rng.sample(instances, sample_size)

    by_level: dict[int, dict[DatasetKind, list[Question]]] = {}
    for instance in sampled:
        anchor = taxonomy.node(instance.anchor_id)
        # Targets: the anchor itself for product instances (products sit
        # *under* the category), else the ancestor chain only.
        targets = ([anchor] if taxonomy_key in PRODUCT_KEYS else [])
        targets += taxonomy.ancestors(instance.anchor_id)
        for truth in targets:
            slot = by_level.setdefault(truth.level, {
                DatasetKind.EASY: [], DatasetKind.HARD: []})
            positive = _pair(taxonomy, taxonomy_key,
                             QuestionKind.POSITIVE, instance, truth,
                             truth)
            easy_pick = _random_other(taxonomy, truth, rng)
            if easy_pick is not None:
                slot[DatasetKind.EASY].append(positive)
                slot[DatasetKind.EASY].append(_pair(
                    taxonomy, taxonomy_key, QuestionKind.NEGATIVE_EASY,
                    instance, easy_pick, truth))
            siblings = taxonomy.siblings(truth.node_id)
            if siblings:
                slot[DatasetKind.HARD].append(positive)
                slot[DatasetKind.HARD].append(_pair(
                    taxonomy, taxonomy_key, QuestionKind.NEGATIVE_HARD,
                    instance, rng.choice(siblings), truth))

    return InstanceTypingPools(taxonomy_key, {
        level: {kind: tuple(questions)
                for kind, questions in kinds.items()}
        for level, kinds in by_level.items()
    })


def _random_other(taxonomy: Taxonomy, truth: TaxonomyNode,
                  rng: random.Random) -> TaxonomyNode | None:
    """A random same-level node other than ``truth`` (one bounded draw)."""
    pool = taxonomy.nodes_at_level(truth.level)
    if len(pool) < 2:
        return None
    truth_pos = taxonomy.position_in_level(truth.node_id)
    pick = rng.randrange(len(pool) - 1)
    if pick >= truth_pos:
        pick += 1
    return pool[pick]
