"""Question pools: per-level datasets and Table 4 statistics.

A :class:`QuestionPool` is what the evaluation runner consumes: a flat
tuple of questions tagged with taxonomy, dataset kind and level.  The
:class:`TaxonomyPools` aggregate holds one pool per (level, dataset)
plus the level-combined totals that Tables 5-7 evaluate.

Pools over the registry taxonomies are a pure function of
``(taxonomy key, sample_size, seed)``, so :func:`build_pools` consults
the on-disk artifact store (:mod:`repro.store`) first: a warm load
deserializes the columnar artifact in milliseconds instead of
regenerating the taxonomy and resampling every level.  Pass
``store=False`` to force generation (the store itself does this on a
miss), or an explicit :class:`repro.store.ArtifactStore` to use a
non-default cache directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.generators.registry import build_taxonomy, get_spec
from repro.questions.generation import (LevelQuestions,
                                        generate_level_questions)
from repro.questions.model import DatasetKind, Question, level_label
from repro.taxonomy.taxonomy import Taxonomy


@dataclass(frozen=True, slots=True)
class QuestionPool:
    """A named, ordered set of questions fed to models as one dataset."""

    taxonomy_key: str
    dataset: DatasetKind
    level: int | None          # None = all levels combined
    questions: tuple[Question, ...]

    def __len__(self) -> int:
        return len(self.questions)

    @property
    def label(self) -> str:
        scope = "total" if self.level is None else level_label(self.level)
        return f"{self.taxonomy_key}/{self.dataset.value}/{scope}"


#: Dataset -> the :class:`LevelQuestions` attribute holding its
#: questions; only that one is read, so a store load decodes no other
#: question kind.
_QUESTIONS = {DatasetKind.EASY: "easy", DatasetKind.HARD: "hard",
              DatasetKind.MCQ: "mcqs"}


class TaxonomyPools:
    """All evaluation datasets derived from one taxonomy.

    ``taxonomy`` may be the :class:`Taxonomy` itself or a zero-argument
    callable producing it; the store's decoder passes a thunk so warm
    loads skip rebuilding the node graph until something asks for it.
    """

    def __init__(self, taxonomy_key: str,
                 taxonomy: Taxonomy | Callable[[], Taxonomy],
                 per_level: dict[int, LevelQuestions]):
        self.taxonomy_key = taxonomy_key
        if callable(taxonomy):
            self._taxonomy: Taxonomy | None = None
            self._taxonomy_thunk: Callable[[], Taxonomy] | None = taxonomy
        else:
            self._taxonomy = taxonomy
            self._taxonomy_thunk = None
        self._per_level = dict(sorted(per_level.items()))
        self._totals: dict[DatasetKind, QuestionPool] = {}

    @property
    def taxonomy(self) -> Taxonomy:
        """The source taxonomy (materialized lazily on store loads)."""
        if self._taxonomy is None:
            self._taxonomy = self._taxonomy_thunk()
            self._taxonomy_thunk = None
        return self._taxonomy

    @property
    def question_levels(self) -> list[int]:
        """Child levels with questions (1 .. num_levels - 1)."""
        return list(self._per_level)

    @property
    def per_level(self) -> dict[int, LevelQuestions]:
        """The raw per-level generation results (store codec input)."""
        return self._per_level

    def level_pool(self, level: int, dataset: DatasetKind) -> QuestionPool:
        """The per-level dataset (one line of Table 4)."""
        questions = getattr(self._per_level[level], _QUESTIONS[dataset])
        return QuestionPool(self.taxonomy_key, dataset, level, questions)

    def total_pool(self, dataset: DatasetKind) -> QuestionPool:
        """All levels combined (the Tables 5-7 evaluation sets).

        Cached per dataset kind: the overall tables request the same
        total once per model x prompt setting, and re-concatenating
        thousands of question tuples each time dominated their setup.
        """
        cached = self._totals.get(dataset)
        if cached is None:
            questions: list[Question] = []
            for level in self.question_levels:
                questions.extend(self.level_pool(level, dataset).questions)
            cached = QuestionPool(self.taxonomy_key, dataset, None,
                                  tuple(questions))
            self._totals[dataset] = cached
        return cached

    def statistics(self) -> list[dict[str, object]]:
        """Rows of Table 4 for this taxonomy (plus the totals row)."""
        rows = []
        for level in self.question_levels:
            rows.append({
                "level": level_label(level),
                "easy": len(self.level_pool(level, DatasetKind.EASY)),
                "hard": len(self.level_pool(level, DatasetKind.HARD)),
                "mcq": len(self.level_pool(level, DatasetKind.MCQ)),
            })
        rows.append({
            "level": "total",
            "easy": sum(row["easy"] for row in rows),
            "hard": sum(row["hard"] for row in rows),
            "mcq": sum(row["mcq"] for row in rows),
        })
        return rows


def generate_pools(taxonomy_key: str, taxonomy: Taxonomy | None = None,
                   sample_size: int | None = None,
                   seed: str = "") -> TaxonomyPools:
    """Generate every level's datasets for one taxonomy, bypassing any
    cache.  This is the pure producer the artifact store and the
    parallel build workers call; results are a deterministic function
    of the arguments."""
    if taxonomy is None:
        taxonomy = build_taxonomy(get_spec(taxonomy_key).key)
    per_level = {
        level: generate_level_questions(
            taxonomy_key, taxonomy, level,
            sample_size=sample_size, seed=seed)
        for level in range(1, taxonomy.num_levels)
    }
    return TaxonomyPools(taxonomy_key, taxonomy, per_level)


def build_pools(taxonomy_key: str, taxonomy: Taxonomy | None = None,
                sample_size: int | None = None,
                seed: str = "", store=True) -> TaxonomyPools:
    """Datasets for one taxonomy, served from the artifact store.

    ``sample_size`` overrides the Cochran size (useful for fast test
    runs); ``seed`` decorrelates repeated samplings.  ``store`` picks
    the cache: ``True`` (default) uses the default on-disk store,
    ``False``/``None`` generates from scratch, an
    :class:`repro.store.ArtifactStore` instance is used directly.
    Passing an explicit ``taxonomy`` always generates directly — the
    store only covers the registry taxonomies it can fingerprint.
    """
    if taxonomy is not None:
        return generate_pools(taxonomy_key, taxonomy,
                              sample_size=sample_size, seed=seed)
    if store is True:
        # Call-time: repro.store.artifacts imports this module (its
        # codec decodes TaxonomyPools and it builds with generate_pools).
        from repro.store.artifacts import default_store
        store = default_store()
    if not store:
        return generate_pools(taxonomy_key, sample_size=sample_size,
                              seed=seed)
    return store.get_or_build(taxonomy_key, sample_size=sample_size,
                              seed=seed)


@lru_cache(maxsize=32)
def default_pools(taxonomy_key: str,
                  sample_size: int | None = None) -> TaxonomyPools:
    """Cached pools over the default synthetic taxonomy."""
    return build_pools(taxonomy_key, sample_size=sample_size)
