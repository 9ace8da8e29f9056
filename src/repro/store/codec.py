"""Columnar (de)serialization of taxonomies and question pools.

The artifact payload is a single JSON document laid out
struct-of-arrays style: the taxonomy is three parallel columns
(``ids``, ``names``, ``parents`` as row indices), and each question
column stores node *indices* rather than repeating id/name strings, so
an NCBI-scale artifact stays a few megabytes and decodes with tight
list comprehensions.  Everything a :class:`Question` carries (uids,
names, levels, MCQ options and answer positions) is reconstructed
bit-for-bit from the columns — round-trip equality is enforced by the
test suite and the dataset-build benchmark.

A taxonomy artifact (:func:`encode_taxonomy_artifact`) carries the same
three taxonomy columns on their own, plus — for taxonomies whose leaf
categories hold product instances — the product titles and their
anchor rows as two more parallel columns.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.generators.products import product_titles
from repro.questions.generation import LevelQuestions
from repro.questions.model import (MCQ_LETTERS, Question, QuestionKind,
                                   QuestionType)
from repro.questions.pools import TaxonomyPools
from repro.store.fingerprint import SCHEMA_VERSION
from repro.taxonomy.node import Domain, TaxonomyNode
from repro.taxonomy.taxonomy import Taxonomy


class ArtifactDecodeError(ReproError):
    """Raised when a payload does not decode; callers rebuild instead."""


# ----------------------------------------------------------------------
# Taxonomy columns
# ----------------------------------------------------------------------
def _encode_taxonomy(taxonomy: Taxonomy) -> dict:
    ids = [node.node_id for node in taxonomy]
    names = [node.name for node in taxonomy]
    index = {node_id: row for row, node_id in enumerate(ids)}
    parents = [-1 if node.parent_id is None else index[node.parent_id]
               for node in taxonomy]
    return {
        "name": taxonomy.name,
        "domain": taxonomy.domain.value,
        "concept_noun": taxonomy.concept_noun,
        "ids": ids,
        "names": names,
        "parents": parents,
    }


def decode_taxonomy(payload: dict) -> Taxonomy:
    """The :class:`Taxonomy` a taxonomy column describes."""
    ids = payload["ids"]
    names = payload["names"]
    parents = payload["parents"]
    nodes: dict[str, TaxonomyNode] = {}
    rows: list[TaxonomyNode] = []
    # Builders append children after their parent, so one ordered pass
    # resolves parent ids, levels and children order simultaneously.
    # Positional arguments and an explicit children list halve the
    # node construction cost, which dominates an NCBI-scale decode.
    for node_id, name, parent_row in zip(ids, names, parents):
        if parent_row < 0:
            node = TaxonomyNode(node_id, name, 0, None, [])
        else:
            parent = rows[parent_row]
            node = TaxonomyNode(node_id, name, parent.level + 1,
                                parent.node_id, [])
            parent.children_ids.append(node_id)
        rows.append(node)
        nodes[node_id] = node
    return Taxonomy(payload["name"], Domain(payload["domain"]), nodes,
                    concept_noun=payload["concept_noun"])


# ----------------------------------------------------------------------
# Question columns
# ----------------------------------------------------------------------
def _tf_columns(questions, index: dict[str, int]) -> dict:
    return {
        "child": [index[q.child_id] for q in questions],
        "asked": [index[q.uid.rsplit("|", 1)[1]] for q in questions],
    }


def _mcq_columns(questions, index: dict[str, int],
                 by_name: dict[str, int], names: list[str]) -> dict:
    options: list[object] = []
    for question in questions:
        for option in question.options:
            row = by_name.get(option)
            # Generated names are globally unique, but fall back to the
            # literal string rather than mis-encode an aliased name.
            options.append(row if row is not None
                           and names[row] == option else option)
    return {
        "child": [index[q.child_id] for q in questions],
        "options": options,
        "answer": [q.answer_index for q in questions],
    }


class _Columns:
    """Raw taxonomy arrays plus the derived ``levels`` column.

    Question decoding reads these arrays directly — reconstructing the
    full :class:`Taxonomy` node graph (the dominant decode cost at NCBI
    scale) is deferred until something touches ``pools.taxonomy``.
    """

    __slots__ = ("ids", "names", "parents", "levels", "domain")

    def __init__(self, payload: dict):
        self.ids: list[str] = payload["ids"]
        self.names: list[str] = payload["names"]
        self.parents: list[int] = payload["parents"]
        self.domain = Domain(payload["domain"])
        if not len(self.ids) == len(self.names) == len(self.parents):
            raise ArtifactDecodeError("taxonomy columns disagree")
        levels: list[int] = []
        for parent_row in self.parents:
            levels.append(0 if parent_row < 0 else levels[parent_row] + 1)
        self.levels = levels


def _decode_tf(taxonomy_key: str, cols: _Columns, kind: QuestionKind,
               column: dict) -> tuple[Question, ...]:
    ids, names, levels = cols.ids, cols.names, cols.levels
    parents, domain = cols.parents, cols.domain
    kind_value = kind.value
    questions = []
    for child, asked in zip(column["child"], column["asked"]):
        child_id = ids[child]
        parent = parents[child]
        questions.append(Question(
            uid=f"{taxonomy_key}|{kind_value}|{child_id}|{ids[asked]}",
            taxonomy_key=taxonomy_key,
            domain=domain,
            qtype=QuestionType.TRUE_FALSE,
            kind=kind,
            level=levels[child],
            child_id=child_id,
            child_name=names[child],
            true_parent_id=ids[parent],
            true_parent_name=names[parent],
            asked_parent_name=names[asked],
        ))
    return tuple(questions)


def _decode_mcq(taxonomy_key: str, cols: _Columns,
                column: dict) -> tuple[Question, ...]:
    ids, names, levels = cols.ids, cols.names, cols.levels
    parents, domain = cols.parents, cols.domain
    questions = []
    flat = column["options"]
    for slot, (child, answer) in enumerate(
            zip(column["child"], column["answer"])):
        child_id = ids[child]
        parent = parents[child]
        options = tuple(
            value if isinstance(value, str) else names[value]
            for value in flat[slot * 4:slot * 4 + 4])
        questions.append(Question(
            uid=f"{taxonomy_key}|{QuestionKind.MCQ.value}"
                f"|{child_id}|options",
            taxonomy_key=taxonomy_key,
            domain=domain,
            qtype=QuestionType.MCQ,
            kind=QuestionKind.MCQ,
            level=levels[child],
            child_id=child_id,
            child_name=names[child],
            true_parent_id=ids[parent],
            true_parent_name=names[parent],
            options=options,
            answer_index=answer,
        ))
    return tuple(questions)


#: Payload column -> kind of the true/false questions it holds.
_TF_KINDS = {"positive": QuestionKind.POSITIVE,
             "negative_easy": QuestionKind.NEGATIVE_EASY,
             "negative_hard": QuestionKind.NEGATIVE_HARD}


def _rows_ok(values: list, rows: int) -> bool:
    """Every value is an ``int`` in ``[0, rows)``."""
    return not values or (set(map(type, values)) == {int}
                          and min(values) >= 0 and max(values) < rows)


def _check_level(entry: dict, rows: int) -> None:
    """Raise :class:`ArtifactDecodeError` unless every question column
    of ``entry`` is present, its lengths agree and each row index is in
    range — all that could make a later decode of it fail."""
    for name in _TF_KINDS:
        child, asked = entry[name]["child"], entry[name]["asked"]
        if not (len(child) == len(asked) and _rows_ok(child, rows)
                and _rows_ok(asked, rows)):
            raise ArtifactDecodeError(f"bad {name} column")
    mcq = entry["mcq"]
    child, answer, options = mcq["child"], mcq["answer"], mcq["options"]
    if not (len(answer) == len(child)
            and len(options) == len(MCQ_LETTERS) * len(child)
            and _rows_ok(child, rows)
            and _rows_ok(answer, len(MCQ_LETTERS))
            and _rows_ok([value for value in options
                          if type(value) is not str], rows)):
        raise ArtifactDecodeError("bad mcq column")


class _DecodedLevel:
    """One level's :class:`LevelQuestions` read off its columns, each
    question kind decoded on first use (:func:`_check_level` has
    already vetted them)."""

    __slots__ = ("taxonomy_key", "level", "_cols", "_entry", "_kinds")

    easy = LevelQuestions.easy
    hard = LevelQuestions.hard

    def __init__(self, taxonomy_key: str, cols: _Columns, entry: dict):
        self.taxonomy_key = taxonomy_key
        self.level = entry["level"]
        self._cols = cols
        self._entry = entry
        self._kinds: dict[str, tuple[Question, ...]] = {}

    def _kind(self, name: str) -> tuple[Question, ...]:
        questions = self._kinds.get(name)
        if questions is None:
            column = self._entry[name]
            questions = self._kinds[name] = (
                _decode_mcq(self.taxonomy_key, self._cols, column)
                if name == "mcq" else
                _decode_tf(self.taxonomy_key, self._cols,
                           _TF_KINDS[name], column))
        return questions

    positives = property(lambda self: self._kind("positive"))
    negatives_easy = property(lambda self: self._kind("negative_easy"))
    negatives_hard = property(lambda self: self._kind("negative_hard"))
    mcqs = property(lambda self: self._kind("mcq"))


# ----------------------------------------------------------------------
# Whole-artifact payloads
# ----------------------------------------------------------------------
def taxonomy_index(taxonomy_column: dict) -> tuple[dict, dict]:
    """``(id -> row, name -> first row)`` lookups for a taxonomy column."""
    index = {node_id: row
             for row, node_id in enumerate(taxonomy_column["ids"])}
    by_name: dict[str, int] = {}
    for row, name in enumerate(taxonomy_column["names"]):
        by_name.setdefault(name, row)
    return index, by_name


def encode_level(generated: LevelQuestions, index: dict,
                 by_name: dict, names: list[str]) -> dict:
    """One level's question columns (a ``levels`` entry of the payload).

    Exposed separately so parallel build workers can encode single
    levels; :func:`encode_pools` assembles the same entries.
    """
    return {
        "level": generated.level,
        "positive": _tf_columns(generated.positives, index),
        "negative_easy": _tf_columns(generated.negatives_easy, index),
        "negative_hard": _tf_columns(generated.negatives_hard, index),
        "mcq": _mcq_columns(generated.mcqs, index, by_name, names),
    }


def encode_pools(pools: TaxonomyPools, fingerprint: str,
                 sample_size: int | None, seed: str) -> dict:
    """Serialize ``pools`` into the columnar artifact payload."""
    taxonomy_column = _encode_taxonomy(pools.taxonomy)
    index, by_name = taxonomy_index(taxonomy_column)
    levels = [encode_level(generated, index, by_name,
                           taxonomy_column["names"])
              for generated in pools.per_level.values()]
    return {
        "schema": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "taxonomy_key": pools.taxonomy_key,
        "sample_size": sample_size,
        "seed": seed,
        "taxonomy": taxonomy_column,
        "levels": levels,
    }


def decode_pools(payload: dict) -> TaxonomyPools:
    """Rebuild :class:`TaxonomyPools` from :func:`encode_pools` output.

    Every column is checked here, and each (level, question kind) is
    decoded on first use, so a request reads only the kinds it asks
    for.  Raises :class:`ArtifactDecodeError` on any malformed payload
    so the store can fall back to regeneration.
    """
    try:
        if payload["schema"] != SCHEMA_VERSION:
            raise ArtifactDecodeError(
                f"schema {payload['schema']} != {SCHEMA_VERSION}")
        taxonomy_key = payload["taxonomy_key"]
        taxonomy_column = payload["taxonomy"]
        cols = _Columns(taxonomy_column)
        per_level: dict[int, _DecodedLevel] = {}
        for entry in payload["levels"]:
            _check_level(entry, len(cols.ids))
            per_level[entry["level"]] = _DecodedLevel(taxonomy_key, cols,
                                                      entry)
        # The node graph is rebuilt only if a consumer dereferences
        # ``pools.taxonomy`` — question decoding never needs it.
        return TaxonomyPools(
            taxonomy_key,
            lambda: decode_taxonomy(taxonomy_column),
            per_level)
    except ArtifactDecodeError:
        raise
    except Exception as exc:
        raise ArtifactDecodeError(f"malformed artifact: {exc!r}") from exc


# ----------------------------------------------------------------------
# Taxonomy artifacts
# ----------------------------------------------------------------------
def taxonomy_columns(taxonomy: Taxonomy, taxonomy_key: str) -> dict:
    """The taxonomy column, plus the product titles of a shopping
    taxonomy (:func:`~repro.generators.products.product_titles`) as
    ``titles`` with their ``anchors`` rows."""
    column = _encode_taxonomy(taxonomy)
    products = product_titles(taxonomy_key, taxonomy)
    if products:
        rows = {node_id: row for row, node_id in enumerate(column["ids"])}
        column["titles"] = [title for title, _ in products]
        column["anchors"] = [rows[anchor_id] for _, anchor_id in products]
    return column


def encode_taxonomy_artifact(taxonomy: Taxonomy, taxonomy_key: str,
                             fingerprint: str) -> dict:
    """Serialize one taxonomy's :func:`taxonomy_columns`."""
    return {
        "schema": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "taxonomy_key": taxonomy_key,
        "taxonomy": taxonomy_columns(taxonomy, taxonomy_key),
    }


def check_taxonomy_artifact(payload: dict) -> dict:
    """``payload`` once it is known to be well-formed
    :func:`encode_taxonomy_artifact` output.

    Raises :class:`ArtifactDecodeError` on any malformed payload so the
    store can fall back to regeneration.
    """
    try:
        schema = payload["schema"]
        column = payload["taxonomy"]
        rows = len(column["ids"])
        Domain(column["domain"])
        consistent = (isinstance(column["name"], str)
                      and isinstance(column["concept_noun"], str)
                      and len(column["names"]) == rows
                      and len(column["parents"]) == rows
                      and len(column.get("titles", ()))
                      == len(column.get("anchors", ())))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed artifact: {exc!r}") from exc
    if schema != SCHEMA_VERSION:
        raise ArtifactDecodeError(f"schema {schema} != {SCHEMA_VERSION}")
    if not consistent:
        raise ArtifactDecodeError("taxonomy columns disagree")
    return payload
