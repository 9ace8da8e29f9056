"""Content-addressed on-disk store for built datasets.

Layout: ``<root>/<taxonomy_key>/<fingerprint>.json`` holds question
pools, where the fingerprint covers the taxonomy spec, the build
request (sample_size/seed), the artifact schema version and the
generator code fingerprint (:mod:`repro.store.fingerprint`).  A spec
edit, seed change, schema bump or generator code change therefore lands
on a new path and the stale artifact is simply never read again —
invalidation is automatic, no manifest to maintain.  Beside the pools,
``<root>/<taxonomy_key>/taxonomy-<fingerprint>.json`` holds the
taxonomy alone (plus product titles), keyed without sample or seed;
the simulated models' oracle reads it.

Corrupted or truncated artifacts are treated as misses: the store
rebuilds and rewrites them instead of crashing.  Writes go through a
temp file + ``os.replace`` so concurrent builders (the parallel driver,
multiple test processes) never observe half-written JSON.  A write
that fails (read-only store, full disk) is logged and counted, and the
built value is still returned: the store is a cache, never a reason
for a caller to fail.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

from repro.generators.registry import build_taxonomy, get_spec
from repro.obs.jsonl import replace_text
from repro.questions.pools import generate_pools
from repro.store.codec import (ArtifactDecodeError,
                               check_taxonomy_artifact, decode_pools,
                               encode_pools, encode_taxonomy_artifact)
from repro.store.fingerprint import spec_fingerprint, taxonomy_fingerprint

_log = logging.getLogger("repro.store.artifacts")

#: Environment override for the default store root; set to ``off`` (or
#: ``0`` / ``none``) to disable on-disk caching entirely.
STORE_ENV = "REPRO_STORE_DIR"

_DISABLED_VALUES = {"off", "0", "none", "disabled"}


@dataclass
class StoreStats:
    """Counters for observability and tests."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    invalid: int = 0          # artifacts present but unreadable/stale
    save_failures: int = 0    # built values the store could not write

    def as_row(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "invalid": self.invalid,
                "save_failures": self.save_failures}


class ArtifactStore:
    """A directory of content-addressed dataset artifacts."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else _default_root()
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def fingerprint(self, taxonomy_key: str,
                    sample_size: int | None = None,
                    seed: str = "") -> str:
        return spec_fingerprint(get_spec(taxonomy_key), sample_size, seed)

    def path_for(self, taxonomy_key: str,
                 sample_size: int | None = None,
                 seed: str = "") -> Path:
        key = get_spec(taxonomy_key).key
        return (self.root / key /
                f"{self.fingerprint(key, sample_size, seed)}.json")

    # ------------------------------------------------------------------
    def load(self, taxonomy_key: str, sample_size: int | None = None,
             seed: str = ""):
        """Decoded pools on a warm hit, else ``None`` (miss/corrupt)."""
        return self._read(self.path_for(taxonomy_key, sample_size, seed),
                          decode_pools)

    def _read(self, path: Path, decode):
        """``decode(payload)`` of the artifact at ``path``, or ``None``."""
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            value = decode(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, ArtifactDecodeError) as exc:
            # Corrupted / truncated / stale-schema artifact: drop it and
            # report a miss so the caller rebuilds.
            _log.warning("artifact-corrupt recovered path=%s error=%s",
                         path, type(exc).__name__)
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        self.stats.hits += 1
        return value

    def save_payload(self, payload: dict) -> Path:
        """Persist an encoded pools payload (see :meth:`_write`)."""
        path = self.root / payload["taxonomy_key"] / \
            f"{payload['fingerprint']}.json"
        self._write(path, payload)
        return path

    def save(self, pools, sample_size: int | None = None,
             seed: str = "") -> Path:
        """Encode and persist built pools under their fingerprint."""
        fingerprint = self.fingerprint(pools.taxonomy_key, sample_size,
                                       seed)
        return self.save_payload(
            encode_pools(pools, fingerprint, sample_size, seed))

    def _write(self, path: Path, payload: dict) -> None:
        """Atomically write ``payload`` as JSON at ``path``.  A failed
        write is logged and counted instead of raised: the caller
        still holds the built value."""
        text = json.dumps(payload, separators=(",", ":"))
        try:
            replace_text(path, text)
        except OSError as exc:
            _log.warning("artifact-save-failed path=%s error=%s", path,
                         type(exc).__name__)
            self.stats.save_failures += 1

    # ------------------------------------------------------------------
    def get_or_build(self, taxonomy_key: str,
                     sample_size: int | None = None, seed: str = ""):
        """Warm load when possible, else generate, persist and return."""
        pools = self.load(taxonomy_key, sample_size, seed)
        if pools is not None:
            return pools
        pools = generate_pools(get_spec(taxonomy_key).key,
                               sample_size=sample_size, seed=seed)
        self.stats.builds += 1
        self.save(pools, sample_size, seed)
        return pools

    # ------------------------------------------------------------------
    # Taxonomy artifacts
    # ------------------------------------------------------------------
    def taxonomy_path(self, taxonomy_key: str) -> Path:
        spec = get_spec(taxonomy_key)
        return (self.root / spec.key /
                f"taxonomy-{taxonomy_fingerprint(spec)}.json")

    def load_taxonomy(self, taxonomy_key: str) -> dict | None:
        """A taxonomy artifact payload on a warm hit, else ``None``."""
        return self._read(self.taxonomy_path(taxonomy_key),
                          check_taxonomy_artifact)

    def save_taxonomy(self, payload: dict) -> Path:
        """Persist a :func:`build_taxonomy_artifact` payload."""
        path = self.root / payload["taxonomy_key"] / \
            f"taxonomy-{payload['fingerprint']}.json"
        self._write(path, payload)
        return path

    def get_or_build_taxonomy(self, taxonomy_key: str) -> dict:
        """One taxonomy's artifact payload: loaded warm, else built and
        persisted."""
        payload = self.load_taxonomy(taxonomy_key)
        if payload is None:
            payload = build_taxonomy_artifact(taxonomy_key)
            self.stats.builds += 1
            self.save_taxonomy(payload)
        return payload


def build_taxonomy_artifact(taxonomy_key: str) -> dict:
    """Generate one registry taxonomy's artifact payload in memory:
    its columns plus, for a shopping taxonomy, its product titles."""
    spec = get_spec(taxonomy_key)
    return encode_taxonomy_artifact(build_taxonomy(spec.key), spec.key,
                                    taxonomy_fingerprint(spec))


def _default_root() -> Path:
    value = os.environ.get(STORE_ENV)
    if value:
        return Path(value)
    return Path.home() / ".cache" / "repro-taxoglimpse" / "datasets"


def default_store() -> ArtifactStore | None:
    """The process-default store, or ``None`` when disabled via env."""
    value = os.environ.get(STORE_ENV, "").strip().lower()
    if value in _DISABLED_VALUES:
        return None
    return ArtifactStore()
