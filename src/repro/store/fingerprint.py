"""Cache-key fingerprints for dataset artifacts.

An artifact is valid only while everything that determines its content
is unchanged: the taxonomy spec (Table 1 widths, naming seed, domain),
the build request (sample_size, seed), the on-disk schema version, and
the *generator code itself* — a change to the sampling logic or the
name forge must invalidate every cached pool even though the specs look
identical.  The code fingerprint hashes the source bytes of the modules
on the generation path, so editing any of them rotates every cache key
automatically; no manual version bumping required.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

import repro
from repro.generators.base import DEFAULT_LEVEL_CAP, TaxonomySpec

#: Bump when the artifact payload layout changes shape.
SCHEMA_VERSION = 1

#: Modules whose source determines generated pool content.  Paths are
#: relative to the ``repro`` package root.
_CODE_PATHS = (
    "generators",                 # all ten specs + the shared framework
    "questions/generation.py",    # sampling + question assembly
    "questions/model.py",         # Question field layout
    "stats/sampling.py",          # Cochran sizes
    "taxonomy/builder.py",
    "taxonomy/node.py",
    "taxonomy/taxonomy.py",       # level ordering feeds sampling order
)


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hex digest over the generation-path source files."""
    digest = hashlib.sha256()
    root = _package_root()
    for rel in _CODE_PATHS:
        path = root / rel
        files = sorted(path.glob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def _digest(spec: TaxonomySpec, schema_version: int, code: str | None,
            *request: str) -> str:
    material = "|".join((
        f"schema={schema_version}",
        f"code={code if code is not None else code_fingerprint()}",
        f"key={spec.key}",
        f"name={spec.display_name}",
        f"domain={spec.domain.value}",
        f"noun={spec.concept_noun}",
        f"widths={','.join(map(str, spec.level_widths))}",
        f"genseed={spec.seed}",
        f"cap={DEFAULT_LEVEL_CAP}",
        *request,
    ))
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def spec_fingerprint(spec: TaxonomySpec,
                     sample_size: int | None,
                     seed: str,
                     schema_version: int = SCHEMA_VERSION,
                     code: str | None = None) -> str:
    """Content-address for one (spec, build request) artifact."""
    return _digest(
        spec, schema_version, code,
        f"sample={'cochran' if sample_size is None else sample_size}",
        f"seed={seed}")


def taxonomy_fingerprint(spec: TaxonomySpec,
                         schema_version: int = SCHEMA_VERSION,
                         code: str | None = None) -> str:
    """Content-address for one taxonomy artifact (no sample or seed:
    the taxonomy and its product titles do not depend on them)."""
    return _digest(spec, schema_version, code)
