"""Run manifests: the identity card written next to every run artifact.

A journal, bench report or flight record is only analyzable if you know
exactly what produced it.  The manifest pins that down: package version,
Python/platform, the run's configuration and seeds, the DRAM device profile
attacked, and -- for sweeps -- the content SHA of the expanded grid (the
same identity the journal header carries).

Manifests deliberately carry **no timestamps**: re-running the same seeded
command on the same interpreter produces a byte-identical manifest, so the
artifact set as a whole stays reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.version import __version__

MANIFEST_SCHEMA = "repro-manifest/1"

PathLike = Union[str, Path]


def manifest_path_for(artifact: PathLike) -> Path:
    """Where an artifact's manifest lives: ``<artifact>.manifest.json``."""
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + ".manifest.json")


def sha256_file(path: PathLike) -> str:
    """Content SHA-256 of an artifact file (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _profile_dict(device: Optional[str]) -> Optional[Dict[str, object]]:
    if device is None:
        return None
    from repro.rowhammer.device_profiles import get_profile

    return dataclasses.asdict(get_profile(device))


def build_manifest(
    run_kind: str,
    config: Optional[Dict[str, object]] = None,
    seeds: Sequence[int] = (),
    device: Optional[str] = None,
    grid_sha: Optional[str] = None,
    artifacts: Optional[Dict[str, str]] = None,
    counters: Optional[Dict[str, float]] = None,
    artifact_sha256: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Assemble the manifest document for one run.

    Parameters
    ----------
    run_kind:
        ``"bench"``, ``"sweep"``, ``"attack"``, ... -- the producing command.
    config:
        The run's effective configuration as plain JSON-able data.
    seeds:
        Every seed the run depends on.
    device:
        Table I device tag; expanded to the full profile when given.
    grid_sha:
        Content SHA of the expanded sweep grid (sweeps only).
    artifacts:
        Logical name -> file name of the sibling artifacts this manifest
        describes (journal, report, events, trace).
    counters:
        Deterministic run counters worth pinning to the artifact identity
        (e.g. the evaluation engine's ``engine.cache.*`` hit/miss totals).
    artifact_sha256:
        Logical artifact name -> content SHA-256 (:func:`sha256_file`) for
        the *deterministic* sibling artifacts (rows, flight records --
        never journals, whose wall-clock durations vary between runs).
        This is what lets ``repro merge`` prove its output byte-identical
        to the unsharded sweep it reassembles.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "run_kind": run_kind,
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": dict(config or {}),
        "seeds": [int(seed) for seed in seeds],
        "device_profile": _profile_dict(device),
        "grid_sha": grid_sha,
        "artifacts": dict(artifacts or {}),
        "counters": dict(counters or {}),
        "artifact_sha256": dict(artifact_sha256 or {}),
    }


def write_manifest(manifest: Dict[str, object], path: PathLike) -> Path:
    """Write a manifest as stable JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: PathLike) -> Dict[str, object]:
    from repro.telemetry.registry import TelemetryError

    manifest = json.loads(Path(path).read_text())
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise TelemetryError(
            f"{path}: expected schema {MANIFEST_SCHEMA!r}, got {manifest.get('schema')!r}"
        )
    return manifest
