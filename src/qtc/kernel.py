"""Fidelity kernel K(x, y) = |<phi(y)|phi(x)>|^2 and Gram-matrix assembly.

Exact mode computes encoded statevectors once per point and takes inner
products directly.  Sampled mode mirrors hardware execution: it runs the
compose(map(x), adjoint(map(y))) circuit and estimates the kernel as the
frequency of the all-zeros outcome.  Per-entry sampling seeds are derived
deterministically from (master seed, i, j) so parallel assembly order can
never change the result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .circuits import FeatureMapSpec, build_feature_map, compose
from .errors import ParseError, ValidationError
from .qsim import adjoint, run, sample

__all__ = [
    "GramMatrix",
    "encoded_state",
    "exact_kernel",
    "sampled_kernel",
    "gram",
    "psd_project",
    "save_gram",
    "load_gram",
]


@dataclass
class GramMatrix:
    """Kernel values plus the estimation metadata needed to reproduce them."""

    values: np.ndarray
    mode: str  # "exact" | "sampled"
    feature_map: FeatureMapSpec
    shots: int | None = None
    seed: int | None = None


def encoded_state(spec: FeatureMapSpec, x) -> np.ndarray:
    """Amplitudes of the encoded state |phi(x)>."""
    return run(build_feature_map(spec, x)).amplitudes


def exact_kernel(spec: FeatureMapSpec, x, y) -> float:
    """Squared overlap of the two encoded states, in [0, 1]."""
    sx = encoded_state(spec, x)
    sy = encoded_state(spec, y)
    return float(abs(np.vdot(sy, sx)) ** 2)


def sampled_kernel(spec: FeatureMapSpec, x, y, shots: int, seed) -> float:
    """Shot-based estimate: frequency of the all-zeros outcome of map(x) map(y)^dag."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    circ = compose(build_feature_map(spec, x), adjoint(build_feature_map(spec, y)))
    counts = sample(run(circ), shots, seed)
    return counts.get(0, 0) / shots


def gram(
    spec: FeatureMapSpec,
    X,
    Y=None,
    *,
    mode: str = "exact",
    shots: int = 1024,
    seed: int = 0,
) -> GramMatrix:
    """Kernel matrix over rows of X (square) or X versus Y (rectangular).

    The square case fills the upper triangle and mirrors it; in exact mode
    the diagonal is set to 1 outright.
    """
    X = np.asarray(X, dtype=float)
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    square = Y is None
    Ym = X if square else np.asarray(Y, dtype=float)
    if X.ndim != 2 or Ym.ndim != 2 or X.shape[1] != Ym.shape[1]:
        raise ValidationError("gram expects 2-D inputs with matching feature counts")

    m, mp = X.shape[0], Ym.shape[0]
    K = np.empty((m, mp), dtype=float)

    if mode == "exact":
        SX = np.array([encoded_state(spec, row) for row in X])
        SY = SX if square else np.array([encoded_state(spec, row) for row in Ym])
        K[:] = np.abs(SX.conj() @ SY.T) ** 2
        if square:
            iu = np.triu_indices(m, k=1)
            K[(iu[1], iu[0])] = K[iu]
            np.fill_diagonal(K, 1.0)
    else:
        for i in range(m):
            j0 = i if square else 0
            for j in range(j0, mp):
                K[i, j] = sampled_kernel(spec, X[i], Ym[j], shots, (seed, i, j))
                if square and j > i:
                    K[j, i] = K[i, j]

    return GramMatrix(
        values=K,
        mode=mode,
        feature_map=spec,
        shots=shots if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )


def psd_project(g: GramMatrix) -> GramMatrix:
    """Clip negative eigenvalues to zero and re-symmetrize.

    Keeps the fidelity-kernel semantics (diagonal near 1) better than a
    diagonal shift would; already-PSD inputs pass through unchanged up to
    round-off.
    """
    K = np.asarray(g.values, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError("psd_project expects a square matrix")
    sym = 0.5 * (K + K.T)
    w, V = np.linalg.eigh(sym)
    out = (V * np.clip(w, 0.0, None)) @ V.T
    out = 0.5 * (out + out.T)
    return GramMatrix(out, g.mode, g.feature_map, g.shots, g.seed)


def save_gram(directory, g: GramMatrix, data_hash: str, upstream_hash: str | None = None) -> None:
    """Write gram.csv (no header) and gram.manifest.json into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "gram.csv"), "w", encoding="utf-8", newline="") as fh:
        for row in g.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    manifest = {
        "feature_map": g.feature_map.to_dict(),
        "mode": g.mode,
        "shots": g.shots,
        "seed": g.seed,
        "data_hash": data_hash,
        "upstream_hash": upstream_hash,
        "shape": list(g.values.shape),
    }
    with open(os.path.join(directory, "gram.manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Manifest fields load_gram reads, with the JSON types each may hold.
_MANIFEST_FIELDS = {
    "shape": list,
    "mode": str,
    "feature_map": dict,
    "shots": (int, type(None)),
    "seed": (int, type(None)),
}


def load_gram(directory) -> tuple[GramMatrix, dict]:
    """Read a Gram cache written by save_gram; returns (matrix, manifest)."""
    path = os.path.join(directory, "gram.csv")
    manifest_path = os.path.join(directory, "gram.manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read gram manifest in {directory}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: manifest must hold a JSON object")
    for key, kind in _MANIFEST_FIELDS.items():
        if key not in manifest:
            raise ParseError(f"{manifest_path}: missing field {key!r}")
        if isinstance(manifest[key], bool) or not isinstance(manifest[key], kind):
            raise ParseError(f"{manifest_path}: field {key!r} has the wrong type")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}: bad value at row {lineno}") from exc
    values = np.asarray(rows, dtype=float)
    if list(values.shape) != manifest["shape"]:
        raise ParseError(f"{path}: shape {values.shape} does not match manifest")
    try:
        spec = FeatureMapSpec.from_dict(manifest["feature_map"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{manifest_path}: malformed feature_map ({exc!r})") from exc
    g = GramMatrix(
        values=values,
        mode=manifest["mode"],
        feature_map=spec,
        shots=manifest["shots"],
        seed=manifest["seed"],
    )
    return g, manifest
