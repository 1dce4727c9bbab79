"""Fidelity kernel K(x, y) = |<phi(y)|phi(x)>|^2 and Gram-matrix assembly.

Both modes encode each side's points with one batched simulator run and take
inner products directly.  Sampled mode models hardware execution: there the
kernel is the frequency of the all-zeros outcome of map(x) map(y)^dag over
``shots`` runs, a count distributed as Binomial(shots, K(x, y)) (Havlicek et
al., Nature 567, 209 (2019)).  So the sampled Gram is the exact Gram with
each row i replaced by binomial draws from a generator seeded by
(master seed, i); the seed depends on the row alone, so assembly order can
never change the result.

save_gram persists a Gram twice next to its manifest: gram.npy, the exact
binary cache that load_gram reads back, and gram.csv, a human-readable copy
that the pipeline never reads.  gram.csv holds each value as "%.17g"
formats it, "," between the values of a row, "\n" after each row and no
header: the bytes of numpy.savetxt(path, K, fmt="%.17g", delimiter=",").  A
block encoder writes those bytes with array arithmetic, one block of rows at
a time; values outside its exact fast path are formatted one by one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .arrays import mapped_empty
from .circuits import FeatureMapSpec, build_feature_map
from .errors import ParseError, ValidationError, json_field
from .qsim import run

__all__ = [
    "GramMatrix",
    "encoded_state",
    "exact_kernel",
    "sampled_kernel",
    "gram",
    "psd_project",
    "save_gram",
    "load_gram_manifest",
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
    """Amplitudes of the encoded state |phi(x)>; one row per point for a 2-D x."""
    return run(build_feature_map(spec, x)).amplitudes


def exact_kernel(spec: FeatureMapSpec, x, y) -> float:
    """Squared overlap of the two encoded states.

    It lies in [0, 1] only up to rounding: a point's overlap with itself can
    come out as 1.0000000000000004.
    """
    sx = encoded_state(spec, x)
    sy = encoded_state(spec, y)
    return float(abs(np.vdot(sy, sx)) ** 2)


def sampled_kernel(spec: FeatureMapSpec, x, y, shots: int, seed) -> float:
    """Shot-based estimate: the all-zeros count of map(x) map(y)^dag over
    ``shots`` runs, drawn from its law Binomial(shots, K(x, y)), over shots."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    p = min(exact_kernel(spec, x, y), 1.0)
    return float(np.random.default_rng(seed).binomial(shots, p) / shots)


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

    The square case sets the diagonal to 1 outright and mirrors the upper
    triangle.  Sampled mode then redraws row i from column j0 on (j0 = i when
    square, else 0) as Binomial(shots, K[i, j0:]) / shots, seeded by
    (seed, i), and mirrors again.
    """
    X = np.asarray(X, dtype=float)
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and shots < 1:
        raise ValidationError("shots must be >= 1")
    if mode == "sampled" and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    square = Y is None
    Ym = X if square else np.asarray(Y, dtype=float)
    if X.ndim != 2 or Ym.ndim != 2 or X.shape[1] != Ym.shape[1]:
        raise ValidationError("gram expects 2-D inputs with matching feature counts")

    m, mp = X.shape[0], Ym.shape[0]
    K = mapped_empty((m, mp))
    SX = encoded_state(spec, X)
    SY = SX if square else encoded_state(spec, Ym)
    # In place in K: the only other m x mp array is the complex overlap.
    overlap = mapped_empty((m, mp), dtype=np.complex128)
    np.matmul(SX.conj(), SY.T, out=overlap)
    np.abs(overlap, out=K)
    del overlap
    np.square(K, out=K)
    if square:
        _mirror_upper(K)
        np.fill_diagonal(K, 1.0)
    if mode == "sampled":
        for i in range(m):
            j0 = i if square else 0
            # Rounding can put an overlap just above 1, where binomial raises.
            p = np.minimum(K[i, j0:], 1.0)
            K[i, j0:] = np.random.default_rng((seed, i)).binomial(shots, p) / shots
        if square:
            _mirror_upper(K)

    return GramMatrix(
        values=K,
        mode=mode,
        feature_map=spec,
        shots=shots if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )


def _mirror_upper(K: np.ndarray) -> None:
    """Copy the strict upper triangle of square K onto the lower one, in place."""
    for i in range(1, K.shape[0]):
        K[i, :i] = K[:i, i]


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


# gram.csv encoder.  "%.17g" prints a value v in [1e-4, 1) as "0.", then
# -E - 1 zeros, then the 17 correctly rounded significant digits
# N = round(v * 10**(16 - E)) with trailing zeros dropped, E = floor(log10 v).
# 10**17 to 10**20 are exact doubles, so Dekker's TwoProduct gives the scaled
# value as an exact sum p + err, and N is rounded from that sum exactly.  Any
# other value and a value within _TIE_GUARD of a rounding tie are formatted
# by "%.17g" itself; so, as a safeguard, is a value whose N falls outside
# [10**16, 10**17), which no double in [1e-4, 1) gives.
#
# Each value gets a slot of seven uint32 words, and a keep-mask picks its
# bytes: "0.00" | "0", pad, pad, leading digit | four 4-digit groups |
# separator, pad.  The longest "%.17g" string has 24 bytes, so a fallback
# string and its separator fit in a slot too.

_CSV_BLOCK_VALUES = 1 << 12  # values per block: temporaries under 1 MB leave peak memory as it was
_SLOT_BYTES = 28
_TIE_GUARD = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26- and 27-bit halves


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, np.uint32)[0]


# 10**(16 - E) for E = -4 .. -1, indexed by E + 4, with its split halves.
_SCALE = np.array([1e20, 1e19, 1e18, 1e17])
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_HEAD = _word(b"0.00")
_COMMA = _word(b",\0\0\0")
_NEWLINE = _word(b"\n\0\0\0")
_LEAD = np.frombuffer(b"".join(b"0\0\0" + b"%d" % d for d in range(10)), np.uint32)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group 0000 .. 9999: its ASCII digits as one uint32 word, and
    its count of trailing zero digits (4 for 0000).  Narrow dtypes keep these
    process-lifetime tables, and the temporaries that build them, small."""
    group = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10],
                      axis=1).astype(np.uint8)
    text = (digits + ord("0")).view(np.uint32).reshape(-1)
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    return text, trailing


_GROUP, _GROUP_TRAILING = _group_tables()


def _keep_masks() -> np.ndarray:
    """Slot bytes to keep, as uint32 words: row 17 * (E + 4) + trailing zeros
    for the fast path, row 68 + length for a fallback string."""
    pos = np.arange(_SLOT_BYTES)
    rows = [(pos < 2) | ((pos >= 2 + e4) & (pos < 5)) | ((pos >= 7) & (pos < 24 - tz)) | (pos == 24)
            for e4 in range(4) for tz in range(17)]
    rows += [pos <= length for length in range(_SLOT_BYTES)]
    return np.array(rows).view(np.uint32)


_KEEP = _keep_masks()


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, E + 4, N) per value; N is 10**16 wherever fast is False."""
    fast = (v >= 1e-4) & (v < 1.0)
    x = np.where(fast, v, 0.5)  # keeps the arithmetic below finite
    e4 = (x >= 1e-3).astype(np.intp)
    e4 += x >= 1e-2
    e4 += x >= 1e-1
    p = x * _SCALE.take(e4)
    xh, xl = _split(x)
    sh, sl = _SCALE_HI.take(e4), _SCALE_LO.take(e4)
    err = xl * sl - (((p - xh * sh) - xl * sh) - xh * sl)  # x * scale - p, exactly
    up = np.rint(err)
    fast &= np.abs(np.abs(err - up) - 0.5) > _TIE_GUARD
    # p is an integer wherever N lands in range, since 10**16 > 2**53.
    n = p.astype(np.int64)
    n += up.astype(np.int64)
    fast &= (n >= 10**16) & (n < 10**17)
    n[~fast] = 10**16
    return fast, e4, n


def _csv_bytes(block: np.ndarray) -> np.ndarray:
    """The gram.csv bytes of a C-contiguous float64 block of whole rows, as uint8."""
    rows, cols = block.shape
    if cols == 0:
        return np.frombuffer(b"\n" * rows, np.uint8)
    v = block.reshape(-1)
    fast, e4, n = _round17(v)
    lead, rest = np.divmod(n, 10**16)
    high, low = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    t = _GROUP_TRAILING.take
    trailing = t(g4) + (g4 == 0) * (t(g3) + (g3 == 0) * (t(g2) + (g2 == 0) * t(g1)))

    slots = np.empty((v.size, _SLOT_BYTES // 4), np.uint32)
    slots[:, 0] = _HEAD
    slots[:, 1] = _LEAD.take(lead)
    for k, group in enumerate((g1, g2, g3, g4), start=2):
        slots[:, k] = _GROUP.take(group)
    ends = slots.reshape(rows, cols, -1)[:, :, 6]
    ends[:, :-1] = _COMMA
    ends[:, -1] = _NEWLINE
    code = 17 * e4 + trailing

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % f for f in v[slow].tolist()]
        length = np.fromiter(map(len, text), np.intp, len(text))
        padded = "".join(s.ljust(_SLOT_BYTES, "\0") for s in text).encode("ascii")
        raw = slots.view(np.uint8)
        raw[slow] = np.frombuffer(padded, np.uint8).reshape(-1, _SLOT_BYTES)
        raw[slow, length] = np.where(slow % cols == cols - 1, ord("\n"), ord(","))
        code[slow] = 68 + length
    keep = _KEEP.take(code, axis=0).view(np.bool_).reshape(-1)
    return slots.view(np.uint8).reshape(-1)[keep]


def save_gram(directory, g: GramMatrix, data_hash: str, upstream_hash: str | None = None) -> None:
    """Write gram.npy, gram.csv (no header) and gram.manifest.json into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    values = np.ascontiguousarray(g.values, dtype="<f8")
    with open(os.path.join(directory, "gram.npy"), "wb") as fh:
        np.lib.format.write_array(fh, values, version=(1, 0))
    rows, cols = values.shape
    step = max(1, _CSV_BLOCK_VALUES // max(cols, 1))
    with open(os.path.join(directory, "gram.csv"), "wb") as fh:
        for start in range(0, rows, step):
            fh.write(_csv_bytes(values[start:start + step]))
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


def _read_npy_matrix(path, rows: int, cols: int) -> np.ndarray:
    """Read a version 1.0, C-order ``<f8`` .npy file of exactly rows x cols values.

    The header and the file size are checked against the expected shape
    before the matrix is allocated, so a damaged file cannot ask for more
    memory than it holds.  A missing file raises OSError.
    """
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ParseError(f"{path}: .npy format version {version}, expected (1, 0)")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a .npy array ({exc})") from exc
        if dtype != np.dtype("<f8") or fortran_order:
            raise ParseError(f"{path}: holds {dtype.str} in {'F' if fortran_order else 'C'} "
                             f"order, expected <f8 in C order")
        nbytes = rows * cols * 8
        stored = os.fstat(fh.fileno()).st_size - fh.tell()
        if stored < nbytes:
            raise ParseError(f"{path}: too short for the manifest shape {[rows, cols]}")
        if stored > nbytes:
            raise ParseError(f"{path}: bytes beyond the manifest shape {[rows, cols]}")
        if shape != (rows, cols):
            raise ParseError(f"{path}: shape {list(shape)}, manifest says {[rows, cols]}")
        values = mapped_empty((rows, cols))
        if fh.readinto(memoryview(values).cast("B")) != nbytes:
            raise ParseError(f"{path}: changed while being read")
    return values


def load_gram_manifest(directory) -> dict:
    """Read and check gram.manifest.json; a missing file raises OSError."""
    manifest_path = os.path.join(directory, "gram.manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"cannot read gram manifest in {directory}: {exc}") from exc
    try:
        for key, kind in _MANIFEST_FIELDS.items():
            json_field(manifest, key, kind)
    except ParseError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from exc
    shape = manifest["shape"]
    if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
        raise ParseError(f"{manifest_path}: field 'shape' must hold two counts")
    try:
        FeatureMapSpec.from_dict(manifest["feature_map"])
    except ParseError as exc:
        raise ParseError(f"{manifest_path}: malformed feature_map ({exc})") from exc
    return manifest


def load_gram(directory, manifest: dict | None = None) -> tuple[GramMatrix, dict]:
    """Read a Gram cache written by save_gram; returns (matrix, manifest).

    The values come from gram.npy; gram.csv is never read.  ``manifest`` is
    one already returned by load_gram_manifest for this directory; without
    it the manifest is read here.
    """
    if manifest is None:
        manifest = load_gram_manifest(directory)
    values = _read_npy_matrix(os.path.join(directory, "gram.npy"), *manifest["shape"])
    g = GramMatrix(
        values=values,
        mode=manifest["mode"],
        feature_map=FeatureMapSpec.from_dict(manifest["feature_map"]),
        shots=manifest["shots"],
        seed=manifest["seed"],
    )
    return g, manifest
