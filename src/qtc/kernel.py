"""Fidelity kernel K(x, y) = |<phi(y)|phi(x)>|^2 and Gram-matrix assembly.

``shots`` alone selects the mode: 0 is exact, and shots >= 1 is sampled.
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
block encoder produces those bytes with array arithmetic, one block of whole
rows at a time; values outside its exact fast path are formatted one by one.
Blocks are encoded on a thread pool of up to _MAX_CSV_WORKERS threads, one
per CPU the process may use, each with its own scratch buffer allocated by
the calling thread, and written in order, so the bytes do not depend on the
thread count.
save_gram removes the old manifest first and writes the new one last: an
interrupted save leaves a cache that reads as missing.
"""

from __future__ import annotations

import contextlib
import os
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .circuits import FeatureMapSpec, build_feature_map
from .errors import (
    NumericalError, ParseError, ValidationError, json_field, naming, read_json, write_json,
)
from .qsim import check_sampling, run

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
    shots: int = 0,
    seed: int = 0,
) -> GramMatrix:
    """Kernel matrix over rows of X (square) or X versus Y (rectangular).

    ``shots`` = 0 gives the exact kernel and shots >= 1 the sampled one (see
    qsim.check_sampling); the seed matters only when sampling.  The overlaps
    are computed a block of rows at a time, so beyond the encoded states and
    K only one block's overlap and conjugated rows are held; a block with a
    non-finite value raises NumericalError before anything is saved.  The square
    case sets the diagonal to 1 outright and mirrors the upper triangle.
    Sampled mode then redraws row i from column j0 on (j0 = i when square,
    else 0) as Binomial(shots, K[i, j0:]) / shots, seeded by (seed, i), and
    mirrors again.
    """
    check_sampling(shots, seed)
    X = np.asarray(X, dtype=float)
    square = Y is None
    Ym = X if square else np.asarray(Y, dtype=float)
    if X.ndim != 2 or Ym.ndim != 2 or X.shape[1] != Ym.shape[1]:
        raise ValidationError("gram expects 2-D inputs with matching feature counts")

    m = X.shape[0]
    SX = encoded_state(spec, X)
    SY = SX if square else encoded_state(spec, Ym)
    K = np.empty((m, SY.shape[0]))
    for a, e in _row_blocks(m, SY.shape[0] * SY.itemsize):
        block = K[a:e]
        np.abs(SX[a:e].conj() @ SY.T, out=block)
        np.square(block, out=block)
        # No entry is negative, so the maximum is NaN or infinite if any entry is.
        if block.size and not np.isfinite(block.max()):
            raise NumericalError(f"Gram rows {a} to {e - 1} hold a non-finite value")
    if square:
        _mirror_upper(K)
        np.fill_diagonal(K, 1.0)
    if not shots:
        return GramMatrix(values=K, mode="exact", feature_map=spec)
    for i in range(m):
        j0 = i if square else 0
        # Rounding can put an overlap just above 1, where binomial raises.
        p = np.minimum(K[i, j0:], 1.0)
        K[i, j0:] = np.random.default_rng((seed, i)).binomial(shots, p) / shots
    if square:
        _mirror_upper(K)
    return GramMatrix(values=K, mode="sampled", feature_map=spec, shots=shots, seed=seed)


# Bytes of complex overlap that gram computes in one matmul.  At m = 2,001
# that is 262 rows a block: at 12 qubits the blocked Gram took within 4% of
# one whole matmul, where 64-row blocks took about 40% longer.
_GRAM_BLOCK_BYTES = 8 << 20


def _row_blocks(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """(start, end) of consecutive blocks of rows, each of at most about
    _GRAM_BLOCK_BYTES at ``row_bytes`` a row.

    No block has one row unless ``rows`` is 1: a one-row matmul takes another
    path in NumPy and is not bitwise a row of the whole matmul, while blocks
    of two rows or more are.
    """
    step = max(2, _GRAM_BLOCK_BYTES // max(row_bytes, 1))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()  # the previous block takes the last row
    return list(zip(starts, starts[1:] + [rows]))


def _mirror_upper(K: np.ndarray) -> None:
    """Copy the strict upper triangle of square K onto the lower one, in place."""
    for i in range(1, K.shape[0]):
        K[i, :i] = K[:i, i]


# No pipeline stage calls this; perfbench/tracing.py wraps it by name, so it stays until that goes.
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
#
# Every temporary of a block is a view of one scratch buffer, filled through
# out=, and each running encode reuses one of the pool's buffers.
# That is for speed: the same arithmetic as plain NumPy expressions, with a
# fresh temporary per step, was about 60% slower on one thread.

_CSV_BLOCK_VALUES = 1 << 14  # values per block: large enough that NumPy, not Python, holds the time
_SLOT_BYTES = 28
_TIE_GUARD = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26- and 27-bit halves

# The scratch of one block, per value: (name, dtype, items).
_SCRATCH = (
    ("x", np.float64, 1), ("p", np.float64, 1), ("hi", np.float64, 1), ("lo", np.float64, 1),
    ("scale_hi", np.float64, 1), ("scale_lo", np.float64, 1), ("err", np.float64, 1),
    ("up", np.float64, 1), ("diff", np.float64, 1),
    ("e4", np.intp, 1), ("n", np.int64, 1), ("as_int", np.int64, 1), ("rest", np.int64, 1),
    ("lead", np.int64, 1), ("high", np.int64, 1), ("low", np.int64, 1), ("g1", np.int64, 1),
    ("g2", np.int64, 1), ("g3", np.int64, 1), ("g4", np.int64, 1), ("code", np.intp, 1),
    ("slots", np.uint32, _SLOT_BYTES // 4), ("keep", np.uint32, _SLOT_BYTES // 4),
    ("word", np.uint32, 1), ("trailing", np.uint8, 1), ("group_trailing", np.uint8, 1),
    ("fast", np.bool_, 1), ("mask", np.bool_, 1),
)
_SCRATCH_BYTES_PER_VALUE = sum(np.dtype(dtype).itemsize * items for _, dtype, items in _SCRATCH)


def _carve(buffer: np.ndarray, size: int) -> SimpleNamespace:
    """The _SCRATCH temporaries for ``size`` values, as consecutive views of a
    uint8 buffer, widest dtype first, so each is aligned when the buffer is."""
    views, offset = {}, 0
    for name, dtype, items in _SCRATCH:
        end = offset + size * items * np.dtype(dtype).itemsize
        view = buffer[offset:end].view(dtype)
        views[name] = view.reshape(size, items) if items > 1 else view
        offset = end
    return SimpleNamespace(**views)


def _split(a, hi, lo):
    """Veltkamp's split a = hi + lo, written into hi and lo."""
    np.multiply(a, _SPLITTER, out=hi)
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)  # t - (t - a)
    np.subtract(a, hi, out=lo)
    return hi, lo


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, np.uint32)[0]


# 10**(16 - E) for E = -4 .. -1, indexed by E + 4, with its split halves.
_SCALE = np.array([1e20, 1e19, 1e18, 1e17])
_SCALE_HI, _SCALE_LO = _split(_SCALE, np.empty(4), np.empty(4))
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


def _round17(v: np.ndarray, s: SimpleNamespace) -> None:
    """Fill s.fast, s.e4 (E + 4) and s.n (N); N is 10**16 wherever fast is False."""
    fast, mask, x, e4, n = s.fast, s.mask, s.x, s.e4, s.n
    np.greater_equal(v, 1e-4, out=fast)
    fast &= np.less(v, 1.0, out=mask)
    x.fill(0.5)  # keeps the arithmetic below finite
    np.copyto(x, v, where=fast)
    e4.fill(0)
    for k, decade in enumerate((1e-3, 1e-2, 1e-1), start=1):
        np.copyto(e4, k, where=np.greater_equal(x, decade, out=mask))
    p = np.multiply(x, _SCALE.take(e4, out=s.p, mode="clip"), out=s.p)
    xh, xl = _split(x, s.hi, s.lo)
    sh = _SCALE_HI.take(e4, out=s.scale_hi, mode="clip")
    sl = _SCALE_LO.take(e4, out=s.scale_lo, mode="clip")
    # err = xl * sl - (((p - xh * sh) - xl * sh) - xh * sl) = x * scale - p, exactly
    d, err = s.diff, s.err
    np.subtract(p, np.multiply(xh, sh, out=d), out=d)
    d -= np.multiply(xl, sh, out=err)
    d -= np.multiply(xh, sl, out=err)
    np.multiply(xl, sl, out=err)
    err -= d
    up = np.rint(err, out=s.up)
    np.subtract(err, up, out=d)
    np.abs(d, out=d)
    d -= 0.5
    np.abs(d, out=d)
    fast &= np.greater(d, _TIE_GUARD, out=mask)
    # p is an integer wherever N lands in range, since 10**16 > 2**53.
    np.copyto(n, p, casting="unsafe")
    np.copyto(s.as_int, up, casting="unsafe")
    n += s.as_int
    fast &= np.greater_equal(n, 10**16, out=mask)
    fast &= np.less(n, 10**17, out=mask)
    np.copyto(n, 10**16, where=np.logical_not(fast, out=mask))


def _csv_bytes(block: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The gram.csv bytes of a C-contiguous float64 block of whole rows, as a
    new uint8 array.

    Every temporary is a view of ``scratch``, a uint8 buffer of at least
    _SCRATCH_BYTES_PER_VALUE bytes per value; without one, one is allocated.
    """
    rows, cols = block.shape
    if cols == 0:
        return np.frombuffer(b"\n" * rows, np.uint8)
    v = block.reshape(-1)
    if scratch is None:
        scratch = np.empty(v.size * _SCRATCH_BYTES_PER_VALUE, np.uint8)
    s = _carve(scratch, v.size)
    _round17(v, s)
    lead, g1, g2, g3, g4 = s.lead, s.g1, s.g2, s.g3, s.g4
    np.divmod(s.n, 10**16, out=(lead, s.rest))
    np.divmod(s.rest, 10**8, out=(s.high, s.low))
    np.divmod(s.high, 10**4, out=(g1, g2))
    np.divmod(s.low, 10**4, out=(g3, g4))
    # Trailing zero digits of N: a group's count counts only while every later group is 0000.
    trailing = _GROUP_TRAILING.take(g1, out=s.trailing, mode="clip")
    for group in (g2, g3, g4):
        np.copyto(trailing, 0, where=np.not_equal(group, 0, out=s.mask))
        trailing += _GROUP_TRAILING.take(group, out=s.group_trailing, mode="clip")

    slots = s.slots
    slots[:, 0] = _HEAD
    for k, (table, index) in enumerate(((_LEAD, lead), (_GROUP, g1), (_GROUP, g2),
                                        (_GROUP, g3), (_GROUP, g4)), start=1):
        slots[:, k] = table.take(index, out=s.word, mode="clip")
    ends = slots.reshape(rows, cols, -1)[:, :, 6]
    ends[:, :-1] = _COMMA
    ends[:, -1] = _NEWLINE
    code = np.multiply(s.e4, 17, out=s.code)
    np.copyto(s.as_int, trailing)
    code += s.as_int

    slow = np.flatnonzero(np.logical_not(s.fast, out=s.mask))
    if slow.size:
        text = ["%.17g" % f for f in v[slow].tolist()]
        length = np.fromiter(map(len, text), np.intp, len(text))
        padded = "".join(t.ljust(_SLOT_BYTES, "\0") for t in text).encode("ascii")
        raw = slots.view(np.uint8)
        raw[slow] = np.frombuffer(padded, np.uint8).reshape(-1, _SLOT_BYTES)
        raw[slow, length] = np.where(slow % cols == cols - 1, ord("\n"), ord(","))
        code[slow] = 68 + length
    keep = _KEEP.take(code, axis=0, out=s.keep, mode="clip").view(np.bool_).reshape(-1)
    return slots.view(np.uint8).reshape(-1)[keep]


# Threads that encode gram.csv blocks, at most.  NumPy releases the GIL inside
# most of the encoder's array operations, so blocks encode in parallel.  Only
# 2 CPUs were measured: on 2 threads, a 2,001 x 2,001 Gram's gram.csv took
# about 0.7 of the time it took on 1 (medians of 10 interleaved writes,
# x86_64, NumPy 2.4).  The cap keeps wider hosts near what was measured.
_MAX_CSV_WORKERS = 4


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _write_csv(path, values: np.ndarray) -> None:
    """Write gram.csv: blocks of whole rows are encoded on ``workers`` threads
    and written in order, with at most two blocks per thread in flight."""
    rows, cols = values.shape
    step = max(1, _CSV_BLOCK_VALUES // max(cols, 1))
    starts = range(0, rows, step)
    workers = max(1, min(_cpu_count(), len(starts), _MAX_CSV_WORKERS))
    # One scratch per thread, allocated here so that glibc serves it from this
    # thread's malloc arena rather than opening one in a pool thread.  At most
    # ``workers`` blocks encode at once, so get() never waits.
    scratches = queue.SimpleQueue()
    for _ in range(workers):
        scratches.put(np.empty(min(step, rows) * cols * _SCRATCH_BYTES_PER_VALUE, np.uint8))

    def encode(start: int) -> np.ndarray:
        scratch = scratches.get()
        try:
            return _csv_bytes(values[start:start + step], scratch)
        finally:
            scratches.put(scratch)

    pool = ThreadPoolExecutor(workers, thread_name_prefix="gram-csv")
    try:
        with open(path, "wb") as fh:
            pending = deque()
            for start in starts:
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().result())
                pending.append(pool.submit(encode, start))
            while pending:
                fh.write(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)  # after a failed block, the blocks not yet started


def save_gram(directory, g: GramMatrix, data_hash: str, upstream_hash: str | None = None) -> None:
    """Write gram.npy, gram.csv (no header) and gram.manifest.json into ``directory``.

    The old manifest is removed first and the new one written last, so a save
    that fails or is interrupted leaves a cache that reads as missing, never
    an old manifest over new values.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "gram.manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(manifest_path)
    values = np.ascontiguousarray(g.values, dtype="<f8")
    with open(os.path.join(directory, "gram.npy"), "wb") as fh:
        np.lib.format.write_array(fh, values, version=(1, 0))
    _write_csv(os.path.join(directory, "gram.csv"), values)
    manifest = {
        "feature_map": g.feature_map.to_dict(),
        "mode": g.mode,
        "shots": g.shots,
        "seed": g.seed,
        "data_hash": data_hash,
        "upstream_hash": upstream_hash,
        "shape": list(g.values.shape),
    }
    write_json(manifest_path, manifest)


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
    with naming(path), open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ParseError(f".npy format version {version}, expected (1, 0)")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ParseError(f"not a .npy array ({exc})") from exc
        if dtype != np.dtype("<f8") or fortran_order:
            raise ParseError(f"holds {dtype.str} in {'F' if fortran_order else 'C'} "
                             f"order, expected <f8 in C order")
        nbytes = rows * cols * 8
        stored = os.fstat(fh.fileno()).st_size - fh.tell()
        if stored < nbytes:
            raise ParseError(f"too short for the manifest shape {[rows, cols]}")
        if stored > nbytes:
            raise ParseError(f"bytes beyond the manifest shape {[rows, cols]}")
        if shape != (rows, cols):
            raise ParseError(f"shape {list(shape)}, manifest says {[rows, cols]}")
        values = np.empty((rows, cols))
        if fh.readinto(memoryview(values).cast("B")) != nbytes:
            raise ParseError("changed while being read")
    return values


# Rows per band of the damage check.  At m = 2,001 that is 32 bands, so
# NumPy rather than the Python loop holds the time, and each band's boolean
# temporaries are at most 64 x 2,001 bytes (~128 KB).
_SYMMETRY_BAND = 64


def _damage(K: np.ndarray) -> str | None:
    """Why Gram values K are damaged, or None: a non-finite value, or a square
    K that is not bitwise symmetric.  Square K is read in bands of rows from
    the diagonal on, each checked finite and bitwise equal to its band of
    columns, which leaves no entry unchecked and keeps temporaries small."""
    if K.shape[0] != K.shape[1]:
        return None if np.isfinite(K).all() else "holds a non-finite value"
    bits = K.view(np.uint64)
    for i0 in range(0, K.shape[0], _SYMMETRY_BAND):
        i1 = i0 + _SYMMETRY_BAND
        if not np.isfinite(K[i0:i1, i0:]).all():
            return "holds a non-finite value"
        if not np.array_equal(bits[i0:i1, i0:], bits[i0:, i0:i1].T):
            return "square but not symmetric"
    return None


def load_gram_manifest(directory) -> dict:
    """Read and check gram.manifest.json; a missing file raises OSError.

    ``mode`` must agree with ``shots`` and ``seed``, as ``gram`` sets them:
    "exact" with both null, or "sampled" with a shot count and a seed.
    """
    manifest_path = os.path.join(directory, "gram.manifest.json")
    manifest = read_json(manifest_path)
    with naming(manifest_path):
        for key, kind in _MANIFEST_FIELDS.items():
            json_field(manifest, key, kind)
        shape = manifest["shape"]
        if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
            raise ParseError("field 'shape' must hold two counts")
        mode, shots, seed = manifest["mode"], manifest["shots"], manifest["seed"]
        if not (mode == "exact" and shots is None and seed is None
                or mode == "sampled" and shots is not None and shots >= 1 and seed is not None):
            raise ParseError(f"mode {mode!r} contradicts shots {shots} and seed {seed}")
        with naming("malformed feature_map"):
            FeatureMapSpec.from_dict(manifest["feature_map"])
    return manifest


def load_gram(directory, manifest: dict | None = None) -> tuple[GramMatrix, dict]:
    """Read a Gram cache written by save_gram; returns (matrix, manifest).

    The values come from gram.npy; gram.csv is never read.  ``manifest`` is
    one already returned by load_gram_manifest for this directory; without
    it the manifest is read here.  A Gram with a non-finite value is damaged,
    and so is a square one that is not bitwise symmetric: the SVM solver
    reads its rows as columns.
    """
    if manifest is None:
        manifest = load_gram_manifest(directory)
    path = os.path.join(directory, "gram.npy")
    values = _read_npy_matrix(path, *manifest["shape"])
    damage = _damage(values)
    if damage:
        raise ParseError(f"{path}: {damage}")
    g = GramMatrix(
        values=values,
        mode=manifest["mode"],
        feature_map=FeatureMapSpec.from_dict(manifest["feature_map"]),
        shots=manifest["shots"],
        seed=manifest["seed"],
    )
    return g, manifest
