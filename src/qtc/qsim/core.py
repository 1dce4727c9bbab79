"""Exact statevector simulation of {H, P, RY, CX} circuits.

Conventions
-----------
* Qubit order is little-endian: basis index i encodes qubit 0 as its least
  significant bit, so on 2 qubits index 1 is |01> with qubit 0 set.
* Gate matrices: H = (1/sqrt 2)[[1,1],[1,-1]]; P(t) = diag(1, e^{it});
  RY(t) = [[cos t/2, -sin t/2],[sin t/2, cos t/2]]; CX flips the target when
  the control is 1.
* Angles are finite floats; P alone also takes a per-row float array (one
  phase angle per state of a batch).  ``run`` is the one way to make a state:
  ``run(Circuit(n))`` is |0...0>.

One circuit structure runs over a whole batch of states at once, through a
fusion pass planned once per run that turns the circuit into two kinds of
step.  The rows go in cache-sized chunks; each chunk is copied once into a
(rows, 2, 2**n) float64 array of real and imaginary planes, every step reads
one such array and writes a second of the same shape, and the chunk goes
back to the (rows, 2**n) complex amplitudes after its last step.

* each maximal run of real single-qubit gates (H and RY) becomes at most one
  real block per fixed window of 6 qubits ([0, 6), [6, 12), ...): the
  Kronecker product of the window's composed 2x2 matrices, built once per
  run and applied to both planes by one matmul with the window's own
  2**6 x 2**6 matrix;
* each maximal run of P and CX gates becomes one per-row phase e^{i phi}
  and at most one index gather.  The CX gates permute the basis, which a
  gather does exactly, and each P gate adds its angle where a 0/1 mask over
  the output basis index is set.  Each mask is the parity of a set of output
  bits, so it goes to the smallest of three tables that holds it: the low
  table over bits [0, 6), the high table over bits [5, n) (sharing bit 5,
  so a zz pair across the boundary fits) or the full 2**n table.  Each
  table is a (1, K) @ (K, entries) matmul per row for its K P gates; only
  its entries take a cos and sin, and the tables combine by broadcasting
  over the amplitude index in float64 complex products.  For n <= 6 only
  the low table occurs.  The zz feature map's CX pairs compose to the
  identity and cost nothing.

The masks and gather of a P/CX run depend only on its gate kinds and
qubits, so a bounded cache keeps them per run shape: the feature map's
repetitions and every VQC evaluation's ansatz chain reuse them.

A run from |0...0> does not apply the plan's leading real blocks: each maps
|0> of its window to its first column, so the start state is the outer
product of those columns, bitwise what the block matmuls give.  For the
feature maps that is the whole first H layer.  ``split`` cuts a circuit
where its plan's steps end, so a run can stop at a cut and resume from the
state there with the same bits; VQC training resumes from such a cut.

The row axis of the batch is always a loop or matmul batch axis, never folded
into a matrix dimension, so every row of a batch is bitwise the state that
row gives when run alone.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from ..errors import ValidationError

__all__ = [
    "MAX_QUBITS",
    "MAX_SHOTS",
    "check_sampling",
    "Gate",
    "Circuit",
    "StateVector",
    "run",
    "split",
    "adjoint",
    "probabilities",
    "sample",
    "backend_name",
]

_KINDS = ("h", "p", "ry", "cx")
_PARAMETRIC = ("p", "ry")
# Gates that fuse into real blocks; the others (P, CX) fuse into phase runs.
_REAL = ("h", "ry")
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The largest count NumPy's binomial and multinomial draws accept (a C long).
MAX_SHOTS = 2**63 - 1
# The most qubits a circuit may act on.  A state is 2**n complex128
# amplitudes of 16 B, and one state may take at most 16 MiB: 2**20 x 16 B.
MAX_QUBITS = 20
# Rows per chunk in ``run`` times 2**n_qubits; 2**15 amplitudes (512 KiB of
# float64 planes, in each of the two arrays a step reads and writes) keep a
# chunk in cache.
_CHUNK_AMPLITUDES = 1 << 15
# Qubits per fused real window: a 2**6 x 2**6 real block is one BLAS matmul
# per chunk where six gates made about ten passes over the amplitudes each.
_BLOCK_QUBITS = 6
# Bits of a phase run's low table; its high table starts one bit lower, so a
# zz pair across the boundary fits in it.
_TABLE_BITS = 6
# Phase-run structures kept by ``_phase_structure``; a pipeline meets a few
# (the feature map's layers, the ansatz's CX chain).
_STRUCTURES = 32


def check_sampling(shots: int, seed: int) -> None:
    """Check a sampling configuration: shots = 0 selects exact mode, shots >= 1
    draws that many samples per estimate, up to MAX_SHOTS; the seed is >= 0."""
    if shots < 0:
        raise ValidationError(f"shots must be >= 0 (0 = exact), got {shots}")
    if shots > MAX_SHOTS:
        raise ValidationError(f"shots must be <= {MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {'h','p','ry','cx'}, its qubits, and an optional angle.

    For 'cx' the qubits tuple is (control, target); 'h' takes no angle; 'p'
    and 'ry' take a float angle in radians.  'p' alone may also take a 1-D
    array with one angle per row of a batch.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.angle, np.ndarray):
            # A float cast would keep only the real part of a complex array.
            if np.iscomplexobj(self.angle):
                raise ValidationError(f"{self.kind} angles must be real numbers")
            try:
                angle = np.asarray(self.angle, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{self.kind} angles must be real numbers") from exc
            if angle.ndim != 1:
                raise ValidationError("an angle array holds one angle per row (1-D)")
            if not np.isfinite(angle).all():
                raise ValidationError(f"{self.kind} angles must be finite")
            object.__setattr__(self, "angle", angle)
        elif isinstance(self.angle, bool) or not isinstance(self.angle, (type(None), numbers.Real)):
            raise ValidationError(f"{self.kind} angle must be a real number, got {self.angle!r}")
        elif self.angle is not None and not _is_finite(self.angle):
            raise ValidationError(f"{self.kind} angle must be finite, got {self.angle!r}")
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cx":
            if len(self.qubits) != 2:
                raise ValidationError("cx takes (control, target)")
            if self.qubits[0] == self.qubits[1]:
                raise ValidationError("cx control and target must differ")
            if self.angle is not None:
                raise ValidationError("cx takes no angle")
        else:
            if len(self.qubits) != 1:
                raise ValidationError(f"{self.kind} takes exactly one qubit")
            if self.kind == "h" and self.angle is not None:
                raise ValidationError("h takes no angle")
            if self.kind == "ry" and isinstance(self.angle, np.ndarray):
                raise ValidationError("ry takes no per-row angles; only p does")
            if self.kind in _PARAMETRIC and self.angle is None:
                raise ValidationError(f"{self.kind} requires an angle")
        if any(q < 0 for q in self.qubits):
            raise ValidationError("qubit indices must be nonnegative")


def _is_finite(angle: numbers.Real) -> bool:
    try:
        return math.isfinite(angle)
    except OverflowError:  # an int past the float64 range
        return False


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n_qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("circuit needs at least one qubit")
        if self.n_qubits > MAX_QUBITS:
            raise ValidationError(
                f"a circuit has at most MAX_QUBITS = {MAX_QUBITS} qubits, got {self.n_qubits}"
            )
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValidationError(
                    f"gate {g.kind} targets qubit {max(g.qubits)} on a "
                    f"{self.n_qubits}-qubit circuit"
                )


@dataclass
class StateVector:
    """2**n_qubits complex amplitudes with unit norm (little-endian index).

    ``amplitudes`` is 1-D for one state or (rows, 2**n_qubits) for a batch.
    """

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)


def backend_name() -> str:
    """Name of the gate kernel; NumPy is the only one."""
    return "numpy"


def _matrix(gate: Gate) -> np.ndarray:
    """The real 2x2 matrix of an H or RY gate."""
    if gate.kind == "h":
        return np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])
    half = 0.5 * float(gate.angle)
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -s], [s, c]])


def split(circuit: Circuit) -> list[tuple[Gate, ...]]:
    """The circuit's gates cut where the steps of its plan end.

    Each run of H and RY gates gives one piece per 6-qubit window it touches
    (its gates on that window, in circuit order), and each run of P and CX
    gates gives one piece.  Any range of consecutive pieces, joined, plans to
    exactly the steps those pieces give in the whole circuit, so a run cut at
    a piece boundary and resumed from the state there is bitwise the whole
    run.
    """
    pieces: list[tuple[Gate, ...]] = []
    for real, run_gates in groupby(circuit.gates, key=lambda g: g.kind in _REAL):
        run_gates = tuple(run_gates)
        if not real:
            pieces.append(run_gates)
            continue
        for low in range(0, circuit.n_qubits, _BLOCK_QUBITS):
            window = tuple(g for g in run_gates if low <= g.qubits[0] < low + _BLOCK_QUBITS)
            if window:
                pieces.append(window)
    return pieces


def _plan(circuit: Circuit) -> list[tuple]:
    """The steps ``run`` applies to each chunk: at most one per piece of ``split``.

    A step is ("block", low, block) for one window of a real run, where block
    is the matrix ``_apply_block`` takes, or ("phase", factors, index) for a
    P/CX run, as ``_phase_run`` gives it (a run that is the identity gives
    no step).
    """
    n = circuit.n_qubits
    steps: list[tuple] = []
    for piece in split(circuit):
        if piece[0].kind in _REAL:
            low = piece[0].qubits[0] - piece[0].qubits[0] % _BLOCK_QUBITS
            window = _compose(piece, n)[low:low + _BLOCK_QUBITS]
            steps.append(("block", low, _block(window, low)))
        else:
            step = _phase_run(piece, n)
            if step is not None:
                steps.append(step)
    return steps


def _compose(gates: tuple[Gate, ...], n_qubits: int) -> list:
    """Per qubit, the product of its H and RY matrices in gate order, or None."""
    matrices: list = [None] * n_qubits
    for gate in gates:
        q = gate.qubits[0]
        m = _matrix(gate)
        matrices[q] = m if matrices[q] is None else m @ matrices[q]
    return matrices


def _block(window: list, low: int) -> np.ndarray:
    """The real 2**w x 2**w block of one window of w 2x2 matrices.

    The window's matrix M is the Kronecker product of its qubits' matrices,
    highest qubit first (identity where a qubit has none), built with
    elementwise products only.  The lowest window returns M.T, contiguous,
    which acts on each plane's trailing window axis from the right; a higher
    window returns M, which acts on the amplitudes above the window from the
    left.
    """
    m = np.ones((1, 1))
    for r in reversed(window):
        if r is None:
            r = np.eye(2)
        m = (m[:, None, :, None] * r[None, :, None, :]).reshape(2 * len(m), 2 * len(m))
    return np.ascontiguousarray(m.T) if low == 0 else m


def _apply_block(planes: np.ndarray, spare: np.ndarray, n_qubits: int, low: int,
                 block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply one window's block to a (rows, 2, 2**n_qubits) array of planes.

    Both planes of every row take the same matmul, written into ``spare``;
    returns (state, spare) after the step.  Rows stay a matmul batch axis:
    each row is its own matrix product, the one it gets when run alone.
    """
    width = min(_BLOCK_QUBITS, n_qubits - low)
    if low == 0:
        shape = (len(planes), -1, 1 << width)
        np.matmul(planes.reshape(shape), block, out=spare.reshape(shape))
    else:
        shape = (len(planes), -1, 1 << width, 1 << low)
        np.matmul(block, planes.reshape(shape), out=spare.reshape(shape))
    return spare, planes


def _phase_run(gates: tuple[Gate, ...], n_qubits: int) -> tuple | None:
    """One step for a run of P and CX gates, or None if the run is the identity.

    The step is ("phase", factors, index) with ``_phase_structure``'s gather
    index and one (angles, masks, shape) factor per table: the (rows, K)
    matrix of the table's P angles (a single row when every angle is a
    float), then its masks and shape.
    """
    tables, index = _phase_structure(n_qubits, tuple((g.kind, g.qubits) for g in gates))
    if not tables:
        return None if index is None else ("phase", (), index)
    angles = [g.angle for g in gates if g.kind == "p"]
    rows = max((len(a) for a in angles if isinstance(a, np.ndarray)), default=1)
    factors = tuple(
        (np.column_stack([np.broadcast_to(angles[k], (rows,)) for k in columns]), masks, shape)
        for columns, masks, shape in tables
    )
    return ("phase", factors, index)


@functools.lru_cache(maxsize=_STRUCTURES)
def _phase_structure(n_qubits: int, gates: tuple) -> tuple:
    """The angle-free part of a P/CX run of the given (kind, qubits) gates.

    The run maps amplitudes a to a[index] * e^{i phi}, where phi is a sum of
    the run's P angles, each times a 0/1 mask over the output basis index.
    Walking the run backwards, ``source`` maps each output index to the index
    it holds before the CX gates seen so far; a P gate on qubit q then
    contributes where bit q of ``source`` is set, and at the start of the run
    ``source`` is the gather index.  The CX walk is linear over GF(2), so
    each mask is the parity of the output bits in a set S, read off the mask
    at the indices 1 << j.

    Returns (tables, index).  Each P gate's mask goes to the first table
    whose bits cover S: low (bits [0, 6)), high (bits [5, n), sharing bit 5
    with low) or full.  A table is (columns, masks, shape): the positions
    of its P gates in the run, their (K, entries) float masks, and its shape
    in the (2**(n-6), 2, 32) grid of amplitude indices (all 2**n entries in
    one axis when n <= 6, where only the low table occurs).  ``index`` is
    None when the CX gates compose to the identity.
    """
    basis = np.arange(1 << n_qubits)
    source = basis
    masks: list = []
    for kind, qubits in reversed(gates):
        if kind == "cx":
            control, target = qubits
            source = source ^ (((source >> control) & 1) << target)
        else:
            masks.append((source >> qubits[0]) & 1)
    masks.reverse()
    half = 1 << (_TABLE_BITS - 1)
    groups: tuple[list, list, list] = ([], [], [])
    for k, mask in enumerate(masks):
        support = sum(int(mask[1 << j]) << j for j in range(n_qubits))
        groups[0 if support < 2 * half else 1 if support % half == 0 else 2].append(k)
    cuts = (slice(2 * half), slice(None, None, half), slice(None))
    shapes = (((1, 2, half), (-1, 2, 1), (-1, 2, half)) if n_qubits > _TABLE_BITS
              else ((-1,),) * 3)
    tables = tuple(
        (tuple(columns), np.array([masks[k][cut] for k in columns], dtype=np.float64), shape)
        for columns, cut, shape in zip(groups, cuts, shapes) if columns
    )
    index = None if np.array_equal(source, basis) else source
    for array in [index] + [masks for _, masks, _ in tables]:
        if array is not None:
            array.flags.writeable = False
    return tables, index


def _trig(factors: tuple, n_qubits: int, start: int, stop: int) -> tuple | None:
    """cos and sin of the (rows, 2**n) phase table of one chunk, or None.

    Each table is a (rows, 1, K) @ (K, entries) matmul with rows as the
    batch axis, so each row's table is the one it gets when run alone; a
    single row of angles serves every row.  The tables combine, low then
    high then full, by broadcasting float64 complex products over the grid.
    """
    if not factors:
        return None
    c = s = None
    for angles, masks, shape in factors:
        if len(angles) > 1:
            angles = angles[start:stop]
        phi = (angles[:, None, :] @ masks)[:, 0].reshape((len(angles),) + shape)
        fc, fs = np.cos(phi), np.sin(phi)
        if c is None:
            c, s = fc, fs
        else:
            c, s = c * fc - s * fs, s * fc + c * fs
    grid = ((1 << (n_qubits - _TABLE_BITS), 2, 1 << (_TABLE_BITS - 1))
            if n_qubits > _TABLE_BITS else (1 << n_qubits,))
    return tuple(np.broadcast_to(t, t.shape[:1] + grid).reshape(len(t), -1) for t in (c, s))


def _apply_phase(planes: np.ndarray, spare: np.ndarray, trig,
                 index) -> tuple[np.ndarray, np.ndarray]:
    """Gather (rows, 2, 2**n) planes by ``index``, then multiply them by e^{i phi}.

    Each operation writes into the other array; returns (state, spare) after
    the step.  The complex multiply is spelled out in float64, one rounding
    per operation, so no row's bits depend on which loop NumPy picks.
    """
    if index is not None:
        # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
        np.take(planes, index, axis=2, out=spare, mode="clip")
        planes, spare = spare, planes
    if trig is None:
        return planes, spare
    c, s = trig
    re, im = planes[:, 0], planes[:, 1]
    out_re, out_im = spare[:, 0], spare[:, 1]
    np.multiply(re, c, out=out_re)
    np.multiply(im, s, out=out_im)
    np.subtract(out_re, out_im, out=out_re)
    np.multiply(re, s, out=out_im)
    np.multiply(im, c, out=re)
    np.add(out_im, re, out=out_im)
    return spare, planes


def _start(steps: list[tuple], n_qubits: int, rows: int) -> tuple[np.ndarray, list[tuple]]:
    """|0...0> on ``rows`` rows with the plan's leading blocks applied, and the steps left.

    A block maps |0> of its window to its first column: row 0 of M.T for
    the lowest window, column 0 of M above it.  While the leading blocks act
    on ascending windows, the state is therefore the outer product of those
    columns (e_0 for a window they leave alone), low window first, each
    higher window multiplying on the left.  Each amplitude a block matmul
    would give is one such product plus exact zeros, so the real parts are
    its bits once a -0.0 becomes +0.0; the imaginary parts are +0.
    """
    columns: dict[int, np.ndarray] = {}
    for kind, *args in steps:
        if kind != "block" or (columns and args[0] <= max(columns)):
            break
        low, block = args
        columns[low] = block[0] if low == 0 else block[:, 0]
    state = np.ones(1)
    for low in range(0, n_qubits, _BLOCK_QUBITS):
        column = columns.get(low)
        if column is None:
            column = np.zeros(1 << min(_BLOCK_QUBITS, n_qubits - low))
            column[0] = 1.0
        state = np.multiply.outer(column, state).ravel()
    amps = np.zeros((rows, 1 << n_qubits), dtype=np.complex128)
    amps.real[...] = state + 0.0
    return amps, steps[len(columns):]


def _apply_steps(source: np.ndarray, out: np.ndarray, steps: list[tuple], n_qubits: int) -> None:
    """Apply ``steps`` to the (rows, 2**n) complex rows of ``source`` and write them to ``out``.

    Rows go in chunks of at most ``_CHUNK_AMPLITUDES`` amplitudes, which keep
    a chunk in cache.  Each chunk is copied once into a (rows, 2, 2**n)
    float64 array of real and imaginary planes; every step reads one such
    array and writes a second of the same shape, so steps allocate no
    chunk-sized temporaries, and the result goes back to ``out``, which may
    be ``source``.
    """
    step = max(1, _CHUNK_AMPLITUDES >> n_qubits)
    planes = np.empty((min(step, len(source)), 2, 1 << n_qubits))
    spare = np.empty_like(planes)
    for start in range(0, len(source), step):
        stop = start + step
        chunk = source[start:stop]
        a, b = planes[:len(chunk)], spare[:len(chunk)]
        a[:, 0], a[:, 1] = chunk.real, chunk.imag
        for kind, *args in steps:
            if kind == "block":
                a, b = _apply_block(a, b, n_qubits, *args)
            else:
                factors, index = args
                a, b = _apply_phase(a, b, _trig(factors, n_qubits, start, stop), index)
        dest = out[start:stop]
        dest.real, dest.imag = a[:, 0], a[:, 1]


def run(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Run a circuit on |0...0>, or on a copy of ``state``.

    A circuit whose P angles are per-row arrays runs on a batch: one row per
    angle, each row the state that circuit with that row's angles gives.
    ``state`` may hold one state (1-D amplitudes) or a batch (2-D), and a
    batch circuit needs as many rows as it has.  The result has the shape of
    ``state``, or is 1-D for a float-angle circuit on |0...0>.
    """
    n = circuit.n_qubits
    lengths = {len(g.angle) for g in circuit.gates if isinstance(g.angle, np.ndarray)}
    if len(lengths) > 1:
        raise ValidationError(f"per-row angle arrays differ in length: {sorted(lengths)}")
    if state is None:
        rows = lengths.pop() if lengths else None
        amps, steps = _start(_plan(circuit), n, 1 if rows is None else rows)
        source = amps
        shape = (1 << n,) if rows is None else amps.shape
    else:
        if state.n_qubits != n:
            raise ValidationError(
                f"a {n}-qubit circuit cannot run on a {state.n_qubits}-qubit state"
            )
        shape = state.amplitudes.shape
        source = np.asarray(state.amplitudes, dtype=np.complex128).reshape(-1, 1 << n)
        if lengths and lengths != {len(source)}:
            raise ValidationError(
                f"per-row angles for {lengths.pop()} rows on a batch of {len(source)}"
            )
        amps = np.empty(source.shape, dtype=np.complex128)
        steps = _plan(circuit)
    _apply_steps(source, amps, steps, n)
    return StateVector(n, amps.reshape(shape))


def adjoint(circuit: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, P/RY angles negated (H, CX self-inverse)."""
    inv: list[Gate] = []
    for g in reversed(circuit.gates):
        if g.kind in _PARAMETRIC:
            inv.append(Gate(g.kind, g.qubits, -g.angle))
        else:
            inv.append(g)
    return Circuit(circuit.n_qubits, tuple(inv))


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement distribution |a_i|^2 over all basis indices."""
    return np.abs(state.amplitudes) ** 2


# No pipeline stage calls this; perfbench/tracing.py wraps it by name, so it stays until that goes.
def sample(state: StateVector, shots: int, seed) -> dict[int, int]:
    """Multinomial draw of measurement outcomes.

    Returns a map basis index -> count over the indices that occurred; counts
    sum to ``shots``.  ``seed`` may be an int or a tuple of ints and fully
    determines the draw.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if state.amplitudes.ndim != 1:
        raise ValidationError("sample draws from one state, not a batch")
    p = probabilities(state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return {int(i): int(c) for i, c in enumerate(counts) if c > 0}
