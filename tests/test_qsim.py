import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtc
from qtc.circuits import AnsatzSpec, FeatureMapSpec, bind_ansatz, build_ansatz, build_feature_map
from qtc.errors import ValidationError
from qtc.kernel import encoded_state
from qtc.qsim import core
from qtc.variational import VariationalModel, encode
from qtc.qsim import (
    MAX_QUBITS,
    Circuit,
    Gate,
    StateVector,
    adjoint,
    probabilities,
    run,
    sample,
    split,
)

INV = 1.0 / math.sqrt(2.0)


# ------------------------------------------------------------- dense oracle

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) * INV


def p_mat(theta):
    return np.diag([1.0, np.exp(1j * theta)])


def ry_mat(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def dense_unitary(gate: Gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix via Kronecker products (little-endian)."""
    if gate.kind == "cx":
        control, target = gate.qubits
        dim = 1 << n
        mat = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << target) if (i >> control) & 1 else i
            mat[j, i] = 1.0
        return mat
    single = {"h": H_MAT, "p": p_mat(gate.angle or 0), "ry": ry_mat(gate.angle or 0)}[gate.kind]
    q = gate.qubits[0]
    return np.kron(np.kron(np.eye(1 << (n - 1 - q)), single), np.eye(1 << q))


def dense_run(circuit: Circuit, start: np.ndarray | None = None) -> np.ndarray:
    """The circuit's dense unitaries applied in turn to ``start``, or to |0...0>."""
    if start is None:
        state = np.zeros(1 << circuit.n_qubits, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(start, dtype=complex)
    for gate in circuit.gates:
        state = dense_unitary(gate, circuit.n_qubits) @ state
    return state


def random_circuit(rng, n_qubits, n_gates) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = ("h", "p", "ry", "cx")[rng.integers(4)] if n_qubits > 1 else ("h", "p", "ry")[rng.integers(3)]
        if kind == "cx":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("cx", (int(control), int(target))))
        elif kind == "h":
            gates.append(Gate("h", (int(rng.integers(n_qubits)),)))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),), float(rng.uniform(-4, 4))))
    return Circuit(n_qubits, tuple(gates))


# ------------------------------------------------------------------- gates


class TestApplyGate:
    def test_h_on_zero(self):
        out = run(Circuit(1, (Gate("h", (0,)),)))
        assert np.allclose(out.amplitudes, [INV, INV], atol=1e-15)

    def test_ry_pi_flips(self):
        out = run(Circuit(1, (Gate("ry", (0,), math.pi),)))
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-12)

    def test_cx_little_endian(self):
        # |01> means qubit 0 set -> index 1; CX(0->1) maps it to |11> = index 3
        state = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
        out = run(Circuit(2, (Gate("cx", (0, 1)),)), state)
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_input_untouched(self):
        state = run(Circuit(1))
        run(Circuit(1, (Gate("h", (0,)),)), state)
        assert state.amplitudes[0] == 1.0

    def test_invalid_target(self):
        with pytest.raises(ValidationError):
            run(Circuit(1, (Gate("h", (1,)),)), run(Circuit(1)))

    def test_qubit_count_bounded(self):
        Circuit(MAX_QUBITS)
        with pytest.raises(ValidationError, match="MAX_QUBITS"):
            Circuit(MAX_QUBITS + 1, (Gate("h", (MAX_QUBITS,)),))

    def test_cx_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            Gate("cx", (0, 0))

    def test_gate_matrices_unitary(self):
        for mat in (H_MAT, p_mat(0.7), ry_mat(1.3)):
            assert np.allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)
        cx = dense_unitary(Gate("cx", (0, 1)), 2)
        assert np.allclose(cx.conj().T @ cx, np.eye(4), atol=1e-12)


class TestRun:
    def test_empty_circuit(self):
        out = run(Circuit(2))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [1, 6, 7, 13])
    def test_empty_circuit_is_basis_state_bitwise(self, n):
        expected = np.zeros(1 << n, dtype=np.complex128)
        expected[0] = 1.0
        assert_same_bits(run(Circuit(n)).amplitudes, expected)

    def test_hadamard_wall(self):
        out = run(Circuit(2, (Gate("h", (0,)), Gate("h", (1,)))))
        assert np.allclose(out.amplitudes, [0.5] * 4, atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 4):
            for _ in range(12):
                circ = random_circuit(rng, n, 12)
                assert np.allclose(
                    run(circ).amplitudes, dense_run(circ), atol=1e-10
                )

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            circ = random_circuit(rng, n, 50)
            norm = np.linalg.norm(run(circ).amplitudes)
            assert abs(norm - 1.0) < 1e-12


class TestAdjoint:
    def test_h_self_inverse(self):
        circ = Circuit(1, (Gate("h", (0,)),))
        assert adjoint(circ).gates == circ.gates

    def test_angle_negation_and_reversal(self):
        circ = Circuit(1, (Gate("p", (0,), 0.7), Gate("ry", (0,), 1.1)))
        inv = adjoint(circ)
        assert [(g.kind, g.angle) for g in inv.gates] == [("ry", -1.1), ("p", -0.7)]

    def test_round_trip_returns_zero_state(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n, int(rng.integers(1, 30)))
            out = run(Circuit(n, circ.gates + adjoint(circ).gates))
            expected = np.zeros(1 << n)
            expected[0] = 1.0
            assert np.allclose(out.amplitudes, expected, atol=1e-10)


class TestProbabilities:
    def test_basis_state(self):
        assert np.allclose(probabilities(run(Circuit(2))), [1, 0, 0, 0])

    def test_uniform(self):
        state = run(Circuit(2, (Gate("h", (0,)), Gate("h", (1,)))))
        assert np.allclose(probabilities(state), 0.25, atol=1e-15)

    def test_phase_invisible(self):
        base = run(Circuit(2, (Gate("h", (0,)), Gate("h", (1,)))))
        phased = run(
            Circuit(2, (Gate("h", (0,)), Gate("h", (1,)), Gate("p", (0,), 2.1)))
        )
        assert np.allclose(probabilities(base), probabilities(phased), atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            circ = random_circuit(rng, 3, 20)
            assert probabilities(run(circ)).sum() == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_deterministic_state(self):
        counts = sample(run(Circuit(2)), 500, seed=1)
        assert counts == {0: 500}

    def test_reproducible(self):
        state = run(Circuit(2, (Gate("h", (0,)), Gate("ry", (1,), 0.9))))
        assert sample(state, 1000, seed=9) == sample(state, 1000, seed=9)

    def test_frequency_within_binomial_bound(self):
        state = run(Circuit(2, (Gate("h", (0,)), Gate("h", (1,)))))
        shots = 10**5
        counts = sample(state, shots, seed=123)
        sigma = math.sqrt(0.25 * 0.75 / shots)
        for i in range(4):
            assert abs(counts.get(i, 0) / shots - 0.25) < 5 * sigma

    def test_counts_sum_to_shots(self):
        state = run(Circuit(3, tuple(Gate("h", (q,)) for q in range(3))))
        counts = sample(state, 4321, seed=0)
        assert sum(counts.values()) == 4321


class TestBinding:
    def test_bind_by_parameter_order(self):
        circ = build_ansatz(AnsatzSpec(2, reps=1))
        bound = bind_ansatz(circ, np.array([0.5, 1.5, 2.5, 3.5]))
        assert [g.angle for g in bound.gates if g.kind == "ry"] == [0.5, 1.5, 2.5, 3.5]
        assert all(type(g.angle) is float for g in bound.gates if g.kind == "ry")
        others = [g for g in circ.gates if g.kind != "ry"]
        assert [g for g in bound.gates if g.kind != "ry"] == others

    def test_wrong_length(self):
        circ = build_ansatz(AnsatzSpec(1, reps=1))
        with pytest.raises(ValidationError, match="expected 2 parameter values, got 3"):
            bind_ansatz(circ, [1.0, 2.0, 3.0])


# ------------------------------------------------------------------ batches


def random_batch_circuit(rng, n_qubits, n_gates, rows) -> Circuit:
    """A random circuit whose P angles are, at random, floats or per-row arrays
    (RY angles are floats)."""
    gates = []
    for g in random_circuit(rng, n_qubits, n_gates).gates:
        if g.kind == "p" and rng.integers(2):
            g = Gate(g.kind, g.qubits, rng.uniform(-4, 4, rows))
        gates.append(g)
    return Circuit(n_qubits, tuple(gates))


def row_circuit(circuit: Circuit, r: int) -> Circuit:
    """The float-angle circuit that row r of a batch circuit stands for."""
    return Circuit(circuit.n_qubits, tuple(
        Gate(g.kind, g.qubits, float(g.angle[r])) if isinstance(g.angle, np.ndarray) else g
        for g in circuit.gates
    ))


def random_states(rng, rows, n_qubits) -> np.ndarray:
    amps = rng.normal(size=(rows, 1 << n_qubits)) + 1j * rng.normal(size=(rows, 1 << n_qubits))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.asarray(a).view(np.float64), np.asarray(b).view(np.float64))


class TestBatchRun:
    def test_batch_equals_rows_bitwise(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                rows = int(rng.integers(1, 6))
                circ = random_batch_circuit(rng, n, 16, rows)
                out = run(circ, StateVector(n, np.tile(run(Circuit(n)).amplitudes, (rows, 1))))
                assert out.amplitudes.shape == (rows, 1 << n)
                for r in range(rows):
                    assert_bitwise(out.amplitudes[r], run(row_circuit(circ, r)).amplitudes)

    def test_batch_from_given_states_equals_rows_bitwise(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            rows = 5
            circ = random_batch_circuit(rng, n, 20, rows)
            start = random_states(rng, rows, n)
            out = run(circ, StateVector(n, start))
            for r in range(rows):
                one = run(row_circuit(circ, r), StateVector(n, start[r]))
                assert one.amplitudes.shape == (1 << n,)
                assert_bitwise(out.amplitudes[r], one.amplitudes)

    def test_rows_match_dense_oracle(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            circ = random_batch_circuit(rng, n, 12, 4)
            out = run(circ, StateVector(n, np.tile(run(Circuit(n)).amplitudes, (4, 1))))
            for r in range(4):
                assert np.allclose(out.amplitudes[r], dense_run(row_circuit(circ, r)), atol=1e-10)

    def test_array_angle_circuit_starts_one_row_per_angle(self):
        circ = Circuit(1, (Gate("h", (0,)), Gate("p", (0,), np.array([0.0, math.pi]))))
        out = run(circ)
        assert np.allclose(out.amplitudes, [[INV, INV], [INV, -INV]], atol=1e-15)

    def test_chunk_boundaries_do_not_change_rows(self, monkeypatch):
        rng = np.random.default_rng(14)
        circ = random_batch_circuit(rng, 3, 30, 7)
        whole = run(circ).amplitudes
        monkeypatch.setattr(core, "_CHUNK_AMPLITUDES", 16)  # two 3-qubit rows per chunk
        assert_bitwise(run(circ).amplitudes, whole)

    def test_feature_map_and_ansatz_12_qubits_bitwise(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(0, math.pi, (10, 12))  # more rows than one chunk holds
        spec = FeatureMapSpec("zz", 12, reps=2)
        ansatz = bind_ansatz(build_ansatz(AnsatzSpec(12, reps=1)), rng.uniform(-3, 3, 24))
        batch = run(ansatz, run(build_feature_map(spec, X)))
        for r, x in enumerate(X):
            one = run(Circuit(12, build_feature_map(spec, x).gates + ansatz.gates))
            assert_bitwise(batch.amplitudes[r], one.amplitudes)

    def test_steps_allocate_nothing_chunk_sized(self):
        # 48 rows of 12 qubits run in 6 chunks of 8 rows.  Beyond the output,
        # the two scratch arrays of planes and the plan's blocks, the run may
        # allocate 128 KiB (the gather's index copy and small arrays): a
        # quarter of the 512 KiB of one chunk's planes.
        rng = np.random.default_rng(17)
        n = 12
        circ = bind_ansatz(build_ansatz(AnsatzSpec(n, reps=2)), rng.uniform(-3, 3, 3 * n))
        start = StateVector(n, random_states(rng, 48, n))
        run(circ, start)  # fills the phase-structure cache
        tracemalloc.start()
        try:
            out = run(circ, start).amplitudes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = 2 * (core._CHUNK_AMPLITUDES * 16)
        blocks = sum(step[2].nbytes for step in core._plan(circ) if step[0] == "block")
        assert peak <= out.nbytes + scratch + blocks + (128 << 10)

    def test_input_states_untouched(self):
        rng = np.random.default_rng(16)
        start = random_states(rng, 3, 2)
        kept = start.copy()
        run(Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)))), StateVector(2, start))
        assert_bitwise(start, kept)

    def test_angle_arrays_of_different_lengths_rejected(self):
        circ = Circuit(1, (Gate("p", (0,), np.zeros(2)), Gate("p", (0,), np.zeros(3))))
        with pytest.raises(ValidationError, match="differ in length"):
            run(circ)

    def test_angle_rows_must_match_batch(self):
        circ = Circuit(1, (Gate("p", (0,), np.zeros(2)),))
        with pytest.raises(ValidationError, match="2 rows on a batch of 3"):
            run(circ, StateVector(1, np.tile(run(Circuit(1)).amplitudes, (3, 1))))

    def test_state_width_must_match(self):
        with pytest.raises(ValidationError, match="2-qubit circuit"):
            run(Circuit(2, (Gate("h", (0,)),)), run(Circuit(1)))

    def test_angle_array_must_be_one_dimensional(self):
        with pytest.raises(ValidationError, match="1-D"):
            Gate("p", (0,), np.zeros((2, 2)))

    @pytest.mark.parametrize("kind, angle", [
        ("ry", "theta"), ("p", "theta"), ("ry", True), ("p", False), ("ry", [0.5]),
        ("p", np.array(["a", "b"])), ("p", np.array([1 + 2j])), ("p", np.array([1 + 0j])),
    ], ids=["ry-str", "p-str", "ry-bool", "p-bool", "ry-list", "p-str-array",
            "p-complex-array", "p-complex-array-real-values"])
    def test_non_numeric_angle_names_gate_kind(self, kind, angle):
        with pytest.raises(ValidationError, match=f"^{kind} angle"):
            Gate(kind, (0,), angle)

    def test_only_p_takes_per_row_angles(self):
        with pytest.raises(ValidationError, match="only p does"):
            Gate("ry", (0,), np.array([0.1, 0.2]))

    def test_sample_rejects_batch(self):
        batch = run(Circuit(1, (Gate("p", (0,), np.array([0.1, 0.2])),)))
        with pytest.raises(ValidationError, match="batch"):
            sample(batch, 10, seed=0)


@st.composite
def batch_cases(draw):
    """(circuit with float angles and per-row P angles, row count) on 1-8 qubits."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 9))
    angle = st.floats(-7.0, 7.0, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(("h", "p", "ry", "cx") if n > 1 else ("h", "p", "ry")))
        if kind == "cx":
            control, target = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                            unique=True))
            gates.append(Gate("cx", (control, target)))
        elif kind == "h":
            gates.append(Gate("h", (draw(st.integers(0, n - 1)),)))
        elif kind == "p" and draw(st.booleans()):
            values = draw(st.lists(angle, min_size=rows, max_size=rows))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), np.array(values)))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), draw(angle)))
    return Circuit(n, tuple(gates)), rows


@settings(max_examples=60, deadline=None)
@given(batch_cases(), st.integers(0, 2**32 - 1))
def test_property_batch_run_equals_row_runs(case, seed):
    circ, rows = case
    start = random_states(np.random.default_rng(seed), rows, circ.n_qubits)
    out = run(circ, StateVector(circ.n_qubits, start))
    for r in range(rows):
        one = run(row_circuit(circ, r), StateVector(circ.n_qubits, start[r]))
        assert_bitwise(out.amplitudes[r], one.amplitudes)


# ------------------------------------------------------- per-gate reference


def _reference_ry(amps: np.ndarray, gate: Gate) -> None:
    """The oracle for RY: the per-gate slice arithmetic ``_apply`` used before
    RY runs were fused into blocks, kept verbatim."""
    rows = amps.shape[0]
    half = 0.5 * float(gate.angle)
    c, s = math.cos(half), math.sin(half)
    v = amps.reshape(rows, -1, 2, 1 << gate.qubits[0])
    a = v[:, :, 0].copy()
    b = v[:, :, 1].copy()
    v[:, :, 0] = c * a - s * b
    v[:, :, 1] = s * a + c * b


def _reference_coefficient(gate: Gate):
    """The P phase e^{i angle}, a list with one phase per row for a per-row
    angle, as ``core._coefficient`` computed it before P runs were fused
    into phase tables, kept verbatim."""
    angle = gate.angle
    if isinstance(angle, np.ndarray):
        return [complex(math.cos(t), math.sin(t)) for t in angle.tolist()]
    return complex(math.cos(angle), math.sin(angle))


def _reference_gate(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    """The oracle for H, P and CX: the per-gate slice arithmetic of
    ``core._apply`` before H joined the real blocks and P and CX the phase
    runs, kept verbatim."""
    rows = amps.shape[0]
    if gate.kind == "cx":
        # Qubit k is axis n-k (axis 0 is the row); swap the target's halves
        # where the control is 1.
        v = amps.reshape((rows,) + (2,) * n_qubits)
        control, target = (n_qubits - q for q in gate.qubits)
        t0 = [slice(None)] * (n_qubits + 1)
        t0[control] = 1
        t1 = list(t0)
        t0[target], t1[target] = 0, 1
        t0, t1 = tuple(t0), tuple(t1)
        tmp = v[t0].copy()
        v[t0] = v[t1]
        v[t1] = tmp
        return
    # Viewed as (rows, dim // (2 * step), 2, step) with step = 2**q, axis 2
    # is qubit q.
    v = amps.reshape(rows, -1, 2, 1 << gate.qubits[0])
    if gate.kind == "p":
        coef = _reference_coefficient(gate)
        ones = v[:, :, 1]
        for r, phase in enumerate(coef if isinstance(coef, list) else [coef] * rows):
            ones[r] *= phase
        return
    a = v[:, :, 0].copy()
    b = v[:, :, 1].copy()
    v[:, :, 0] = (a + b) * INV
    v[:, :, 1] = (a - b) * INV


def reference_run(circuit: Circuit, start: np.ndarray) -> np.ndarray:
    """Every gate of ``circuit`` applied one at a time to a copy of the
    (rows, 2**n) amplitudes ``start``: RY by ``_reference_ry``, H, P and CX by
    ``_reference_gate``, with no fusion and no chunks."""
    amps = np.array(start, dtype=np.complex128)
    for gate in circuit.gates:
        if gate.kind == "ry":
            _reference_ry(amps, gate)
        else:
            _reference_gate(amps, circuit.n_qubits, gate)
    return amps


@st.composite
def fusion_cases(draw):
    """(circuit, row count) on 1-8 qubits: H, P, CX runs of 1-4 gates and RY
    runs, with float angles and per-row P angles."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-7.0, 7.0, allow_nan=False)

    def turn(kind):
        if kind == "p" and draw(st.booleans()):
            return Gate(kind, (draw(qubit),), np.array(draw(st.lists(angle, min_size=rows,
                                                                      max_size=rows))))
        return Gate(kind, (draw(qubit),), draw(angle))

    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("h", "p", "ry", "cx") if n > 1 else ("h", "p", "ry")))
        if kind == "h":
            gates.append(Gate("h", (draw(qubit),)))
        elif kind == "p":
            gates.append(turn("p"))
        elif kind == "ry":
            gates.extend(turn("ry") for _ in range(draw(st.integers(1, 2 * n))))
        else:
            for _ in range(draw(st.integers(1, 4))):
                control, target = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
                gates.append(Gate("cx", (control, target)))
    return Circuit(n, tuple(gates)), rows


class TestFusion:
    @settings(max_examples=120, deadline=None)
    @given(fusion_cases(), st.integers(0, 2**32 - 1))
    def test_property_run_matches_per_gate_reference(self, case, seed):
        circ, rows = case
        start = random_states(np.random.default_rng(seed), rows, circ.n_qubits)
        out = run(circ, StateVector(circ.n_qubits, start)).amplitudes
        assert np.max(np.abs(out - reference_run(circ, start)), initial=0.0) <= 1e-14

    def test_cx_only_circuit_equals_reference_bitwise(self):
        rng = np.random.default_rng(21)
        for n in range(2, 11):
            for length in (1, 2, 3, 4, 7, 3 * n):
                pairs = [rng.choice(n, size=2, replace=False) for _ in range(length)]
                circ = Circuit(n, tuple(Gate("cx", (int(c), int(t))) for c, t in pairs))
                start = random_states(rng, 3, n)
                assert_bitwise(run(circ, StateVector(n, start)).amplitudes,
                               reference_run(circ, start))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zz_encoding_equals_reference_bitwise(self, n):
        # Fused H and P round differently from the per-gate reference, so the
        # encoding matches it to 1e-14; bitwise, each row of the batch is the
        # encoding of that point alone.
        rng = np.random.default_rng(100 + n)
        X = rng.uniform(0, math.pi, (10, n))  # 10 rows: more than one chunk at 12 qubits
        model = VariationalModel(FeatureMapSpec("zz", n, reps=2), AnsatzSpec(n, reps=1),
                                 np.zeros(2 * n), 2, "cross_entropy")
        circ = build_feature_map(model.feature_map, X)
        start = np.tile(run(Circuit(n)).amplitudes, (10, 1))
        batch = encode(model, X).amplitudes
        assert np.max(np.abs(batch - reference_run(circ, start))) <= 1e-14
        for r, x in enumerate(X):
            assert_bitwise(batch[r], run(build_feature_map(model.feature_map, x)).amplitudes)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_p_inside_cx_runs_matches_dense_oracle(self, n):
        # P gates on the control, on the target and on other qubits of CX
        # chains, so most phase runs end in a permutation other than the
        # identity; the circuit begins and ends with such a run, and the P
        # angles are per row or float.
        rng = np.random.default_rng(300 + n)
        rows = 3

        def p(q):
            angle = rng.uniform(-4, 4, rows) if rng.integers(2) else float(rng.uniform(-4, 4))
            return Gate("p", (q,), angle)

        def phase_run():
            gates = [p(0)]
            for q in range(n - 1):
                control, target = (q, q + 1) if rng.integers(2) else (q + 1, q)
                others = [k for k in range(n) if k not in (control, target)]
                gates += [p(control), Gate("cx", (control, target)), p(target)]
                if others:
                    gates.append(p(int(rng.choice(others))))
            return gates

        middle = [Gate("h", (q,)) for q in range(n)] + [Gate("ry", (0,), 0.7)]
        circ = Circuit(n, tuple(phase_run() + middle + phase_run() + middle[:1] + phase_run()))
        start = random_states(rng, rows, n)
        out = run(circ, StateVector(n, start)).amplitudes
        for r in range(rows):
            one = row_circuit(circ, r)
            assert np.max(np.abs(out[r] - dense_run(one, start[r]))) <= 1e-14
            assert_bitwise(out[r], run(one, StateVector(n, start[r])).amplitudes)

    @pytest.mark.parametrize("n", (6, 7, 8, 12, 13))
    def test_factored_phase_tables_match_reference(self, n):
        # Each P gate sits in a CX sandwich whose controls make its mask the
        # parity of a chosen bit set: within the low table's bits [0, 6),
        # within the high table's [5, n) (bit 5 included), or across both
        # (the full table).  A CX chain before the sandwiches leaves each
        # set as it is but makes the run's gather a permutation other than
        # the identity.  At n = 6 every set lies in the low table.
        rng = np.random.default_rng(500 + n)
        rows = 3
        top = n - 1
        supports = [(2,), (3, 0, 5), (5,), (4, 1)]  # (qubit, *controls)
        if n > 6:
            supports += [(6, 5), (top,), (top, 6, 5), (6,),  # high
                         (6, 4), (top, 0), (1, top, 5)]  # across

        def sandwich(q, *controls):
            angle = rng.uniform(-4, 4, rows) if rng.integers(2) else float(rng.uniform(-4, 4))
            chain = [Gate("cx", (c, q)) for c in controls if c != q]
            return chain + [Gate("p", (q,), angle)] + chain[::-1]

        def phase_run():
            gates = [Gate("cx", (q, q + 1)) for q in range(n - 1)]
            for support in supports:
                gates += sandwich(*support)
            return gates

        middle = [Gate("h", (q,)) for q in range(n)]
        circ = Circuit(n, tuple(phase_run() + middle + phase_run()))
        tables = [len(step[1]) for step in core._plan(circ) if step[0] == "phase"]
        assert tables == ([1, 1] if n == 6 else [3, 3])
        start = random_states(rng, rows, n)
        out = run(circ, StateVector(n, start)).amplitudes
        assert np.max(np.abs(out - reference_run(circ, start))) <= 1e-14
        for r in range(rows):
            one = row_circuit(circ, r)
            assert_bitwise(out[r], run(one, StateVector(n, start[r])).amplitudes)

    def test_narrow_high_window_matches_reference(self):
        # At 13 qubits the real windows are [0, 6), [6, 12) and [12, 13), and
        # 5 rows are more than one chunk (4 rows of 2**13 amplitudes).
        rng = np.random.default_rng(24)
        n, rows = 13, 5
        layers = ([Gate("h", (q,)) for q in range(n)]
                  + [Gate("ry", (q,), float(rng.uniform(-4, 4))) for q in range(n)])
        tail = [Gate("ry", (12,), 0.3), Gate("cx", (12, 0)),
                Gate("p", (12,), rng.uniform(-4, 4, rows)), Gate("cx", (5, 12)),
                Gate("ry", (12,), -1.1), Gate("h", (6,))]
        middle = random_batch_circuit(rng, n, 60, rows).gates
        circ = Circuit(n, tuple(layers) + middle + tuple(tail))
        assert {step[1] for step in core._plan(circ) if step[0] == "block"} == {0, 6, 12}
        start = random_states(rng, rows, n)
        out = run(circ, StateVector(n, start)).amplitudes
        assert np.max(np.abs(out - reference_run(circ, start))) <= 1e-14

    def test_ansatz_layers_match_reference(self):
        rng = np.random.default_rng(22)
        for n in (5, 6, 7, 12, 13):
            circ = bind_ansatz(build_ansatz(AnsatzSpec(n, reps=2)), rng.uniform(-3, 3, 3 * n))
            start = random_states(rng, 3, n)
            out = run(circ, StateVector(n, start)).amplitudes
            assert np.max(np.abs(out - reference_run(circ, start))) <= 1e-14


def planned_run(circuit: Circuit, rows: int) -> np.ndarray:
    """Every step of the circuit's plan applied to |0...0> on ``rows`` rows,
    chunk by chunk on real and imaginary planes, as ``run`` applies them to a
    given batch."""
    n = circuit.n_qubits
    amps = np.tile(run(Circuit(n)).amplitudes, (rows, 1))
    core._apply_steps(amps, amps, core._plan(circuit), n)
    return amps


def assert_same_bits(a, b):
    """Equal as uint64 words, so signed zeros count."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Angles whose RY columns hold signed zeros (0.0, -0.0), an all-negative
# first row (3.0, 2.5), or a near-zero entry (pi).
SIGNED_ANGLES = (0.0, -0.0, math.pi, 3.0, -3.0, 2.5, 2 * math.pi)


class TestProductStart:
    """``run`` on |0...0> starts from the product state of the plan's leading blocks."""

    @pytest.mark.parametrize("n", (1, 2, 6, 7, 12, 13))
    @pytest.mark.parametrize("kind", ("z", "zz"))
    def test_feature_map_equals_block_steps(self, n, kind):
        X = np.random.default_rng(700 + n).uniform(0, math.pi, (10, n))
        circ = build_feature_map(FeatureMapSpec(kind, n), X)
        lows = list(range(0, n, 6))
        opening = [step[:2] for step in core._plan(circ)[:len(lows)]]
        assert opening == [("block", low) for low in lows]
        assert_same_bits(run(circ).amplitudes, planned_run(circ, 10))

    @pytest.mark.parametrize("n", (1, 2, 6, 7, 12, 13, 14))
    def test_ry_openings_equal_block_steps(self, n):
        rows = 3
        p = Gate("p", (0,), np.random.default_rng(800 + n).uniform(-4, 4, rows))
        ry = [Gate("ry", (q,), SIGNED_ANGLES[q % len(SIGNED_ANGLES)]) for q in range(n)]
        h = [Gate("h", (q,)) for q in range(n)]
        openings = [ry, ry[::2], ry[-1:], ry + h, ry[6:] + ry[:6]]
        if n > 1:  # an identity CX pair between two real runs on one window
            openings.append(h[:1] + [Gate("cx", (0, 1))] * 2 + ry[:1])
        for gates in openings:
            circ = Circuit(n, tuple(gates) + (p,))
            assert_same_bits(run(circ).amplitudes, planned_run(circ, rows))
            one = Circuit(n, tuple(gates))
            assert_same_bits(run(one).amplitudes, planned_run(one, 1)[0])

    @pytest.mark.parametrize("n", (1, 2, 7, 13))
    def test_p_opening_equals_block_steps(self, n):
        rows = 3
        p = Gate("p", (n - 1,), np.random.default_rng(900 + n).uniform(-4, 4, rows))
        circ = Circuit(n, (p,) + tuple(Gate("h", (q,)) for q in range(n)) + (p,))
        assert core._plan(circ)[0][0] == "phase"
        assert_same_bits(run(circ).amplitudes, planned_run(circ, rows))


class TestSplit:
    @pytest.mark.parametrize("n", (1, 2, 7, 13))
    def test_pieces_are_the_plan_steps(self, n):
        # One piece per RY window and per CX chain; at one qubit the ansatz
        # is a single RY run.
        circ = bind_ansatz(build_ansatz(AnsatzSpec(n, reps=2)),
                           np.random.default_rng(n).uniform(-3, 3, 3 * n))
        pieces = split(circ)
        gates = [g for piece in pieces for g in piece]
        assert sorted(map(id, gates)) == sorted(map(id, circ.gates))
        layer = [("block", low) for low in range(0, n, 6)]
        expected = layer + [("phase",)] + layer + [("phase",)] + layer if n > 1 else layer
        steps = core._plan(circ)
        assert [step[:1] if step[0] == "phase" else step[:2] for step in steps] == expected
        assert len(pieces) == len(steps)
        for piece in pieces:
            assert len(core._plan(Circuit(n, piece))) == 1

    @pytest.mark.parametrize("n", (1, 2, 7, 13))
    def test_run_resumed_at_every_cut_is_bitwise_the_whole_run(self, n):
        rng = np.random.default_rng(40 + n)
        h = tuple(Gate("h", (q,)) for q in range(n))
        ansatz = bind_ansatz(build_ansatz(AnsatzSpec(n, reps=2)), rng.uniform(-3, 3, 3 * n))
        pair = (Gate("cx", (0, 1)),) * 2 if n > 1 else ()
        circ = Circuit(n, h + pair + ansatz.gates + pair + h)
        start = StateVector(n, random_states(rng, 3, n))
        whole = run(circ, start).amplitudes
        pieces = split(circ)
        for cut in range(len(pieces) + 1):
            for stop in range(cut, len(pieces) + 1):
                head = run(Circuit(n, sum(pieces[:cut], ())), start)
                middle = run(Circuit(n, sum(pieces[cut:stop], ())), head)
                out = run(Circuit(n, sum(pieces[stop:], ())), middle).amplitudes
                assert_same_bits(out, whole)


class TestPhaseStructureCache:
    def test_same_shape_with_other_angles_equals_cold_run(self):
        rng = np.random.default_rng(31)
        spec = FeatureMapSpec("zz", 12, reps=2)
        first, second = (build_feature_map(spec, rng.uniform(0, math.pi, (4, 12)))
                         for _ in range(2))
        core._phase_structure.cache_clear()
        warm = [run(first).amplitudes, run(second).amplitudes]
        assert core._phase_structure.cache_info().hits > 0
        for circ, amps in zip((first, second), warm):
            core._phase_structure.cache_clear()
            assert_bitwise(run(circ).amplitudes, amps)

    def test_cache_stays_bounded(self):
        core._phase_structure.cache_clear()
        for q in range(3 * core._STRUCTURES):
            run(Circuit(8, (Gate("cx", (q % 8, (q + 1) % 8)),) * (1 + q // 8)
                        + (Gate("p", (q % 8,), 0.5),)))
        info = core._phase_structure.cache_info()
        assert info.misses == 3 * core._STRUCTURES
        assert info.currsize <= info.maxsize == core._STRUCTURES

    def test_cold_process_and_warm_cache_give_same_bytes(self):
        x = np.random.default_rng(33).uniform(0, math.pi, (5, 12))
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from qtc.circuits import FeatureMapSpec\n"
            "from qtc.kernel import encoded_state\n"
            "x = np.array(json.loads(sys.argv[1]))\n"
            "sys.stdout.write(encoded_state(FeatureMapSpec('zz', 12), x).tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtc.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(x.tolist())], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spec = FeatureMapSpec("zz", 12)
        encoded_state(spec, x)
        assert core._phase_structure.cache_info().currsize > 0
        assert encoded_state(spec, x).tobytes().hex() == proc.stdout
