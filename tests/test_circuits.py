import math

import numpy as np
import pytest

from qtc.circuits import (
    MAX_GATES,
    AnsatzSpec,
    FeatureMapSpec,
    bind_ansatz,
    build_ansatz,
    build_feature_map,
    compose,
)
from qtc.errors import ValidationError
from qtc.qsim import Circuit, Gate, probabilities, run


class TestFeatureMap:
    def test_z_single_qubit_zero_angle(self):
        circ = build_feature_map(FeatureMapSpec("z", 1, reps=1), [0.0])
        assert [(g.kind, g.angle) for g in circ.gates] == [("h", None), ("p", 0.0)]
        inv = 1 / math.sqrt(2)
        assert np.allclose(run(circ).amplitudes, [inv, inv], atol=1e-15)

    def test_zz_at_pi_pi_is_uniform(self):
        # pair angle 2(pi-pi)(pi-pi) = 0 and single phases 2pi: probabilities uniform
        circ = build_feature_map(FeatureMapSpec("zz", 2, reps=1), [math.pi, math.pi])
        assert np.allclose(probabilities(run(circ)), 0.25, atol=1e-12)

    def test_zz_reps2_gate_count(self):
        circ = build_feature_map(FeatureMapSpec("zz", 2, reps=2), [0.3, 0.4])
        assert len(circ.gates) == 14

    def test_z_map_probabilities_uniform_for_any_x(self):
        rng = np.random.default_rng(0)
        spec = FeatureMapSpec("z", 3, reps=1)
        for _ in range(5):
            circ = build_feature_map(spec, rng.uniform(-3, 3, 3))
            assert np.allclose(probabilities(run(circ)), 1 / 8, atol=1e-12)

    def test_encoded_state_normalized(self):
        rng = np.random.default_rng(1)
        spec = FeatureMapSpec("zz", 3, reps=2)
        for _ in range(5):
            state = run(build_feature_map(spec, rng.uniform(0, math.pi, 3)))
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_pair_angles_ascending_order(self):
        circ = build_feature_map(FeatureMapSpec("zz", 3, reps=1), [0.1, 0.2, 0.3])
        cx_pairs = [g.qubits for g in circ.gates if g.kind == "cx"]
        assert cx_pairs == [(0, 1), (0, 1), (1, 2), (1, 2)]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            build_feature_map(FeatureMapSpec("z", 2, reps=1), [1.0])

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            FeatureMapSpec("zzz", 2)


class TestFeatureMapBatch:
    @pytest.mark.parametrize("kind", ["z", "zz"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batch_equals_per_row_circuits(self, kind, n):
        spec = FeatureMapSpec(kind, n, reps=2)
        X = np.random.default_rng(n).uniform(0, math.pi, (5, n))
        batch = build_feature_map(spec, X)
        for r, x in enumerate(X):
            one = build_feature_map(spec, x)
            assert [(g.kind, g.qubits) for g in batch.gates] == [(g.kind, g.qubits) for g in one.gates]
            for gb, g1 in zip(batch.gates, one.gates):
                if g1.angle is None:
                    assert gb.angle is None
                else:
                    assert isinstance(gb.angle, np.ndarray) and gb.angle.shape == (5,)
                    assert gb.angle[r] == g1.angle  # exactly the float angle

    def test_batch_width_mismatch(self):
        with pytest.raises(ValidationError, match="expects 2 features"):
            build_feature_map(FeatureMapSpec("zz", 2), np.zeros((3, 3)))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValidationError):
            build_feature_map(FeatureMapSpec("zz", 2), np.zeros((2, 3, 2)))


class TestAnsatz:
    def test_figure_shape_two_qubits_one_rep(self):
        circ = build_ansatz(AnsatzSpec(2, reps=1))
        assert [g.kind for g in circ.gates] == ["ry", "ry", "cx", "ry", "ry"]
        assert [g.angle for g in circ.gates if g.kind == "ry"] == [0.0] * 4

    def test_zero_angles_act_as_cx_chain(self):
        circ = bind_ansatz(build_ansatz(AnsatzSpec(2, reps=1)), np.zeros(4))
        assert np.allclose(run(circ).amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_parameter_count_formula(self):
        assert AnsatzSpec(3, reps=2).n_parameters == 9
        assert sum(g.kind == "ry" for g in build_ansatz(AnsatzSpec(3, reps=2)).gates) == 9

    def test_bind_wrong_length_states_expected(self):
        circ = build_ansatz(AnsatzSpec(2, reps=1))
        with pytest.raises(ValidationError, match="4"):
            bind_ansatz(circ, [0.1, 0.2])

    def test_parameter_order_layer_major(self):
        circ = bind_ansatz(build_ansatz(AnsatzSpec(3, reps=2)), np.arange(9))
        ry = [g for g in circ.gates if g.kind == "ry"]
        assert [g.angle for g in ry] == [float(k) for k in range(9)]
        assert [g.qubits[0] for g in ry] == [0, 1, 2] * 3

    def test_bind_keeps_negative_zero(self):
        circ = bind_ansatz(build_ansatz(AnsatzSpec(2, reps=1)), [-0.0, 0.0, -0.0, 1.0])
        signs = [math.copysign(1.0, g.angle) for g in circ.gates if g.kind == "ry"]
        assert signs == [-1.0, 1.0, -1.0, 1.0]


class TestGateBound:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("reps", [1, 3])
    def test_gate_counts_match_built_circuits(self, n, reps):
        for kind in ("z", "zz"):
            spec = FeatureMapSpec(kind, n, reps)
            assert len(build_feature_map(spec, np.zeros(n)).gates) == spec.n_gates
        assert len(build_ansatz(AnsatzSpec(n, reps)).gates) == AnsatzSpec(n, reps).n_gates

    @pytest.mark.parametrize("n, zz_reps, z_reps, ansatz_reps",
                             [(2, 206, 361, 481), (20, 14, 36, 36)])
    def test_largest_reps_within_max_gates(self, n, zz_reps, z_reps, ansatz_reps):
        for make, reps in [(lambda r: FeatureMapSpec("zz", n, r), zz_reps),
                           (lambda r: FeatureMapSpec("z", n, r), z_reps),
                           (lambda r: AnsatzSpec(n, r), ansatz_reps)]:
            assert make(reps).n_gates <= MAX_GATES
            with pytest.raises(ValidationError, match=f"MAX_GATES = {MAX_GATES} gates"):
                make(reps + 1)

    def test_simplex_of_an_ansatz_at_max_gates_fits_one_state(self):
        # Every angle is one RY gate, so d <= MAX_GATES.
        assert (MAX_GATES + 1) * MAX_GATES * 8 <= 16 << 20 < (MAX_GATES + 2) * (MAX_GATES + 1) * 8

    def test_huge_reps_rejected_before_any_allocation(self):
        with pytest.raises(ValidationError, match="got 7696581394432"):
            FeatureMapSpec.from_dict({"kind": "zz", "n_qubits": 2, "reps": 2**40,
                                      "entanglement": "linear"})
        with pytest.raises(ValidationError, match="an ansatz has at most"):
            AnsatzSpec.from_dict({"n_qubits": 2, "reps": 2**40})


class TestCompose:
    def test_identity_on_empty(self):
        circ = build_feature_map(FeatureMapSpec("z", 2, reps=1), [0.5, 0.6])
        assert compose(Circuit(2), circ).gates == circ.gates

    def test_gate_count_adds(self):
        a = build_feature_map(FeatureMapSpec("zz", 2, reps=1), [0.1, 0.2])
        b = bind_ansatz(build_ansatz(AnsatzSpec(2, reps=1)), [0.3, 0.4, 0.5, 0.6])
        assert len(compose(a, b).gates) == len(a.gates) + len(b.gates)

    def test_run_compose_equals_sequential_application(self):
        rng = np.random.default_rng(4)
        fm = build_feature_map(FeatureMapSpec("zz", 2, reps=2), rng.uniform(0, math.pi, 2))
        ansatz = bind_ansatz(build_ansatz(AnsatzSpec(2, reps=1)), rng.uniform(-math.pi, math.pi, 4))
        composed = run(compose(fm, ansatz)).amplitudes
        staged = run(fm)
        for gate in ansatz.gates:
            staged = run(Circuit(2, (gate,)), staged)
        assert np.allclose(composed, staged.amplitudes, atol=1e-12)

    def test_qubit_mismatch(self):
        with pytest.raises(ValidationError):
            compose(Circuit(2), Circuit(3))
