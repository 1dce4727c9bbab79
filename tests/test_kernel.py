import io
import itertools
import json
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qtc import kernel as kernel_mod
from qtc.circuits import FeatureMapSpec, build_feature_map, compose
from qtc.errors import NumericalError, ParseError, ValidationError
from qtc.kernel import (
    _CSV_BLOCK_VALUES,
    GramMatrix,
    _csv_bytes,
    encoded_state,
    exact_kernel,
    gram,
    load_gram,
    psd_project,
    sampled_kernel,
    save_gram,
)
from qtc.qsim import adjoint, probabilities, run
from qtc.svm import PolyKernelSpec, poly_gram

Z1 = FeatureMapSpec("z", 1, reps=1)
ZZ2 = FeatureMapSpec("zz", 2, reps=2)


def dense_zz_state(x, reps=2):
    """Independent dense-matrix construction of the 2-qubit encoder state."""
    inv = 1 / math.sqrt(2)
    h = np.array([[1, 1], [1, -1]], dtype=complex) * inv
    eye = np.eye(2)

    def on_qubit(mat, q):  # little-endian: qubit 0 is the rightmost kron factor
        return np.kron(mat, eye) if q == 1 else np.kron(eye, mat)

    def p(theta):
        return np.diag([1.0, np.exp(1j * theta)])

    cx01 = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        j = i ^ 0b10 if i & 0b01 else i
        cx01[j, i] = 1.0

    state = np.array([1, 0, 0, 0], dtype=complex)
    for _ in range(reps):
        state = on_qubit(h, 0) @ state
        state = on_qubit(h, 1) @ state
        state = on_qubit(p(2 * x[0]), 0) @ state
        state = on_qubit(p(2 * x[1]), 1) @ state
        state = cx01 @ state
        state = on_qubit(p(2 * (math.pi - x[0]) * (math.pi - x[1])), 1) @ state
        state = cx01 @ state
    return state


class TestExactKernel:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(0, math.pi, 2)
            assert exact_kernel(ZZ2, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_on_z_map(self):
        assert exact_kernel(Z1, [0.0], [math.pi / 2]) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_law_cos_squared(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x, y = rng.uniform(-2, 2, 2)
            k = exact_kernel(Z1, [x], [y])
            worst = max(worst, abs(k - math.cos(x - y) ** 2))
        assert worst <= 1e-10

    def test_zz_pair_against_dense_oracle(self):
        x, y = np.array([0.5, 1.0]), np.array([1.5, 0.2])
        oracle = abs(np.vdot(dense_zz_state(y), dense_zz_state(x))) ** 2
        assert exact_kernel(ZZ2, x, y) == pytest.approx(oracle, abs=1e-10)
        # frozen from the pre-build oracle run
        assert oracle == pytest.approx(0.45915641270282065, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.uniform(0, math.pi, (2, 2))
            assert exact_kernel(ZZ2, x, y) == pytest.approx(
                exact_kernel(ZZ2, y, x), abs=1e-12
            )

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = rng.uniform(-1, 4, (2, 2))
            k = exact_kernel(ZZ2, x, y)
            assert -1e-12 <= k <= 1 + 1e-12


class TestSampledKernel:
    def test_self_kernel_exact_one(self):
        x = np.array([0.7, 2.1])
        assert sampled_kernel(ZZ2, x, x, shots=200, seed=5) == 1.0

    def test_deterministic(self):
        x, y = np.array([0.5, 1.0]), np.array([1.5, 0.2])
        a = sampled_kernel(ZZ2, x, y, shots=1000, seed=17)
        b = sampled_kernel(ZZ2, x, y, shots=1000, seed=17)
        assert a == b

    def test_binomial_deviation_bound(self):
        rng = np.random.default_rng(11)
        shots = 10**5
        for trial in range(20):
            x, y = rng.uniform(0, math.pi, (2, 2))
            p = exact_kernel(ZZ2, x, y)
            estimate = sampled_kernel(ZZ2, x, y, shots=shots, seed=(100, trial))
            bound = 5 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(estimate - p) <= bound

    def test_max_deviation_shrinks_with_shots(self):
        rng = np.random.default_rng(12)
        pairs = rng.uniform(0, math.pi, (20, 2, 2))
        exact = [exact_kernel(ZZ2, x, y) for x, y in pairs]
        deviations = []
        for shots in (10**2, 10**3, 10**4, 10**5):
            worst = max(
                abs(sampled_kernel(ZZ2, x, y, shots=shots, seed=(shots, i)) - exact[i])
                for i, (x, y) in enumerate(pairs)
            )
            deviations.append(worst)
        assert all(a >= b for a, b in zip(deviations, deviations[1:]))


class TestGram:
    def test_single_point(self):
        g = gram(ZZ2, np.array([[0.4, 0.9]]))
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 1.0

    def test_exact_square_properties(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, math.pi, (10, 2))
        g = gram(ZZ2, X)
        assert np.array_equal(g.values, g.values.T)
        assert np.allclose(np.diag(g.values), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(g.values).min() >= -1e-10

    def test_cross_shape(self):
        rng = np.random.default_rng(22)
        g = gram(ZZ2, rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (3, 2)))
        assert g.values.shape == (5, 3)

    def test_cross_matches_pointwise(self):
        rng = np.random.default_rng(23)
        X, Y = rng.uniform(0, math.pi, (4, 2)), rng.uniform(0, math.pi, (3, 2))
        g = gram(ZZ2, X, Y)
        for i in range(4):
            for j in range(3):
                assert g.values[i, j] == pytest.approx(
                    exact_kernel(ZZ2, X[i], Y[j]), abs=1e-12
                )

    def test_sampled_square_deterministic_and_symmetric(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(0, math.pi, (4, 2))
        g1 = gram(ZZ2, X, shots=256, seed=9)
        g2 = gram(ZZ2, X, shots=256, seed=9)
        assert np.array_equal(g1.values, g2.values)
        assert np.array_equal(g1.values, g1.values.T)

    def test_zero_shots_is_exact_bitwise(self):
        rng = np.random.default_rng(25)
        X, Y = rng.uniform(0, math.pi, (6, 2)), rng.uniform(0, math.pi, (4, 2))
        for args in ((X,), (X, Y)):
            g = gram(ZZ2, *args, shots=0, seed=9)
            assert (g.mode, g.shots, g.seed) == ("exact", None, None)
            assert g.values.tobytes() == gram(ZZ2, *args).values.tobytes()


def bitwise_symmetric(K) -> bool:
    return K.ndim == 2 and K.shape[0] == K.shape[1] and np.array_equal(
        K.view(np.uint64), K.T.view(np.uint64))


@pytest.mark.parametrize("rows", [1, 2, 7, 65, 300])
@pytest.mark.parametrize("build", ["poly", "exact", "sampled", "psd_project"])
def test_square_grams_are_bitwise_symmetric(build, rows):
    """The SVM solver reads Gram rows as columns, so every square Gram qtc
    builds must equal its transpose bit for bit."""
    X = np.random.default_rng(rows).uniform(0, math.pi, (rows, 2))
    if build == "poly":
        K = poly_gram(X, spec=PolyKernelSpec(degree=3, gamma=0.7, coef0=0.3))
    elif build == "psd_project":
        sampled = gram(ZZ2, X, shots=16, seed=3)
        K = psd_project(sampled).values
    else:
        K = gram(ZZ2, X, shots=16 if build == "sampled" else 0, seed=3).values
    assert bitwise_symmetric(K)


def _traced_peak(call) -> int:
    """Bytes traced at the peak of ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


GRAM_ROWS = 600


@pytest.mark.parametrize("build, bytes_per_entry", [("gram", 24), ("load_gram", 8),
                                                    ("poly_gram", 8)])
def test_gram_memory_shape(build, bytes_per_entry, tmp_path):
    """The complex overlap plus K in gram, K alone in load_gram and poly_gram:
    no other Gram-sized array is allocated."""
    X = np.random.default_rng(600).uniform(0, math.pi, (GRAM_ROWS, 2))
    save_gram(tmp_path, gram(ZZ2, X), data_hash="h")
    calls = {
        "gram": lambda: gram(ZZ2, X),
        "load_gram": lambda: load_gram(tmp_path),
        "poly_gram": lambda: poly_gram(X, spec=PolyKernelSpec(degree=3, gamma=0.7, coef0=0.3)),
    }
    assert _traced_peak(calls[build]) <= bytes_per_entry * GRAM_ROWS**2 + (1 << 20)


@pytest.mark.parametrize("qubits, rows, block_rows", [(2, 1000, None), (12, 96, 48)],
                         ids=["2_qubits_default_blocks", "12_qubits_48_row_blocks"])
def test_gram_peak_is_states_gram_and_one_block(monkeypatch, qubits, rows, block_rows):
    """gram holds the encoded states, K, and one row block's conjugated states
    and complex overlap: no other Gram- or batch-sized array."""
    if block_rows:
        monkeypatch.setattr(kernel_mod, "_GRAM_BLOCK_BYTES", block_rows * rows * 16)
    blocks = kernel_mod._row_blocks(rows, rows * 16)
    block = max(end - start for start, end in blocks)
    assert len(blocks) == 2 and block == (block_rows or 524)
    spec = FeatureMapSpec("zz", qubits, reps=2)
    X = np.random.default_rng(602).uniform(0, math.pi, (rows, qubits))
    bound = 16 * rows * 2**qubits + 8 * rows**2 + 16 * block * (2**qubits + rows)
    assert _traced_peak(lambda: gram(spec, X)) <= bound + (1 << 18)


class TestRowBlocks:
    @pytest.mark.parametrize("rows", range(1, 40))
    @pytest.mark.parametrize("step", [2, 3, 5, 8])
    def test_blocks_cover_rows_without_a_one_row_block(self, monkeypatch, rows, step):
        monkeypatch.setattr(kernel_mod, "_GRAM_BLOCK_BYTES", step * 16)
        blocks = kernel_mod._row_blocks(rows, 16)
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(end == start for (_, end), (start, _) in zip(blocks, blocks[1:]))
        sizes = [end - start for start, end in blocks]
        assert max(sizes) <= step + 1
        assert min(sizes) >= 2 or rows == 1

    @pytest.mark.parametrize("rows", [9, 17, 33])
    @pytest.mark.parametrize("qubits", [2, 6])
    def test_blocked_gram_equals_one_matmul_bitwise(self, monkeypatch, rows, qubits):
        """Blocks of 4 rows, the last one 5, against one matmul over all rows."""
        spec = FeatureMapSpec("zz", qubits, reps=2)
        rng = np.random.default_rng(rows + qubits)
        X, Y = rng.uniform(0, math.pi, (rows, qubits)), rng.uniform(0, math.pi, (7, qubits))
        whole = {"square": gram(spec, X).values, "rectangular": gram(spec, X, Y).values}
        monkeypatch.setattr(kernel_mod, "_GRAM_BLOCK_BYTES", 4 * 16 * rows)
        assert gram(spec, X).values.tobytes() == whole["square"].tobytes()
        monkeypatch.setattr(kernel_mod, "_GRAM_BLOCK_BYTES", 4 * 16 * 7)
        assert gram(spec, X, Y).values.tobytes() == whole["rectangular"].tobytes()
        SX, SY = encoded_state(spec, X), encoded_state(spec, Y)
        assert np.array_equal(whole["rectangular"], np.abs(SX.conj() @ SY.T) ** 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shots", [0, 16])
    def test_non_finite_state_raises_numerical_error(self, monkeypatch, bad, shots):
        X = np.random.default_rng(603).uniform(0, math.pi, (9, 2))
        states = encoded_state(ZZ2, X)
        states[6, 1] = bad
        monkeypatch.setattr(kernel_mod, "_GRAM_BLOCK_BYTES", 4 * 16 * 9)
        monkeypatch.setattr(kernel_mod, "encoded_state", lambda spec, x: states[:len(x)])
        # Row 6 enters every row through column 6, so the first block fails.  inf
        # times a zero amplitude is NaN: NumPy warns, and gram raises.
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="Gram rows 0 to 3 hold a non-finite value"):
            gram(ZZ2, X, shots=shots, seed=1)


class TestPsdProject:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, math.pi, (6, 2))
        g = gram(ZZ2, X)
        out = psd_project(g)
        assert np.allclose(out.values, g.values, atol=1e-10)

    def test_repairs_indefinite_matrix(self):
        g = GramMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), "sampled", ZZ2, 100, 0)
        out = psd_project(g)
        assert np.linalg.eigvalsh(out.values).min() >= -1e-12

    def test_output_exactly_symmetric(self):
        g = GramMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), "sampled", ZZ2, 100, 0)
        out = psd_project(g)
        assert np.array_equal(out.values, out.values.T)

    def test_closer_than_diagonal_shift(self):
        values = np.array([[1.0, 1.2], [1.2, 1.0]])
        g = GramMatrix(values, "sampled", ZZ2, 100, 0)
        clipped = psd_project(g).values
        shift = values - np.linalg.eigvalsh(values).min() * np.eye(2)
        assert np.linalg.norm(clipped - values) <= np.linalg.norm(shift - values) + 1e-12


MISSING = object()


def npy_bytes(array, version=(1, 0)):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version)
    return buf.getvalue()


class TestGramPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        X = rng.uniform(0, math.pi, (5, 2))
        g = gram(ZZ2, X)
        save_gram(tmp_path, g, data_hash="abc123")
        back, manifest = load_gram(tmp_path)
        assert np.allclose(back.values, g.values, atol=0)
        assert back.mode == "exact"
        assert back.feature_map == ZZ2
        assert manifest["data_hash"] == "abc123"

    @pytest.mark.parametrize(
        "field, value",
        [("shape", MISSING), ("mode", MISSING), ("feature_map", MISSING), ("shots", MISSING),
         ("seed", MISSING), ("shape", "5x5"), ("mode", 1), ("feature_map", [1]),
         ("feature_map", {"kind": "zz"}), ("shots", "many"), ("seed", 1.5), ("seed", True),
         # An exact Gram's manifest: a mode its shots and seed contradict.
         ("mode", "sampled"), ("mode", "noisy"), ("shots", 64), ("seed", 5)],
    )
    def test_damaged_manifest_raises_parse_error(self, tmp_path, field, value):
        save_gram(tmp_path, gram(ZZ2, np.zeros((2, 2))), data_hash="abc123")
        path = tmp_path / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        if value is MISSING:
            del manifest[field]
        else:
            manifest[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=field):
            load_gram(tmp_path)

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        values = np.random.default_rng(42).uniform(-1, 1, (4, 3))
        values[0, 0] = 1.0
        values[1, 1] = 1e-300
        save_gram(tmp_path, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        expected = "".join(",".join(f"{v:.16e}" for v in row) + "\n" for row in values)
        assert (tmp_path / "gram.csv").read_text(encoding="utf-8") == expected
        back, _ = load_gram(tmp_path)
        assert np.array_equal(back.values, values)

    def test_rewrite_writes_the_same_bytes(self, tmp_path):
        """A second save of one Gram into one directory writes the same bytes."""
        g = GramMatrix(np.random.default_rng(44).uniform(0, 1, (40, 40)), "exact", ZZ2)
        save_gram(tmp_path, g, data_hash="abc123")
        names = ("gram.npy", "gram.csv", "gram.manifest.json")
        first = {name: (tmp_path / name).read_bytes() for name in names}
        save_gram(tmp_path, g, data_hash="abc123")
        assert {name: (tmp_path / name).read_bytes() for name in names} == first

    @pytest.mark.parametrize(
        "damage",
        [
            lambda good: b"",
            lambda good: b"1,0.5\n0.5,1\n",
            lambda good: good[:-1],
            lambda good: good + bytes(8),
            lambda good: npy_bytes(np.array([[1, 0], [0, 1]], dtype="<i8")),
            lambda good: npy_bytes(np.eye(2, dtype=">f8")),
            lambda good: npy_bytes(np.asfortranarray([[1.0, 0.25], [0.5, 1.0]])),
            lambda good: npy_bytes(np.ones((4, 1))),
            lambda good: npy_bytes(np.eye(2), version=(2, 0)),
        ],
        ids=["empty_file", "not_npy", "truncated", "extra_bytes", "int_dtype", "big_endian",
             "fortran_order", "header_shape", "version_2_0"],
    )
    def test_damaged_npy_raises_parse_error(self, tmp_path, damage):
        save_gram(tmp_path, gram(ZZ2, np.zeros((2, 2))), data_hash="abc123")
        path = tmp_path / "gram.npy"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ParseError, match="gram.npy"):
            load_gram(tmp_path)

    @pytest.mark.parametrize("entry", [(0, 1), (3, 1), (4, 0)])
    def test_asymmetric_square_npy_raises_parse_error(self, tmp_path, entry):
        save_gram(tmp_path, gram(ZZ2, np.random.default_rng(43).uniform(0, 1, (5, 2))),
                  data_hash="abc123")
        path = tmp_path / "gram.npy"
        values = np.load(path)
        values[entry] = np.nextafter(values[entry], 2.0)
        path.write_bytes(npy_bytes(values))
        with pytest.raises(ParseError, match="gram.npy: square but not symmetric"):
            load_gram(tmp_path)

    def test_signed_zero_breaks_bitwise_symmetry(self, tmp_path):
        values = np.zeros((3, 3))
        values[2, 0] = -0.0
        save_gram(tmp_path, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        with pytest.raises(ParseError, match="not symmetric"):
            load_gram(tmp_path)

    def test_missing_npy_raises_os_error(self, tmp_path):
        save_gram(tmp_path, gram(ZZ2, np.zeros((2, 2))), data_hash="abc123")
        (tmp_path / "gram.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_gram(tmp_path)

    def test_npy_bytes_are_version_1_0_little_endian_c_order(self, tmp_path):
        values = np.random.default_rng(47).uniform(0, 1, (3, 4))
        save_gram(tmp_path, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        assert (tmp_path / "gram.npy").read_bytes() == npy_bytes(values)

    @pytest.mark.parametrize("shape", [[2], [2, 2, 1], [2, -2], [2, 2.0], [2, True]])
    def test_manifest_shape_not_two_counts_raises_parse_error(self, tmp_path, shape):
        save_gram(tmp_path, gram(ZZ2, np.zeros((2, 2))), data_hash="abc123")
        path = tmp_path / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shape"] = shape
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="shape"):
            load_gram(tmp_path)

    def test_manifest_shape_larger_than_file_raises_before_allocating(self, tmp_path):
        save_gram(tmp_path, gram(ZZ2, np.zeros((2, 2))), data_hash="abc123")
        path = tmp_path / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shape"] = [10**9, 10**9]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="too short"):
            load_gram(tmp_path)


finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-300, 5e-324, 2.2250738585072009e-308]),
)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=finite_values))
def test_property_save_load_round_trip_bitwise(values):
    """A Gram reads back bit for bit.  A square one must be bitwise symmetric,
    so a square draw is mirrored from its upper triangle first, and the draw
    as it was is rejected unless it was symmetric already."""
    rows, cols = values.shape
    drawn = values
    if rows == cols:
        values = drawn.copy()
        lower = np.tril_indices(rows, -1)
        values[lower] = drawn.T[lower]
    with tempfile.TemporaryDirectory() as directory:
        if rows == cols:
            save_gram(directory, GramMatrix(drawn, "exact", ZZ2), data_hash="abc123")
            if drawn.tobytes() == values.tobytes():
                load_gram(directory)
            else:
                with pytest.raises(ParseError, match="not symmetric"):
                    load_gram(directory)
        save_gram(directory, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        back, _ = load_gram(directory)
        exported = np.loadtxt(os.path.join(directory, "gram.csv"), delimiter=",", ndmin=2)
    assert back.values.tobytes() == values.tobytes()
    assert exported.shape == values.shape
    assert exported.tobytes() == values.tobytes()


def per_value_csv(values) -> bytes:
    """The reference gram.csv bytes: one "%.16e" per value."""
    return "".join(",".join("%.16e" % v for v in row) + "\n"
                   for row in np.asarray(values).tolist()).encode("ascii")


def written_csv(values) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        save_gram(directory, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        with open(os.path.join(directory, "gram.csv"), "rb") as fh:
            return fh.read()


def rounding_ties(count=30):
    """Doubles exactly halfway between two 17-digit decimals: odd / 2**s in
    [10**(17 - s), 10**(18 - s)) has s decimals, 18 significant digits and a
    last digit 5."""
    ties = []
    for s in (18, 19, 20, 21):
        first = math.ceil(10.0 ** (17 - s) * 2**s) | 1
        ties += [(first + 2 * k) / 2.0**s for k in range(count)]
    return ties


def neighbours(x, steps=40):
    """x and its ``steps`` nearest doubles on each side."""
    out = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, toward)
            out.append(y)
    return out


class TestCsvEncoder:
    """The block encoder against per-value "%.16e"."""

    @pytest.mark.parametrize("values", [
        [10.0**-k for k in range(6)] + [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0],
        [2.0**-k for k in range(1075)],
        neighbours(1e-4) + neighbours(1.0),
        neighbours(1e-3) + neighbours(1e-2) + neighbours(0.1),
        rounding_ties(),
        [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.nan, math.inf, -math.inf, 5e-324,
         2.2250738585072009e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
         0.099999999999999992, 0.99999999999999989, 0.12345678901234567, 1e-16, 123.25],
        # The diagonal's rounding, 3-digit exponents and a negative zero.
        [1.0000000000000004, 1e-100, 1e-300, -0.0, 0.5],
    ], ids=["powers_of_ten", "powers_of_two", "fast_range_ends", "decade_ends", "ties",
         "specials", "record_lengths"])
    def test_fixed_values(self, values):
        """Each list as a column and as a row, and again without the values
        whose string is not 22 bytes: one of those sends its whole block to
        per-value formatting."""
        records = [v for v in values if len("%.16e" % v) == 22]
        for kept in (values, records):
            column = np.array(kept, dtype=float).reshape(-1, 1)
            assert _csv_bytes(column).tobytes() == per_value_csv(column)
            assert _csv_bytes(column.T).tobytes() == per_value_csv(column.T)

    def test_exact_zz_gram_300(self):
        X = np.random.default_rng(48).uniform(0, 2 * math.pi, (300, 2))
        K = gram(ZZ2, X).values
        text = written_csv(K)
        assert text == per_value_csv(K)
        # The format is numpy.savetxt's with fmt="%.16e" and delimiter=",".
        buffer = io.BytesIO()
        np.savetxt(buffer, K, fmt="%.16e", delimiter=",")
        assert text == buffer.getvalue()

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, _CSV_BLOCK_VALUES + 3), (2 * _CSV_BLOCK_VALUES + 5, 1),
        (3 * (_CSV_BLOCK_VALUES // 1000) + 1, 1000), (0, 0), (0, 4), (3, 0),
    ])
    def test_shapes_across_block_boundaries(self, shape):
        values = np.random.default_rng(49).uniform(0, 1, shape)
        values[values < 0.01] = 0.0  # fallback values scattered through the blocks
        assert written_csv(values) == per_value_csv(values)

    def test_leaves_no_numpy_warning(self):
        values = np.array([[math.nan, math.inf, -math.inf, 0.0, 5e-324, 1.7976931348623157e308]])
        with np.errstate(all="raise"):
            assert _csv_bytes(values).tobytes() == per_value_csv(values)


any_double = st.one_of(
    st.floats(),
    st.floats(min_value=1e-4, max_value=1.0),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, math.nan, math.inf, -math.inf]),
)


# Doubles whose "%.16e" string is 22 bytes.  A block of any_double almost
# always holds another one, which sends the whole block to per-value
# formatting; a block of these is encoded as records.
record_double = st.one_of(
    st.floats(min_value=1e-99, max_value=9e99),
    st.floats(min_value=1e-4, max_value=1.0),
    st.sampled_from([0.0, 1.0, 1.0000000000000004]),
)


def double_arrays(elements):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=elements)


@settings(max_examples=400, deadline=None)
@given(st.one_of(double_arrays(any_double), double_arrays(record_double)))
def test_property_csv_encoder_matches_per_value_format(values):
    assert _csv_bytes(values).tobytes() == per_value_csv(values)


def savetxt_csv(values) -> bytes:
    buffer = io.BytesIO()
    np.savetxt(buffer, values, fmt="%.16e", delimiter=",")
    return buffer.getvalue()


class TestCsvWorkers:
    """gram.csv written by 1, 2 and 3 encoding threads."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shape", [
        (2 * _CSV_BLOCK_VALUES + 5, 1),  # 3 blocks, the last one partial
        (16 * 9 + 5, 1000),  # 10 blocks of 16 rows, more than 2 x 3 in flight
        (7, _CSV_BLOCK_VALUES + 3),  # 7 one-row blocks
    ], ids=["column", "many_blocks", "wide_rows"])
    def test_bytes_equal_savetxt(self, monkeypatch, workers, shape):
        monkeypatch.setattr(kernel_mod, "_cpu_count", lambda: workers)
        threads, buffers, records = set(), set(), set()

        def encode(block, scratch=None, out=None):
            threads.add(threading.current_thread().name)
            buffers.add(scratch.ctypes.data)
            records.add(out.ctypes.data)
            return _csv_bytes(block, scratch, out)

        monkeypatch.setattr(kernel_mod, "_csv_bytes", encode)
        values = np.random.default_rng(50).uniform(-0.01, 1, shape)
        values[values < 0] = 0.0  # fallback values scattered through the blocks
        values[0, 0] = 1.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent thread switches, to expose a row reused in flight
        try:
            written = written_csv(values)
        finally:
            sys.setswitchinterval(interval)
        assert written == savetxt_csv(values)
        assert len(threads) <= workers and len(buffers) <= workers
        assert len(records) <= 2 * workers
        assert all(name.startswith("gram-csv") for name in threads)

    def test_failing_block_stops_the_pool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernel_mod, "_cpu_count", lambda: 2)
        failure = RuntimeError("block 3 failed")
        numbers, calls = itertools.count(1), []

        def encode(block, scratch=None, out=None):
            call = next(numbers)  # one C call: atomic across threads
            calls.append(call)
            if call == 3:
                raise failure
            if call > 3:
                time.sleep(1.0)  # both threads stay busy while the failure reaches the caller
            return _csv_bytes(block, scratch, out)

        monkeypatch.setattr(kernel_mod, "_csv_bytes", encode)
        values = np.random.default_rng(51).uniform(0, 1, (20 * 16, 1000))  # 20 blocks
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            save_gram(tmp_path, GramMatrix(values, "exact", ZZ2), data_hash="abc123")
        assert raised.value is failure
        # Six blocks were submitted: 2 x 2 in flight, plus one for each of the
        # two blocks written.  No thread was free for the sixth before the
        # failure reached the caller, so it was cancelled and never ran.
        assert len(calls) <= 5
        assert threading.active_count() == before
        assert not (tmp_path / "gram.manifest.json").exists()


def test_csv_writer_memory_bound(monkeypatch, tmp_path):
    """One scratch buffer per thread, plus one record buffer per block in
    flight (2 per thread)."""
    monkeypatch.setattr(kernel_mod, "_cpu_count", lambda: 2)
    X = np.random.default_rng(601).uniform(0, math.pi, (GRAM_ROWS, 2))
    g = gram(ZZ2, X)
    workers, block = 2, _CSV_BLOCK_VALUES // GRAM_ROWS * GRAM_ROWS
    bound = (workers * block * kernel_mod._SCRATCH_BYTES_PER_VALUE
             + 2 * workers * block * kernel_mod._RECORD_BYTES + (1 << 20))
    assert _traced_peak(lambda: save_gram(tmp_path, g, data_hash="h")) <= bound


class TestBatchedEncoding:
    def test_rows_equal_single_point_states_bitwise(self):
        X = np.random.default_rng(43).uniform(0, math.pi, (7, 2))
        batch = encoded_state(ZZ2, X)
        for r, x in enumerate(X):
            assert np.array_equal(batch[r].view(float), encoded_state(ZZ2, x).view(float))

    def test_gram_equals_gram_of_single_point_states(self):
        rng = np.random.default_rng(44)
        X, Y = rng.uniform(0, math.pi, (6, 2)), rng.uniform(0, math.pi, (4, 2))
        SX = np.array([encoded_state(ZZ2, x) for x in X])
        SY = np.array([encoded_state(ZZ2, y) for y in Y])
        assert np.array_equal(gram(ZZ2, X, Y).values, np.abs(SX.conj() @ SY.T) ** 2)

    def test_square_gram_mirrors_upper_triangle(self):
        X = np.random.default_rng(46).uniform(0, math.pi, (9, 2))
        S = np.array([encoded_state(ZZ2, x) for x in X])
        expected = np.abs(S.conj() @ S.T) ** 2
        iu = np.triu_indices(len(X), k=1)
        expected[(iu[1], iu[0])] = expected[iu]
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(gram(ZZ2, X).values, expected)


# exact_kernel(x, x) rounds to 1.0000000000000004 on this map at this point.
CLIPPED = (FeatureMapSpec("z", 1, 2), np.array([1.9752575885864168]))


class TestSampledGram:
    """Sampled mode draws each kernel entry from Binomial(shots, K) / shots."""

    @pytest.mark.parametrize("kind", ["z", "zz"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_zeros_probability_of_compute_uncompute_is_the_kernel(self, kind, n):
        spec = FeatureMapSpec(kind, n, reps=2)
        rng = np.random.default_rng(50 + n)
        for x, y in rng.uniform(-1, 4, (5, 2, n)):
            circ = compose(build_feature_map(spec, x), adjoint(build_feature_map(spec, y)))
            p0 = probabilities(run(circ))[0]
            assert abs(p0 - exact_kernel(spec, x, y)) <= 1e-12

    def test_overlap_rounded_above_one_is_clipped(self):
        spec, x = CLIPPED
        assert exact_kernel(spec, x, x) > 1.0
        assert sampled_kernel(spec, x, x, shots=16, seed=3) == 1.0
        g = gram(spec, np.array([[0.2], x]), x[None], shots=16, seed=3)
        assert g.values[1, 0] == 1.0

    def test_square_diagonal_one_and_entries_on_the_shot_grid(self):
        X = np.random.default_rng(51).uniform(0, math.pi, (12, 2))
        shots = 64
        K = gram(ZZ2, X, shots=shots, seed=4).values
        assert np.all(np.diag(K) == 1.0)
        assert np.array_equal(K, K.T)
        assert np.all((K >= 0) & (K <= 1))
        assert np.array_equal(K * shots, np.round(K * shots))

    def test_rows_are_binomial_draws_seeded_by_row(self):
        rng = np.random.default_rng(52)
        X, Y = rng.uniform(0, math.pi, (5, 2)), rng.uniform(0, math.pi, (7, 2))
        exact = gram(ZZ2, X, Y).values
        sampled = gram(ZZ2, X, Y, shots=100, seed=6).values
        for i in range(len(X)):
            draw = np.random.default_rng((6, i)).binomial(100, np.minimum(exact[i], 1.0)) / 100
            assert np.array_equal(sampled[i], draw)

    def test_entries_within_five_sigma_of_exact(self):
        rng = np.random.default_rng(53)
        X, Y = rng.uniform(0, math.pi, (8, 2)), rng.uniform(0, math.pi, (6, 2))
        shots = 10**5
        for exact, sampled in ((gram(ZZ2, X), gram(ZZ2, X, shots=shots, seed=7)),
                               (gram(ZZ2, X, Y), gram(ZZ2, X, Y, shots=shots, seed=7))):
            p = exact.values
            bound = 5 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / shots)
            assert np.all(np.abs(sampled.values - p) <= bound)

    @pytest.mark.parametrize("rectangular, runs", [(False, 1), (True, 2)])
    def test_as_many_simulator_runs_as_exact_mode(self, monkeypatch, rectangular, runs):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "run", counted)
        rng = np.random.default_rng(54)
        X = rng.uniform(0, math.pi, (6, 2))
        Y = rng.uniform(0, math.pi, (4, 2)) if rectangular else None
        for shots in (0, 32):
            calls.clear()
            gram(ZZ2, X, Y, shots=shots, seed=1)
            assert len(calls) == runs, shots

    @pytest.mark.parametrize("shots, seed", [(-3, 1), (16, -1)])
    def test_shots_below_one_or_negative_seed_rejected(self, shots, seed):
        with pytest.raises(ValidationError):
            gram(ZZ2, np.zeros((2, 2)), shots=shots, seed=seed)

    def test_shots_above_max_rejected(self):
        with pytest.raises(ValidationError, match="shots must be <="):
            gram(ZZ2, np.zeros((2, 2)), shots=2**63, seed=1)
