import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtc

from qtc import corpus as corpus_mod
from qtc import kernel as kernel_mod
from qtc.circuits import MAX_GATES, AnsatzSpec, FeatureMapSpec
from qtc.cli import OPTIONS, main
from qtc.corpus import (
    Document, FeatureMatrix, encode_labels, fit_tfidf, load_stage, save_stage, transform_tfidf,
)
from qtc.errors import ValidationError
from qtc.qsim import MAX_QUBITS
from qtc.reduce import fit_pca, transform_pca
from qtc.svm import MulticlassSvm, decision, predict_multiclass, train_multiclass


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def tiny_kmeans(X, k, seed=0, iters=50):
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(len(X), k, replace=False)]
    assign = np.zeros(len(X), dtype=int)
    for _ in range(iters):
        dists = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        for c in range(k):
            if np.any(assign == c):
                centers[c] = X[assign == c].mean(axis=0)
    return assign


class TestSynth:
    def test_row_counts(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert run_cli("synth", "--classes", 3, "--per-class", 40, "--out", out) == 0
        rows = read_rows(out)
        assert len(rows) == 120
        labels = [r["Category"] for r in rows]
        assert all(labels.count(lab) == 40 for lab in set(labels))

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--seed", 77, "--out", a)
        run_cli("synth", "--seed", 77, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_clusters_visible_after_reduction(self, tmp_path):
        out = tmp_path / "corpus.csv"
        run_cli("synth", "--seed", 13, "--out", out)
        rows = read_rows(out)
        docs = [Document(r["ID"], r["Resume_str"], r["Category"]) for r in rows]
        model = fit_tfidf(docs, 20)
        feats = transform_tfidf(model, docs)
        reduced = transform_pca(fit_pca(feats, 2), feats)
        _, labels = encode_labels(docs)
        assign = tiny_kmeans(reduced.values, 3, seed=1)
        purity = sum(
            np.bincount(labels[assign == c]).max() for c in range(3) if np.any(assign == c)
        ) / len(labels)
        assert purity >= 0.8


@pytest.fixture()
def pipeline_dir(tmp_path):
    corpus = tmp_path / "corpus.csv"
    work = tmp_path / "work"
    assert run_cli("synth", "--out", corpus) == 0
    assert run_cli("preprocess", "--corpus", corpus, "--workdir", work) == 0
    assert run_cli("reduce", "--workdir", work) == 0
    return work


class TestPipeline:
    def test_full_qsvc_pipeline_writes_artifacts(self, pipeline_dir):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert run_cli("evaluate", "--workdir", pipeline_dir) == 0
        for name in (
            "tfidf/features.csv",
            "tfidf/manifest.json",
            "reduce/features.csv",
            "reduce/manifest.json",
            "gram.csv",
            "gram.manifest.json",
            "model.json",
            "report.json",
            "report.txt",
        ):
            assert (pipeline_dir / name).exists(), name

    def test_vqc_curve_has_budget_rows(self, pipeline_dir):
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "vqc", "--iters", 30) == 0
        lines = [
            l
            for l in (pipeline_dir / "curve.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0] == "evaluation_index,objective,best_so_far"
        data = [l.split(",") for l in lines[1:]]
        assert len(data) == 30
        best = [float(r[2]) for r in data]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        model = json.loads((pipeline_dir / "model.json").read_text())
        assert (model["stop"], model["evaluations"], model["converged"]) == ("budget", 30, False)
        assert model["final_loss"] == best[-1]

    def test_report_rows_present(self, pipeline_dir, capsys):
        run_cli("train", "--workdir", pipeline_dir, "--model", "svc")
        run_cli("evaluate", "--workdir", pipeline_dir)
        text = (pipeline_dir / "report.txt").read_text()
        for row in ("accuracy", "macro avg", "weighted avg"):
            assert row in text

    def test_svc_and_qsvc_models_serializable(self, pipeline_dir):
        for model in ("svc", "qsvc"):
            run_cli("train", "--workdir", pipeline_dir, "--model", model)
            payload = json.loads((pipeline_dir / "model.json").read_text())
            assert payload["type"] == model
            assert len(payload["per_class"]) == 3
            assert all("support_ids" in entry for entry in payload["per_class"])

    def test_stage_skipping_blocked(self, tmp_path, capsys):
        work = tmp_path / "empty"
        assert run_cli("reduce", "--workdir", work) == 1
        assert "manifest" in capsys.readouterr().err

    def test_stale_model_rejected(self, pipeline_dir, tmp_path):
        run_cli("train", "--workdir", pipeline_dir, "--model", "svc")
        model = json.loads((pipeline_dir / "model.json").read_text())
        model["upstream_hash"] = "0" * 64
        (pipeline_dir / "model.json").write_text(json.dumps(model))
        assert run_cli("evaluate", "--workdir", pipeline_dir) == 1

    def test_wrong_stage_direction(self, pipeline_dir):
        # pointing evaluate at a workdir whose reduce stage was removed
        os.rename(pipeline_dir / "reduce", pipeline_dir / "reduce_gone")
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "svc") == 1

    def test_sampled_mode_end_to_end(self, tmp_path):
        corpus = tmp_path / "c.csv"
        work = tmp_path / "w"
        assert run_cli("synth", "--per-class", 8, "--out", corpus) == 0
        assert run_cli("preprocess", "--corpus", corpus, "--workdir", work) == 0
        assert run_cli("reduce", "--workdir", work) == 0
        assert run_cli("train", "--workdir", work, "--model", "qsvc", "--shots", 128) == 0
        assert run_cli("evaluate", "--workdir", work) == 0
        manifest = json.loads((work / "gram.manifest.json").read_text())
        assert manifest["mode"] == "sampled" and manifest["shots"] == 128
        assert run_cli("train", "--workdir", work, "--model", "vqc",
                       "--shots", 64, "--iters", 12) == 0
        assert run_cli("evaluate", "--workdir", work) == 0

    def test_sampled_qsvc_trains_on_the_gram_it_measured(self, pipeline_dir, capsys):
        stage = load_stage(pipeline_dir / "reduce", expect_stage="reduce")
        ids = stage.split.train_ids
        pos = {d: i for i, d in enumerate(stage.features.ids)}
        y = stage.labels[[pos[d] for d in ids]]
        assert run_cli("kernel", "--workdir", pipeline_dir, "--shots", 64) == 0
        G = kernel_mod.load_gram(pipeline_dir)[0].values
        assert np.linalg.eigvalsh(G).min() < -1e-3  # 64 shots leave the Gram indefinite
        expected = train_multiclass(G, y, C=1.0, tol=1e-3).to_dict(ids)
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", "--shots", 64) == 0
        assert "gram cache: hit\n" in capsys.readouterr().out
        model = json.loads((pipeline_dir / "model.json").read_text())
        assert len(model["per_class"]) == len(expected["per_class"])
        for got, want in zip(model["per_class"], expected["per_class"]):
            for key in ("support_ids", "dual_coefs", "bias"):
                assert got[key] == want[key]
        # A cache miss trains on the Gram it rebuilds, which is the same Gram.
        hit = (pipeline_dir / "model.json").read_bytes()
        (pipeline_dir / "gram.manifest.json").unlink()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", "--shots", 64) == 0
        assert "gram cache: miss" in capsys.readouterr().out
        assert (pipeline_dir / "model.json").read_bytes() == hit

    def test_gram_cache_reused_by_train(self, pipeline_dir):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        before = (pipeline_dir / "gram.csv").stat().st_mtime_ns
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert (pipeline_dir / "gram.csv").stat().st_mtime_ns == before

    def test_damaged_gram_cache_recomputed_by_train(self, pipeline_dir):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        path = pipeline_dir / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["shape"]
        path.write_text(json.dumps(manifest))
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert json.loads(path.read_text())["shape"] == [96, 96]

    def test_gram_mode_contradicting_shots_recomputed_by_train(self, pipeline_dir, capsys):
        assert run_cli("kernel", "--workdir", pipeline_dir, "--shots", 64) == 0
        path = pipeline_dir / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["mode"] = "exact"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", "--shots", 64) == 0
        assert (f"gram cache: miss, damaged ({path}: mode 'exact' contradicts shots 64 and "
                f"seed 5); recomputed\n" in capsys.readouterr().out)
        assert json.loads(path.read_text())["mode"] == "sampled"
        assert json.loads((pipeline_dir / "model.json").read_text())["kernel"]["mode"] == "sampled"

    @pytest.mark.parametrize("text, message", [
        ("{bad", "invalid JSON"), ("[]", "expected a JSON object, got list"),
    ], ids=["invalid", "array"])
    @pytest.mark.parametrize("name, argv", [
        ("cfg.json", ("kernel", "--config", "{path}")),
        ("reduce/manifest.json", ("kernel",)),
        ("gram.manifest.json", ("train", "--model", "qsvc")),
        ("model.json", ("evaluate",)),
    ], ids=["config", "stage_manifest", "gram_manifest", "model"])
    def test_malformed_json_file_named_in_one_line(self, pipeline_dir, capsys, name, argv,
                                                   text, message):
        """Every JSON file qtc reads is read one way: invalid JSON, or JSON
        other than an object, ends in one line that names the file.  A damaged
        gram manifest is a cache miss that train recomputes."""
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        path = pipeline_dir / name
        path.write_text(text)
        capsys.readouterr()
        code = run_cli(*[str(a).format(path=path) for a in argv], "--workdir", pipeline_dir)
        out, err = capsys.readouterr()
        if name == "gram.manifest.json":
            assert (code, err) == (0, "")
            assert f"gram cache: miss, damaged ({path}: {message}" in out
            assert json.loads(path.read_text())["mode"] == "exact"
        else:
            assert code == 1 and err.count("\n") == 1
            assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("entries, value, message", [
        ([(5, 17)], 0.5, "square but not symmetric"),
        ([(0, 1), (1, 0)], np.nan, "holds a non-finite value"),
        ([(3, 3)], np.inf, "holds a non-finite value"),
    ], ids=["asymmetric", "nan_pair", "inf_diagonal"])
    def test_damaged_gram_values_recomputed_by_train(self, pipeline_dir, capsys, entries, value,
                                                     message):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        model = (pipeline_dir / "model.json").read_bytes()
        path = pipeline_dir / "gram.npy"
        npy = path.read_bytes()
        values = np.load(path)
        for entry in entries:
            values[entry] = value
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, values, version=(1, 0))
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert (f"gram cache: miss, damaged ({path}: {message}); recomputed\n"
                in capsys.readouterr().out)
        assert path.read_bytes() == npy
        assert (pipeline_dir / "model.json").read_bytes() == model
        assert run_cli("evaluate", "--workdir", pipeline_dir) == 0

    def test_cache_hit_and_miss_reported(self, pipeline_dir, capsys):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert "gram cache: hit\n" in capsys.readouterr().out
        hit_model = (pipeline_dir / "model.json").read_bytes()
        npy = (pipeline_dir / "gram.npy").read_bytes()
        # A workdir written before gram.npy existed recomputes once.
        (pipeline_dir / "gram.npy").unlink()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert "gram cache: miss, missing (gram.npy); recomputed\n" in capsys.readouterr().out
        assert (pipeline_dir / "gram.npy").read_bytes() == npy
        assert (pipeline_dir / "model.json").read_bytes() == hit_model

    def test_stale_manifest_recomputed_without_reading_values(self, pipeline_dir, capsys,
                                                              monkeypatch):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        path = pipeline_dir / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        data_hash = manifest["data_hash"]
        manifest["data_hash"] = "0" * 64
        path.write_text(json.dumps(manifest))

        def read_values(*args, **kwargs):
            raise AssertionError("the values of a stale cache were read")

        monkeypatch.setattr(kernel_mod, "load_gram", read_values)
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert "gram cache: miss, stale (does not match: data_hash); recomputed" in (
            capsys.readouterr().out
        )
        assert json.loads(path.read_text())["data_hash"] == data_hash

    @pytest.mark.parametrize("interruption", [OSError("No space left on device"),
                                              KeyboardInterrupt()], ids=["oserror", "interrupt"])
    def test_interrupted_save_reads_as_missing(self, pipeline_dir, tmp_path, capsys, monkeypatch,
                                               interruption):
        assert run_cli("kernel", "--workdir", pipeline_dir, "--reps", 2) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", "--reps", 2) == 0
        reps2_model = (pipeline_dir / "model.json").read_bytes()
        reps2_npy = (pipeline_dir / "gram.npy").read_bytes()

        def fail(block, scratch=None):
            raise interruption

        # The reps-3 save fails after gram.npy and during gram.csv.
        with monkeypatch.context() as patch:
            patch.setattr(kernel_mod, "_csv_bytes", fail)
            if isinstance(interruption, OSError):
                assert run_cli("kernel", "--workdir", pipeline_dir, "--reps", 3) == 1
            else:
                with pytest.raises(KeyboardInterrupt):
                    run_cli("kernel", "--workdir", pipeline_dir, "--reps", 3)
        assert (pipeline_dir / "gram.npy").read_bytes() != reps2_npy
        assert not (pipeline_dir / "gram.manifest.json").exists()
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", "--reps", 2) == 0
        assert "gram cache: miss, missing (gram.manifest.json); recomputed\n" in (
            capsys.readouterr().out
        )
        assert (pipeline_dir / "gram.npy").read_bytes() == reps2_npy
        assert (pipeline_dir / "model.json").read_bytes() == reps2_model

    def test_interrupted_stage_save_reads_as_missing(self, pipeline_dir, capsys, monkeypatch):
        def fail(path, payload):
            raise OSError("No space left on device")

        # The 3-component save fails after features.csv, when it writes the manifest.
        monkeypatch.setattr(corpus_mod, "write_json", fail)
        assert run_cli("reduce", "--workdir", pipeline_dir, "--components", 3) == 1
        monkeypatch.undo()
        header = (pipeline_dir / "reduce" / "features.csv").read_text().split("\n", 1)[0]
        assert header == "id,label_index,pc1,pc2,pc3"
        assert not (pipeline_dir / "reduce" / "manifest.json").exists()
        capsys.readouterr()
        assert run_cli("kernel", "--workdir", pipeline_dir) == 1
        err = capsys.readouterr().err
        manifest = pipeline_dir / "reduce" / "manifest.json"
        assert err == f"error: {manifest}: missing stage manifest\n"
        assert not list(pipeline_dir.glob("gram*"))

    def test_stage_file_without_whole_rows_named(self, pipeline_dir, capsys):
        """A stage file cut after its first 60 lines ends in one line naming it,
        not in an unknown sample id."""
        path = pipeline_dir / "reduce" / "features.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:60]))
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        assert run_cli("kernel", "--workdir", pipeline_dir) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
        assert _file_bytes(pipeline_dir) == before

    @pytest.mark.parametrize("stage, argv", [
        ("tfidf", ("reduce",)),
        ("reduce", ("kernel",)),
        ("reduce", ("train", "--model", "qsvc")),
        ("reduce", ("evaluate",)),
    ], ids=["reduce", "kernel", "train", "evaluate"])
    def test_stage_without_label_column_named(self, pipeline_dir, capsys, stage, argv):
        """A features.csv without its label_index column, as stages were once
        written, ends in one line naming it; the fix is to rerun the stages."""
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        path = pipeline_dir / stage / "features.csv"
        lines = [line.split(",") for line in path.read_text().splitlines(keepends=True)]
        path.write_text("".join(",".join(fields[:1] + fields[2:]) for fields in lines))
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        assert run_cli(*argv, "--workdir", pipeline_dir) == 1
        assert capsys.readouterr().err == f"error: {path}: malformed header\n"
        assert _file_bytes(pipeline_dir) == before

    def test_train_never_reads_gram_csv(self, pipeline_dir, capsys):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        intact = (pipeline_dir / "model.json").read_bytes()
        (pipeline_dir / "gram.csv").write_text("not,a\ngram\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert "gram cache: hit\n" in capsys.readouterr().out
        assert (pipeline_dir / "model.json").read_bytes() == intact

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the encoding overflows first
    def test_non_finite_gram_is_a_numerical_error_and_not_saved(self, pipeline_dir, capsys):
        assert run_cli("reduce", "--workdir", pipeline_dir, "--scale-hi", "1e308") == 0
        capsys.readouterr()
        assert run_cli("kernel", "--workdir", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: Gram rows 0 to 95 hold a non-finite value\n"
        assert not list(pipeline_dir.glob("gram*"))

    # 2**63 is one more than the largest count NumPy's binomial and multinomial accept.
    @pytest.mark.parametrize("command, shots", [
        pytest.param(("kernel",), -5, id="kernel"),
        pytest.param(("train",), -5, id="train"),
        pytest.param(("kernel",), 2**63, id="kernel-2**63"),
        pytest.param(("train", "--model", "qsvc"), 2**63, id="train-qsvc-2**63"),
        pytest.param(("train", "--model", "vqc"), 10**20, id="train-vqc-10**20"),
    ])
    def test_negative_shots_rejected(self, pipeline_dir, capsys, command, shots):
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        assert run_cli(*command, "--workdir", pipeline_dir, "--shots", shots) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "shots" in err
        assert _file_bytes(pipeline_dir) == before

    def test_largest_shot_count_accepted(self, pipeline_dir):
        assert run_cli("kernel", "--workdir", pipeline_dir, "--shots", 2**63 - 1) == 0
        assert json.loads((pipeline_dir / "gram.manifest.json").read_text())["shots"] == 2**63 - 1

    @pytest.mark.parametrize("flag, value", [("--rho-begin", "inf"), ("--rho-begin", "nan"),
                                             ("--rho-end", "inf")])
    def test_bad_trust_radius_rejected(self, pipeline_dir, capsys, flag, value):
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "vqc", flag, value) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rho_begin" in err
        assert not (pipeline_dir / "model.json").exists()
        assert not (pipeline_dir / "curve.csv").exists()

    # Each of these values is checked by a spec or fitter that names its own
    # field ("reps", "k", "max_evaluations"); the error names the option.
    @pytest.mark.parametrize("argv, option", [
        pytest.param(("train", "--model", "vqc", "--reps", 0), "--reps", id="vqc-reps"),
        pytest.param(("train", "--model", "vqc", "--ansatz-reps", 0), "--ansatz-reps",
                     id="vqc-ansatz-reps"),
        pytest.param(("train", "--model", "qsvc", "--reps", 0), "--reps", id="qsvc-reps"),
        pytest.param(("kernel", "--reps", 0), "--reps", id="kernel-reps"),
        pytest.param(("reduce", "--components", 0), "--components", id="components"),
        pytest.param(("reduce", "--scale-lo", 2, "--scale-hi", 1), "--scale-lo", id="scale"),
        pytest.param(("train", "--model", "vqc", "--iters", 1), "--iters", id="iters"),
        pytest.param(("train", "--model", "qnnc", "--rho-end", 2), "--rho-begin 1.0, --rho-end",
                     id="rho-end"),
    ])
    def test_bad_option_named_in_error(self, pipeline_dir, capsys, argv, option):
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        assert run_cli(*argv, "--workdir", pipeline_dir) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {option} ")
        assert _file_bytes(pipeline_dir) == before

    @pytest.mark.parametrize("rho_begin", ["1e200", "1e308"])
    def test_overflowing_trust_radius_is_a_numerical_abort(self, pipeline_dir, capsys, rho_begin):
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "vqc",
                       "--rho-begin", rho_begin) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical error: ") and "rho_begin" in err
        assert not (pipeline_dir / "model.json").exists()
        assert not (pipeline_dir / "curve.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--C", "nan"), ("--C", "inf"), ("--C", "0"),
                                             ("--tol", "-1"), ("--tol", "nan"), ("--tol", "0")])
    def test_bad_box_or_tolerance_rejected(self, pipeline_dir, capsys, flag, value):
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "svc", flag, value) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag.lstrip("-") in err
        assert not (pipeline_dir / "model.json").exists()

    @pytest.mark.parametrize("flag, value", [("--C", "nan"), ("--tol", "0")])
    def test_bad_box_or_tolerance_writes_no_gram(self, pipeline_dir, capsys, flag, value):
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc", flag, value) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag.lstrip("-") in err
        assert _file_bytes(pipeline_dir) == before

    @pytest.mark.parametrize("args, key", [
        (("synth", "--out", "{base}/new.csv", "--seed", -1), "seed"),
        (("preprocess", "--corpus", "{base}/corpus.csv", "--workdir", "{base}/fresh",
          "--seed", -3), "seed"),
        (("kernel", "--workdir", "{base}/work", "--shots", 16, "--seed", -1), "seed"),
        (("train", "--workdir", "{base}/work", "--model", "vqc", "--shots", 16, "--seed", -1),
         "seed"),
        (("train", "--workdir", "{base}/work", "--init-seed", -1), "init_seed"),
    ])
    def test_negative_seed_rejected(self, pipeline_dir, capsys, args, key):
        base = pipeline_dir.parent
        before = _file_bytes(base)
        capsys.readouterr()
        assert run_cli(*[str(a).format(base=base) for a in args]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be >= 0, got {args[-1]}\n"
        assert _file_bytes(base) == before
        assert not (base / "fresh").exists()

    def test_carriage_return_in_corpus_id(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        work = tmp_path / "work"
        assert run_cli("synth", "--out", corpus) == 0
        rows = read_rows(corpus)
        rows[0]["ID"] = "x\r1"
        with open(corpus, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))  # "\r\n" rows, as by default
            writer.writeheader()
            writer.writerows(rows)
        assert run_cli("preprocess", "--corpus", corpus, "--workdir", work) == 0
        assert run_cli("reduce", "--workdir", work) == 0
        assert run_cli("train", "--workdir", work, "--model", "qsvc") == 0
        assert run_cli("evaluate", "--workdir", work) == 0
        ids = [row["id"] for row in read_rows(work / "reduce" / "features.csv")]
        assert "x\r1" in ids

    def test_infinite_scale_bound_is_one_stderr_line(self, pipeline_dir):
        # A subprocess, so that a NumPy RuntimeWarning would show on stderr.
        src = os.path.dirname(os.path.dirname(qtc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "qtc.cli", "reduce", "--workdir", str(pipeline_dir),
             "--scale-hi", "inf"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "finite" in proc.stderr, proc.stderr

    @pytest.mark.parametrize("argv", [("train", "--model", "knn"),
                                      ("kernel", "--feature-map", "zzz")])
    def test_value_outside_allowed_set_rejected(self, pipeline_dir, capsys, argv):
        capsys.readouterr()
        assert run_cli(argv[0], "--workdir", pipeline_dir, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be one of" in err

    def test_flag_value_outside_allowed_set_names_the_flag(self, pipeline_dir, capsys):
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "knn") == 1
        assert capsys.readouterr().err.startswith("error: --model knn: model must be one of ")


def traced_run(*args):
    """Exit code of one CLI call and the peak memory traced during it."""
    tracemalloc.start()
    try:
        code = run_cli(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


# One state at MAX_QUBITS + 1 qubits is 2**21 x 16 B = 32 MiB.
SMALL_PEAK = 1 << 20


class TestQubitBound:
    @pytest.mark.parametrize("components", [MAX_QUBITS + 1, 70])
    def test_components_above_max_qubits_rejected(self, tmp_path, capsys, components):
        corpus, work = tmp_path / "corpus.csv", tmp_path / "work"
        assert run_cli("synth", "--vocab-size", 200, "--out", corpus) == 0
        assert run_cli("preprocess", "--corpus", corpus, "--workdir", work,
                       "--max-features", 90) == 0
        capsys.readouterr()
        code, peak = traced_run("reduce", "--workdir", work, "--components", components)
        err = capsys.readouterr().err
        assert code == 1 and peak < SMALL_PEAK
        assert err.count("\n") == 1
        assert err.startswith(f"error: --components {components}: ") and "MAX_QUBITS" in err
        assert not (work / "reduce").exists()

    @pytest.mark.parametrize("argv", [("kernel",), ("train", "--model", "qsvc"),
                                      ("train", "--model", "vqc", "--iters", 50)],
                             ids=["kernel", "qsvc", "vqc"])
    def test_wider_stage_rejected_by_the_circuit(self, pipeline_dir, capsys, argv):
        # A reduce stage with one column too many, as no reduce run writes it.
        stage = load_stage(pipeline_dir / "reduce")
        wide = FeatureMatrix(stage.features.ids, [f"pc{i + 1}" for i in range(MAX_QUBITS + 1)],
                             np.tile(stage.features.values[:, :1], MAX_QUBITS + 1))
        save_stage(pipeline_dir / "reduce", wide, stage.labels, stage.encoding, stage.split,
                   stage="reduce")
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        code, peak = traced_run(*argv, "--workdir", pipeline_dir)
        err = capsys.readouterr().err
        assert code == 1 and peak < SMALL_PEAK
        assert err.count("\n") == 1 and "MAX_QUBITS" in err
        assert _file_bytes(pipeline_dir) == before


def _largest_reps(spec):
    """The most repetitions ``spec(reps)`` accepts."""
    reps = 1
    while True:
        try:
            spec(reps + 1)
        except ValidationError:
            return reps
        reps += 1


class TestGateBound:
    """Repetitions that would build more than MAX_GATES gates fail with one
    line before anything is built or written."""

    @pytest.mark.parametrize("argv, flag, spec", [
        (("kernel",), "--reps", lambda r: FeatureMapSpec("zz", 2, r)),
        (("train", "--model", "vqc", "--iters", 10**9), "--ansatz-reps",
         lambda r: AnsatzSpec(2, r)),
    ], ids=["kernel_reps", "vqc_ansatz_reps"])
    def test_flag_one_above_the_bound_rejected(self, pipeline_dir, capsys, argv, flag, spec):
        reps = _largest_reps(spec)  # the bound: 206 for the map, 481 for the ansatz
        before = _file_bytes(pipeline_dir)
        capsys.readouterr()
        code, peak = traced_run(*argv, flag, reps + 1, "--workdir", pipeline_dir)
        err = capsys.readouterr().err
        assert code == 1 and peak < SMALL_PEAK
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {flag} {reps + 1}: ") and f"MAX_GATES = {MAX_GATES}" in err
        assert _file_bytes(pipeline_dir) == before

    @pytest.mark.parametrize("model, damage", [
        ("vqc", lambda d: d["feature_map"].update(reps=2**40)),
        ("vqc", lambda d: d["ansatz"].update(reps=2**40)),
        ("qsvc", lambda d: d["kernel"]["feature_map"].update(reps=2**40)),
    ], ids=["vqc_feature_map", "vqc_ansatz", "qsvc_feature_map"])
    def test_model_json_reps_rejected(self, trained_models, tmp_path, capsys, model, damage):
        work = shutil.copytree(trained_models[0], tmp_path / "work")
        payload = json.loads(json.dumps(trained_models[1][model]))
        damage(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        before = _file_bytes(work)
        capsys.readouterr()
        code, peak = traced_run("evaluate", "--workdir", work, "--model", path)
        err = capsys.readouterr().err
        assert code == 1 and peak < SMALL_PEAK
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {path}: ") and f"MAX_GATES = {MAX_GATES}" in err
        assert _file_bytes(work) == before

    def test_gram_manifest_reps_is_a_damaged_cache(self, pipeline_dir, capsys):
        """A gram manifest is a cache: one past the bound is damaged, and train
        recomputes it instead of reading it, as for any damaged manifest."""
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        npy = (pipeline_dir / "gram.npy").read_bytes()
        path = pipeline_dir / "gram.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["feature_map"]["reps"] = 2**40
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=f"{path}: malformed feature_map: .*MAX_GATES"):
            kernel_mod.load_gram_manifest(pipeline_dir)
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        out, err = capsys.readouterr()
        assert err == "" and f"gram cache: miss, damaged ({path}: malformed feature_map: " in out
        assert json.loads(path.read_text())["feature_map"]["reps"] == 2
        assert (pipeline_dir / "gram.npy").read_bytes() == npy


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"classes": 4, "per_class": 6}))
        out = tmp_path / "c.csv"
        run_cli("synth", "--config", cfgfile, "--classes", 2, "--out", out)
        echo = capsys.readouterr().out.splitlines()[0]
        resolved = json.loads(echo.split("config: ", 1)[1])
        assert resolved["classes"] == 2  # CLI wins
        assert resolved["per_class"] == 6  # file beats default
        assert resolved["vocab_size"] == 30  # default
        rows = read_rows(out)
        assert len(rows) == 12

    @pytest.mark.parametrize(
        "values, code",
        [({"components": "two"}, 1), ({"scale_hi": True}, 1), ({"components": 2.0}, 1),
         ({"scale_hi": 3}, 0), ({"scale_hi": float("nan")}, 1)],
    )
    def test_config_value_type_checked(self, pipeline_dir, capsys, values, code):
        cfgfile = pipeline_dir / "cfg.json"
        cfgfile.write_text(json.dumps(values))
        capsys.readouterr()
        assert run_cli("reduce", "--config", cfgfile, "--workdir", pipeline_dir) == code
        if code:
            assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "values, code",
        [({"shot": 256}, 1), ({"per_class": 4, "colour": "red"}, 1),
         ({"per_class": 4, "shots": 256, "components": 3}, 0)],
    )
    def test_config_keys_known_to_some_command(self, tmp_path, capsys, values, code):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(values))
        capsys.readouterr()
        assert run_cli("synth", "--config", cfgfile, "--out", tmp_path / "c.csv") == code
        if code:
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unknown key" in err

    def test_config_value_outside_allowed_set_rejected(self, pipeline_dir, capsys):
        cfgfile = pipeline_dir / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "svm"}))
        capsys.readouterr()
        assert run_cli("train", "--config", cfgfile, "--workdir", pipeline_dir) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be one of" in err

    def test_config_value_outside_allowed_set_names_the_file(self, pipeline_dir, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "knn"}))
        capsys.readouterr()
        assert run_cli("train", "--config", cfgfile, "--workdir", pipeline_dir) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfgfile}: model must be one of ")

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_every_option_with_its_default(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        entries = {chunk.split()[0]: chunk for chunk in text.split(" --")[1:]}
        for name, (default, _, _) in OPTIONS[command].items():
            assert f"(default: {default})" in entries[name.replace("_", "-")], name

    def test_defaults_echoed(self, tmp_path, capsys):
        run_cli("synth", "--out", tmp_path / "c.csv")
        echo = capsys.readouterr().out.splitlines()[0]
        resolved = json.loads(echo.split("config: ", 1)[1])
        assert resolved == {"classes": 3, "per_class": 40, "vocab_size": 30, "seed": 13}


def _file_bytes(workdir):
    """Every file under ``workdir``, relative path to bytes."""
    return {path.relative_to(workdir): path.read_bytes()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def _snapshot(workdir):
    """File contents keyed by relative path, with manifest timestamps dropped."""
    snap = {}
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, workdir)
            if name == "manifest.json":
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                data.pop("created_utc", None)
                snap[rel] = json.dumps(data, sort_keys=True)
            else:
                with open(path, "rb") as fh:
                    snap[rel] = fh.read()
    return snap


class TestDeterminism:
    def _run_all(self, base):
        corpus = base / "corpus.csv"
        work = base / "work"
        assert run_cli("synth", "--out", corpus) == 0
        assert run_cli("preprocess", "--corpus", corpus, "--workdir", work) == 0
        assert run_cli("reduce", "--workdir", work) == 0
        assert run_cli("kernel", "--workdir", work) == 0
        assert run_cli("train", "--workdir", work, "--model", "qsvc") == 0
        assert run_cli("evaluate", "--workdir", work) == 0
        assert run_cli("train", "--workdir", work, "--model", "vqc",
                       "--model-out", work / "vqc.json",
                       "--curve-out", work / "vqc_curve.csv") == 0
        return work

    def test_byte_identical_artifacts(self, tmp_path):
        w1 = self._run_all(tmp_path / "one")
        w2 = self._run_all(tmp_path / "two")
        s1, s2 = _snapshot(w1), _snapshot(w2)
        assert s1.keys() == s2.keys()
        for rel in s1:
            assert s1[rel] == s2[rel], f"artifact differs: {rel}"


class TestQsvcScoring:
    """Scores of a saved QSVC model against one test Gram over all support ids."""

    PER_CLASS = [
        # Both classes weigh only support "b": at position 1 in class 0, at
        # position 0 in class 1.
        {"support_ids": ["a", "b"], "dual_coefs": [0.0, 1.0], "bias": 0.0, "converged": True,
         "updates": 1, "stop": "tolerance", "kkt_gap": 0.0},
        {"support_ids": ["b", "c"], "dual_coefs": [1.0, 0.0], "bias": 0.0, "converged": True,
         "updates": 1, "stop": "tolerance", "kkt_gap": 0.0},
    ]

    @staticmethod
    def scores(shots):
        """Per-class decision values, and predictions, as ``evaluate`` computes them."""
        rng = np.random.default_rng(8)
        features = FeatureMatrix(["a", "b", "c"], ["f0", "f1"], rng.uniform(0, 3, (3, 2)))
        X_test = rng.uniform(0, 3, (25, 2))
        clf, support_ids = MulticlassSvm.from_dict(
            {"C": 1.0, "tol": 1e-3, "per_class": TestQsvcScoring.PER_CLASS})
        K = kernel_mod.gram(FeatureMapSpec("zz", 2), X_test, features.rows_for(support_ids),
                            shots=shots, seed=3).values
        scores = np.stack([decision(m, K) for m in clf.models], axis=1)
        return scores, predict_multiclass(clf, K), features, X_test

    def test_shared_support_id_gets_one_sampled_estimate(self):
        scores, predicted, _, X_test = self.scores(64)
        assert np.array_equal(scores[:, 0], scores[:, 1])
        # Equal scores tie, and ties go to the lowest class.
        assert np.array_equal(predicted, np.zeros(len(X_test), dtype=np.int64))

    def test_exact_scores_equal_per_class_grams(self):
        scores, _, features, X_test = self.scores(0)
        for k, entry in enumerate(self.PER_CLASS):
            K = kernel_mod.gram(FeatureMapSpec("zz", 2), X_test,
                                features.rows_for(entry["support_ids"])).values
            assert np.allclose(scores[:, k], K @ np.asarray(entry["dual_coefs"]), atol=1e-12)


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A workdir with one model file per serialized format: svc, qsvc and vqc."""
    base = tmp_path_factory.mktemp("models")
    work = base / "work"
    assert run_cli("synth", "--per-class", 10, "--out", base / "corpus.csv") == 0
    assert run_cli("preprocess", "--corpus", base / "corpus.csv", "--workdir", work) == 0
    assert run_cli("reduce", "--workdir", work) == 0
    for model in ("svc", "qsvc", "vqc"):
        assert run_cli("train", "--workdir", work, "--model", model, "--iters", 6,
                       "--model-out", base / f"{model}.json") == 0
        assert run_cli("evaluate", "--workdir", work, "--model", base / f"{model}.json") == 0
    return work, {m: json.loads((base / f"{m}.json").read_text()) for m in ("svc", "qsvc", "vqc")}


def evaluate_quietly(work, model_path):
    """Exit code and stderr of ``evaluate``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--workdir", str(work), "--model", str(model_path)])
    return code, err.getvalue()


def _drop(key):
    return lambda d: d.pop(key)


class TestDamagedModel:
    @pytest.mark.parametrize("model, damage", [
        ("svc", "{not json"),
        ("svc", "[1, 2]"),
        ("svc", _drop("per_class")),
        ("qsvc", lambda d: d["kernel"].pop("mode")),
        ("vqc", _drop("mode")),
        ("svc", lambda d: d["per_class"][0]["dual_coefs"].pop()),
    ], ids=["invalid_json", "json_array", "missing_per_class", "missing_kernel_mode",
            "missing_mode", "short_dual_coefs"])
    def test_exits_one_with_one_line(self, trained_models, tmp_path, model, damage):
        work, payloads = trained_models
        path = tmp_path / "model.json"
        if isinstance(damage, str):
            path.write_text(damage)
        else:
            payload = json.loads(json.dumps(payloads[model]))
            damage(payload)
            path.write_text(json.dumps(payload))
        code, err = evaluate_quietly(work, path)
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_negative_sampling_seed_is_one_line(self, trained_models, tmp_path):
        work, payloads = trained_models
        payload = json.loads(json.dumps(payloads["qsvc"]))
        payload["kernel"].update(mode="sampled", shots=16, seed=-1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert evaluate_quietly(work, path) == (1, f"error: {path}: seed must be >= 0, got -1\n")

    def test_negative_vqc_sampling_seed_is_one_line(self, trained_models, tmp_path):
        work, payloads = trained_models
        payload = json.loads(json.dumps(payloads["vqc"]))
        payload["mode"].update(shots=16, seed=-1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert evaluate_quietly(work, path) == (1, f"error: {path}: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("model, damage, message", [
        ("vqc", lambda d: d["theta"].__setitem__(0, float("inf")), "'theta' holds a non-finite"),
        ("vqc", lambda d: d["theta"].__setitem__(0, float("nan")), "'theta' holds a non-finite"),
        ("qsvc", lambda d: d["per_class"][0]["dual_coefs"].__setitem__(0, float("nan")),
         "'dual_coefs' holds a non-finite"),
        ("qsvc", lambda d: d["per_class"][0].update(bias=float("inf")),
         "'bias' holds a non-finite"),
        ("vqc", lambda d: d["mode"].update(shots=2**70), "shots must be <= 9223372036854775807"),
        ("qsvc", lambda d: d["kernel"].update(mode="sampled", shots=2**70),
         "shots must be <= 9223372036854775807"),
        ("qsvc", lambda d: d["kernel"].update(mode="sampled"), "mode 'sampled' contradicts shots 0"),
        ("qsvc", lambda d: d["kernel"].update(shots=64), "mode 'exact' contradicts shots 64"),
        ("vqc", lambda d: d.update(n_classes=99), "has 99 classes, the reduce stage has 3"),
        ("qsvc", lambda d: d["per_class"].append(d["per_class"][0]),
         "has 4 classes, the reduce stage has 3"),
    ], ids=["vqc_theta_inf", "vqc_theta_nan", "qsvc_dual_coef_nan", "qsvc_bias_inf",
            "vqc_shots_2**70", "qsvc_shots_2**70", "qsvc_sampled_at_0_shots",
            "qsvc_exact_at_64_shots", "vqc_99_classes", "qsvc_4_classes"])
    def test_rejected_before_any_report(self, trained_models, tmp_path, model, damage, message):
        work, payloads = trained_models
        work = shutil.copytree(work, tmp_path / "work")
        for name in ("report.json", "report.txt"):
            (work / name).unlink()
        payload = json.loads(json.dumps(payloads[model]))
        damage(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
        code, err = evaluate_quietly(work, path)
        assert code == 1
        assert err.count("\n") == 1 and message in err
        assert not (work / "report.json").exists() and not (work / "report.txt").exists()

    @pytest.mark.parametrize("model, damage", [
        ("vqc", lambda d: d["feature_map"].update(kind="zzz")),
        ("qsvc", lambda d: d["kernel"]["feature_map"].update(kind="zzz")),
    ], ids=["vqc", "qsvc"])
    def test_feature_map_kind_names_the_model(self, trained_models, tmp_path, model, damage):
        work, payloads = trained_models
        payload = json.loads(json.dumps(payloads[model]))
        damage(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert evaluate_quietly(work, path) == (
            1, f"error: {path}: feature map kind must be 'z' or 'zz', got 'zzz'\n")

    def test_unknown_type_names_only_the_type(self, trained_models, tmp_path):
        work, payloads = trained_models
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(payloads["svc"], type="knn")))
        _, err = evaluate_quietly(work, path)
        assert err == f"error: {path}: unknown model type 'knn'\n"


# Top-level fields that evaluate does not read: it scores with the stage's
# classes, never looks at the training config, and the variational final loss
# is informational (the run's converged/stop/evaluations are cross-checked).
UNREAD = {"classes", "config", "final_loss"}

# One value of each JSON kind; a retyped value is one of another kind.
KINDS = [None, True, 1.5, "x", [], {}]


def _kind(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


def _paths(node, prefix=()):
    """(path, value) of every value nested in a parsed JSON value, but UNREAD."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if prefix or key not in UNREAD:
            yield prefix + (key,), value
            yield from _paths(value, prefix + (key,))


def _lookup(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["svc", "qsvc", "vqc"]), st.data())
def test_property_damaged_model_exits_one(trained_models, tmp_path_factory, model, data):
    """Dropping a key, retyping a value or truncating the bytes of a valid
    model.json makes evaluate exit 1 with one stderr line, never a traceback."""
    work, payloads = trained_models
    payload = json.loads(json.dumps(payloads[model]))
    text = json.dumps(payload, indent=2) + "\n"
    how = data.draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 2))]
    else:
        paths = [(p, v) for p, v in _paths(payload)
                 if how == "retype" or isinstance(_lookup(payload, p[:-1]), dict)]
        path, value = data.draw(st.sampled_from(paths))
        parent = _lookup(payload, path[:-1])
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(
                st.sampled_from([k for k in KINDS if _kind(k) is not _kind(value)]))
        text = json.dumps(payload)
    model_path = tmp_path_factory.mktemp("damaged") / "model.json"
    model_path.write_text(text)
    code, err = evaluate_quietly(work, model_path)
    assert (code, err.count("\n")) == (1, 1), (how, text[:200], err)


# The fields load_stage reads from a stage manifest; every value nested under
# them is read too.
STAGE_READ = ("stage", "classes", "split")


@pytest.fixture(scope="module")
def reduced_stage(tmp_path_factory):
    """A reduce stage directory and its parsed manifest."""
    base = tmp_path_factory.mktemp("stage")
    assert run_cli("synth", "--per-class", 10, "--out", base / "corpus.csv") == 0
    assert run_cli("preprocess", "--corpus", base / "corpus.csv", "--workdir", base / "work") == 0
    assert run_cli("reduce", "--workdir", base / "work") == 0
    stage = base / "work" / "reduce"
    return stage, json.loads((stage / "manifest.json").read_text())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_damaged_stage_manifest_exits_one(reduced_stage, tmp_path_factory, data):
    """Dropping a key, retyping a value or truncating the bytes of the fields
    load_stage reads from reduce/manifest.json makes kernel exit 1 with one
    stderr line, never a traceback."""
    stage, manifest = reduced_stage
    manifest = json.loads(json.dumps(manifest))
    text = json.dumps(manifest, indent=2) + "\n"
    how = data.draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 2))]
    else:
        paths = [((key,) + p, v) for key in STAGE_READ
                 for p, v in [((), manifest[key])] + list(_paths(manifest[key]))]
        paths = [(p, v) for p, v in paths
                 if how == "retype" or isinstance(_lookup(manifest, p[:-1]), dict)]
        path, value = data.draw(st.sampled_from(paths))
        parent = _lookup(manifest, path[:-1])
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(
                st.sampled_from([k for k in KINDS if _kind(k) is not _kind(value)]))
        text = json.dumps(manifest)
    work = tmp_path_factory.mktemp("damaged")
    (work / "reduce").mkdir()
    (work / "reduce" / "features.csv").write_bytes((stage / "features.csv").read_bytes())
    (work / "reduce" / "manifest.json").write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["kernel", "--workdir", str(work)])
    assert (code, err.getvalue().count("\n")) == (1, 1), (how, text[:200], err.getvalue())
