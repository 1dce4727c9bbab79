import csv
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from qtc import kernel as kernel_mod
from qtc.circuits import FeatureMapSpec
from qtc.cli import _decision_scores, _predict_payload, main
from qtc.corpus import Document, FeatureMatrix, encode_labels, fit_tfidf, transform_tfidf
from qtc.reduce import fit_pca, transform_pca


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
            "tfidf/labels.csv",
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

    def test_train_never_reads_gram_csv(self, pipeline_dir, capsys):
        assert run_cli("kernel", "--workdir", pipeline_dir) == 0
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        intact = (pipeline_dir / "model.json").read_bytes()
        (pipeline_dir / "gram.csv").write_text("not,a\ngram\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("train", "--workdir", pipeline_dir, "--model", "qsvc") == 0
        assert "gram cache: hit\n" in capsys.readouterr().out
        assert (pipeline_dir / "model.json").read_bytes() == intact

    @pytest.mark.parametrize("command", ["kernel", "train"])
    def test_negative_shots_rejected(self, pipeline_dir, capsys, command):
        capsys.readouterr()
        assert run_cli(command, "--workdir", pipeline_dir, "--shots", -5) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "shots" in err
        assert not (pipeline_dir / "gram.manifest.json").exists()


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

    def test_malformed_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{bad")
        assert run_cli("synth", "--config", cfgfile, "--out", tmp_path / "c.csv") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid JSON" in err

    @pytest.mark.parametrize(
        "values, code",
        [({"components": "two"}, 1), ({"scale_hi": True}, 1), ({"components": 2.0}, 1),
         ({"scale_hi": 3}, 0)],
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

    def test_defaults_echoed(self, tmp_path, capsys):
        run_cli("synth", "--out", tmp_path / "c.csv")
        echo = capsys.readouterr().out.splitlines()[0]
        resolved = json.loads(echo.split("config: ", 1)[1])
        assert resolved == {"classes": 3, "per_class": 40, "vocab_size": 30, "seed": 13}


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

    @staticmethod
    def payload(mode):
        # Both classes weigh only support "b": at position 1 in class 0, at
        # position 0 in class 1.
        return {
            "type": "qsvc",
            "kernel": {"feature_map": FeatureMapSpec("zz", 2).to_dict(), "mode": mode,
                       "shots": 64, "seed": 3},
            "per_class": [
                {"support_ids": ["a", "b"], "dual_coefs": [0.0, 1.0], "bias": 0.0},
                {"support_ids": ["b", "c"], "dual_coefs": [1.0, 0.0], "bias": 0.0},
            ],
        }

    @staticmethod
    def data():
        rng = np.random.default_rng(8)
        stage = SimpleNamespace(
            features=FeatureMatrix(["a", "b", "c"], ["f0", "f1"], rng.uniform(0, 3, (3, 2)))
        )
        return stage, rng.uniform(0, 3, (25, 2))

    def test_shared_support_id_gets_one_sampled_estimate(self):
        stage, X_test = self.data()
        scores = _decision_scores(self.payload("sampled"), stage, X_test)
        assert np.array_equal(scores[:, 0], scores[:, 1])
        # Equal scores tie, and ties go to the lowest class.
        assert np.array_equal(_predict_payload(self.payload("sampled"), stage, X_test),
                              np.zeros(len(X_test), dtype=np.int64))

    def test_exact_scores_equal_per_class_grams(self):
        stage, X_test = self.data()
        payload = self.payload("exact")
        scores = _decision_scores(payload, stage, X_test)
        fm = FeatureMapSpec.from_dict(payload["kernel"]["feature_map"])
        for k, entry in enumerate(payload["per_class"]):
            K = kernel_mod.gram(fm, X_test, stage.features.rows_for(entry["support_ids"])).values
            assert np.allclose(scores[:, k], K @ np.asarray(entry["dual_coefs"]), atol=1e-12)
