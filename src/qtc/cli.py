"""Command-line pipeline driver.

Stages mirror the hybrid flow: synth -> preprocess -> reduce -> kernel ->
train -> evaluate.  Each stage persists its artifacts under the work
directory and embeds the hash of the upstream manifest, so stages cannot be
skipped or mixed across runs.  Re-running a stage with identical
configuration and seeds reproduces its artifacts byte for byte (the manifest
timestamp lives under its own key and is excluded from hashing).

Option precedence: command-line flag > --config JSON file > built-in
default.  The resolved configuration is echoed by every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import kernel as kernel_mod
from . import metrics as metrics_mod
from . import reduce as reduce_mod
from . import svm as svm_mod
from . import synth as synth_mod
from . import variational as var_mod
from .circuits import AnsatzSpec, FeatureMapSpec
from .corpus import load_stage, manifest_hash, save_stage, stratified_split
from .errors import NumericalError, ParseError, SchemaError, ValidationError, VersioningError
from .optimizer import OptimizerConfig, write_trace_csv

DEFAULTS = {
    "synth": {"classes": 3, "per_class": 40, "vocab_size": 30, "seed": 13},
    "preprocess": {
        "max_features": 20,
        "test_fraction": 0.2,
        "seed": 7,
        "id_col": "ID",
        "text_col": "Resume_str",
        "label_col": "Category",
    },
    "reduce": {"components": 2, "scale_lo": 0.0, "scale_hi": math.pi},
    "kernel": {"feature_map": "zz", "reps": 2, "shots": 0, "seed": 5},
    "train": {
        "model": "qsvc",
        "C": 1.0,
        "tol": 1e-3,
        "shots": 0,
        "seed": 5,
        "iters": 30,
        "init_seed": 42,
        "feature_map": "zz",
        "reps": 2,
        "ansatz_reps": 1,
        "rho_begin": 1.0,
        "rho_end": 1e-4,
    },
    "evaluate": {},
}

MODEL_CHOICES = ("svc", "qsvc", "vqc", "qnnc")


def _same_type(value, default) -> bool:
    """Whether a config-file value may stand in for ``default``.

    An int is accepted where a float is expected; a bool never counts as a number.
    """
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise ParseError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"{args.config}: config file must hold a JSON object")
        # A key of another command is accepted: one file may serve several.
        unknown = sorted(set(file_cfg).difference(*DEFAULTS.values()))
        if unknown:
            raise SchemaError(f"{args.config}: unknown key(s) {', '.join(map(repr, unknown))}")
    resolved = {}
    for key, default in DEFAULTS[command].items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            if not _same_type(file_cfg[key], default):
                raise SchemaError(
                    f"{args.config}: {key!r} must be of type {type(default).__name__}, "
                    f"got {file_cfg[key]!r}"
                )
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    if resolved.get("shots", 0) < 0:
        raise ValidationError(f"shots must be >= 0 (0 = exact), got {resolved['shots']}")
    return resolved


def _echo(command: str, cfg: dict) -> None:
    print(f"{command} config: {json.dumps(cfg, sort_keys=True)}")


def _data_hash(ids, values: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update("\n".join(ids).encode("utf-8"))
    h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------- commands


def cmd_synth(args) -> None:
    cfg = _resolve(args, "synth")
    _echo("synth", cfg)
    docs = synth_mod.synthesize_corpus(
        classes=cfg["classes"],
        per_class=cfg["per_class"],
        vocab_size=cfg["vocab_size"],
        seed=cfg["seed"],
    )
    synth_mod.write_corpus_csv(args.out, docs)
    print(f"wrote {len(docs)} documents to {args.out}")


def cmd_preprocess(args) -> None:
    cfg = _resolve(args, "preprocess")
    _echo("preprocess", cfg)
    docs = corpus_mod.load_corpus(
        args.corpus, id_col=cfg["id_col"], text_col=cfg["text_col"], label_col=cfg["label_col"]
    )
    model = corpus_mod.fit_tfidf(docs, cfg["max_features"])
    features = corpus_mod.transform_tfidf(model, docs)
    encoding, labels = corpus_mod.encode_labels(docs)
    split = stratified_split(labels, features.ids, cfg["test_fraction"], cfg["seed"])
    save_stage(
        os.path.join(args.workdir, "tfidf"),
        features,
        labels,
        encoding,
        split,
        stage="tfidf",
        parameters={
            "config": cfg,
            "idf": model.idf.tolist(),
            "document_frequency": model.document_frequency,
            "corpus_size": model.corpus_size,
        },
    )
    print(
        f"tfidf stage: {len(features.ids)} docs, {len(features.feature_names)} features, "
        f"{len(split.train_ids)} train / {len(split.test_ids)} test"
    )


def cmd_reduce(args) -> None:
    cfg = _resolve(args, "reduce")
    _echo("reduce", cfg)
    stage = load_stage(os.path.join(args.workdir, "tfidf"), expect_stage="tfidf")
    pca = reduce_mod.fit_pca(stage.features, cfg["components"])
    projected = reduce_mod.transform_pca(pca, stage.features)
    if stage.split is None:
        raise VersioningError("tfidf stage has no split; rerun preprocess")
    train_rows = projected.rows_for(stage.split.train_ids)
    train_matrix = corpus_mod.FeatureMatrix(
        list(stage.split.train_ids), list(projected.feature_names), train_rows
    )
    scaler = reduce_mod.fit_scaler(train_matrix, cfg["scale_lo"], cfg["scale_hi"])
    scaled = reduce_mod.transform_scale(scaler, projected)
    save_stage(
        os.path.join(args.workdir, "reduce"),
        scaled,
        stage.labels,
        stage.encoding,
        stage.split,
        stage="reduce",
        parameters={"config": cfg, "pca": pca.to_dict(), "scaler": scaler.to_dict()},
        upstream_hash=manifest_hash(stage.manifest),
    )
    print(f"reduce stage: {scaled.values.shape[0]} x {scaled.values.shape[1]} scaled features")


def _train_arrays(stage):
    if stage.split is None:
        raise VersioningError("reduce stage has no split; rerun preprocess")
    ids = stage.split.train_ids
    X = stage.features.rows_for(ids)
    pos = {d: i for i, d in enumerate(stage.features.ids)}
    y = stage.labels[[pos[d] for d in ids]]
    return ids, X, y


def cmd_kernel(args) -> None:
    cfg = _resolve(args, "kernel")
    _echo("kernel", cfg)
    stage = load_stage(os.path.join(args.workdir, "reduce"), expect_stage="reduce")
    ids, X, _ = _train_arrays(stage)
    spec = FeatureMapSpec(cfg["feature_map"], X.shape[1], cfg["reps"])
    mode = "exact" if cfg["shots"] == 0 else "sampled"
    g = kernel_mod.gram(spec, X, mode=mode, shots=cfg["shots"], seed=cfg["seed"])
    kernel_mod.save_gram(args.workdir, g, _data_hash(ids, X), manifest_hash(stage.manifest))
    print(f"gram: {g.values.shape[0]} x {g.values.shape[1]} ({g.mode})")


def _cached_gram(workdir, spec, mode, shots, seed, data_hash):
    """The cached Gram, or None and why not: missing, damaged or stale.

    The manifest is read and compared first, so a stale cache costs no read
    of its values.
    """
    try:
        manifest = kernel_mod.load_gram_manifest(workdir)
        expected = {"feature_map": spec.to_dict(), "mode": mode, "data_hash": data_hash}
        if mode == "sampled":
            expected.update(shots=shots, seed=seed)
        stale = [key for key, value in expected.items() if manifest.get(key) != value]
        if stale:
            return None, f"stale (does not match: {', '.join(stale)})"
        g, _ = kernel_mod.load_gram(workdir, manifest)
    except OSError as exc:
        return None, f"missing ({os.path.basename(exc.filename or str(exc))})"
    except ValidationError as exc:
        return None, f"damaged ({exc})"
    return g, None


def cmd_train(args) -> None:
    cfg = _resolve(args, "train")
    _echo("train", cfg)
    if cfg["model"] not in MODEL_CHOICES:
        raise ValidationError(f"unknown model type {cfg['model']!r}")
    stage = load_stage(os.path.join(args.workdir, "reduce"), expect_stage="reduce")
    ids, X, y = _train_arrays(stage)
    upstream = manifest_hash(stage.manifest)
    model_path = args.model_out or os.path.join(args.workdir, "model.json")
    payload = {
        "type": cfg["model"],
        "classes": stage.encoding.classes,
        "upstream_hash": upstream,
        "config": cfg,
    }

    if cfg["model"] in ("svc", "qsvc"):
        if cfg["model"] == "svc":
            spec = svm_mod.PolyKernelSpec(degree=3, gamma=svm_mod.default_gamma(X), coef0=0.0)
            G = svm_mod.poly_gram(X, spec=spec)
            payload["kernel"] = {"poly": spec.to_dict()}
        else:
            fm = FeatureMapSpec(cfg["feature_map"], X.shape[1], cfg["reps"])
            mode = "exact" if cfg["shots"] == 0 else "sampled"
            data_hash = _data_hash(ids, X)
            g, miss = _cached_gram(args.workdir, fm, mode, cfg["shots"], cfg["seed"], data_hash)
            if g is None:
                g = kernel_mod.gram(fm, X, mode=mode, shots=cfg["shots"], seed=cfg["seed"])
                kernel_mod.save_gram(args.workdir, g, data_hash, upstream)
                print(f"gram cache: miss, {miss}; recomputed")
            else:
                print("gram cache: hit")
            if mode == "sampled":
                g = kernel_mod.psd_project(g)
            G = g.values
            payload["kernel"] = {"feature_map": fm.to_dict(), "mode": mode,
                                 "shots": cfg["shots"], "seed": cfg["seed"]}
        clf = svm_mod.train_multiclass(G, y, C=cfg["C"], tol=cfg["tol"])
        payload["per_class"] = [
            {
                "support_ids": [ids[i] for i in m.support],
                "dual_coefs": m.dual_coef.tolist(),
                "bias": m.bias,
                "converged": m.converged,
            }
            for m in clf.models
        ]
        payload["C"] = cfg["C"]
        payload["tol"] = cfg["tol"]
    else:
        fm = FeatureMapSpec(cfg["feature_map"], X.shape[1], cfg["reps"])
        ansatz = AnsatzSpec(X.shape[1], cfg["ansatz_reps"])
        template = var_mod.VariationalModel(
            feature_map=fm,
            ansatz=ansatz,
            theta=np.zeros(ansatz.n_parameters),
            n_classes=len(stage.encoding.classes),
            loss_kind="cross_entropy" if cfg["model"] == "vqc" else "squared_error",
            shots=cfg["shots"],
            seed=cfg["seed"],
        )
        opt = OptimizerConfig(
            rho_begin=cfg["rho_begin"], rho_end=cfg["rho_end"], max_evaluations=cfg["iters"]
        )
        result = var_mod.train(X, y, template, opt, init_seed=cfg["init_seed"])
        curve_path = args.curve_out or os.path.join(args.workdir, "curve.csv")
        write_trace_csv(result.trace, curve_path)
        payload.update(
            {
                "feature_map": fm.to_dict(),
                "ansatz": ansatz.to_dict(),
                "theta": result.model.theta.tolist(),
                "n_classes": result.model.n_classes,
                "interpret": "modulo",
                "loss": result.model.loss_kind,
                "mode": {"shots": cfg["shots"], "seed": cfg["seed"]},
                "converged": result.converged,
                "final_loss": result.trace.best_so_far[-1],
            }
        )
        print(
            f"trained {cfg['model']} in {len(result.trace)} evaluations, "
            f"loss {result.trace.objectives[0]:.6f} -> {result.trace.best_so_far[-1]:.6f}"
        )
    _write_json(model_path, payload)
    print(f"model written to {model_path}")


def cmd_evaluate(args) -> None:
    cfg = _resolve(args, "evaluate")
    _echo("evaluate", cfg)
    stage = load_stage(os.path.join(args.workdir, "reduce"), expect_stage="reduce")
    model_path = args.model or os.path.join(args.workdir, "model.json")
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("upstream_hash") != manifest_hash(stage.manifest):
        raise VersioningError(
            f"{model_path} was trained against different stage artifacts; rerun train"
        )
    if stage.split is None:
        raise VersioningError("reduce stage has no split; rerun preprocess")

    test_ids = stage.split.test_ids
    X_test = stage.features.rows_for(test_ids)
    pos = {d: i for i, d in enumerate(stage.features.ids)}
    y_test = stage.labels[[pos[d] for d in test_ids]]
    y_pred = _predict_payload(payload, stage, X_test)

    n_classes = len(stage.encoding.classes)
    matrix = metrics_mod.confusion(y_test, y_pred, n_classes)
    rep = metrics_mod.report(matrix, stage.encoding.classes)
    text = metrics_mod.render_report(rep)
    report_json = rep.to_dict()
    report_json["model_type"] = payload["type"]
    report_json["confusion"] = matrix.tolist()
    report_json["upstream_hash"] = payload.get("upstream_hash")
    _write_json(os.path.join(args.workdir, "report.json"), report_json)
    with open(os.path.join(args.workdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")


def _decision_scores(payload: dict, stage, X_test: np.ndarray) -> np.ndarray:
    """One-vs-rest SVM scores, one column per class, from a single test Gram.

    The Gram is taken against the union of the classes' support ids in
    first-seen order, so test rows are encoded once and a support id shared
    by several classes has one kernel entry (one estimate in sampled mode).
    """
    union: dict[str, int] = {}
    for entry in payload["per_class"]:
        for sid in entry["support_ids"]:
            union.setdefault(sid, len(union))
    support = stage.features.rows_for(list(union))
    if payload["type"] == "svc":
        spec = svm_mod.PolyKernelSpec.from_dict(payload["kernel"]["poly"])
        K = svm_mod.poly_gram(X_test, support, spec=spec)
    else:
        K = kernel_mod.gram(
            FeatureMapSpec.from_dict(payload["kernel"]["feature_map"]),
            X_test,
            support,
            mode=payload["kernel"]["mode"],
            shots=payload["kernel"]["shots"],
            seed=payload["kernel"]["seed"],
        ).values
    scores = np.empty((X_test.shape[0], len(payload["per_class"])))
    for k, entry in enumerate(payload["per_class"]):
        columns = [union[sid] for sid in entry["support_ids"]]
        scores[:, k] = K[:, columns] @ np.asarray(entry["dual_coefs"]) + entry["bias"]
    return scores


def _predict_payload(payload: dict, stage, X_test: np.ndarray) -> np.ndarray:
    kind = payload["type"]
    if kind in ("svc", "qsvc"):
        return np.argmax(_decision_scores(payload, stage, X_test), axis=1).astype(np.int64)
    if kind in ("vqc", "qnnc"):
        model = var_mod.VariationalModel(
            feature_map=FeatureMapSpec.from_dict(payload["feature_map"]),
            ansatz=AnsatzSpec.from_dict(payload["ansatz"]),
            theta=np.asarray(payload["theta"], dtype=float),
            n_classes=payload["n_classes"],
            loss_kind=payload["loss"],
            shots=payload["mode"]["shots"],
            seed=payload["mode"]["seed"],
        )
        return var_mod.predict(model, X_test)
    raise ValidationError(f"unknown model type {kind!r} in {payload}")


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtc",
        description="Hybrid classical/quantum text classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with option defaults")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    add_common(p)
    p.add_argument("--classes", type=int, help="number of classes (default: 3)")
    p.add_argument("--per-class", dest="per_class", type=int,
                   help="documents per class (default: 40)")
    p.add_argument("--vocab-size", dest="vocab_size", type=int,
                   help="total generator vocabulary (default: 30)")
    p.add_argument("--seed", type=int, help="generator seed (default: 13)")
    p.add_argument("--out", required=True, help="output corpus CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="tokenize, fit TF-IDF, encode labels, split")
    add_common(p)
    p.add_argument("--corpus", required=True, help="input corpus CSV")
    p.add_argument("--workdir", required=True, help="pipeline work directory")
    p.add_argument("--max-features", dest="max_features", type=int,
                   help="TF-IDF vocabulary cap (default: 20)")
    p.add_argument("--test-fraction", dest="test_fraction", type=float,
                   help="held-out fraction per class (default: 0.2)")
    p.add_argument("--seed", type=int, help="split shuffle seed (default: 7)")
    p.add_argument("--id-col", dest="id_col", help="id column name (default: ID)")
    p.add_argument("--text-col", dest="text_col", help="text column name (default: Resume_str)")
    p.add_argument("--label-col", dest="label_col", help="label column name (default: Category)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("reduce", help="PCA to the qubit budget plus range scaling")
    add_common(p)
    p.add_argument("--workdir", required=True, help="pipeline work directory")
    p.add_argument("--components", type=int, help="principal components kept (default: 2)")
    p.add_argument("--scale-lo", dest="scale_lo", type=float,
                   help="scaled interval lower edge (default: 0)")
    p.add_argument("--scale-hi", dest="scale_hi", type=float,
                   help="scaled interval upper edge (default: pi)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("kernel", help="assemble the training Gram matrix")
    add_common(p)
    p.add_argument("--workdir", required=True, help="pipeline work directory")
    p.add_argument("--feature-map", dest="feature_map", choices=("z", "zz"),
                   help="encoder kind (default: zz)")
    p.add_argument("--reps", type=int, help="encoder repetitions (default: 2)")
    p.add_argument("--shots", type=int, help="0 = exact, else samples per entry (default: 0)")
    p.add_argument("--seed", type=int, help="sampling master seed (default: 5)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("train", help="train a classifier on the reduced features")
    add_common(p)
    p.add_argument("--workdir", required=True, help="pipeline work directory")
    p.add_argument("--model", choices=MODEL_CHOICES, help="classifier type (default: qsvc)")
    p.add_argument("--C", type=float, help="SVM box constraint (default: 1.0)")
    p.add_argument("--tol", type=float, help="SMO KKT tolerance (default: 1e-3)")
    p.add_argument("--shots", type=int, help="0 = exact, else samples per estimate (default: 0)")
    p.add_argument("--seed", type=int, help="sampling master seed (default: 5)")
    p.add_argument("--iters", type=int,
                   help="optimizer evaluation budget for vqc/qnnc (default: 30)")
    p.add_argument("--init-seed", dest="init_seed", type=int,
                   help="ansatz angle init seed (default: 42)")
    p.add_argument("--feature-map", dest="feature_map", choices=("z", "zz"),
                   help="encoder kind (default: zz)")
    p.add_argument("--reps", type=int, help="encoder repetitions (default: 2)")
    p.add_argument("--ansatz-reps", dest="ansatz_reps", type=int,
                   help="ansatz repetitions (default: 1)")
    p.add_argument("--rho-begin", dest="rho_begin", type=float,
                   help="optimizer initial trust radius (default: 1.0)")
    p.add_argument("--rho-end", dest="rho_end", type=float,
                   help="optimizer final trust radius (default: 1e-4)")
    p.add_argument("--model-out", dest="model_out", help="model JSON path (default: workdir/model.json)")
    p.add_argument("--curve-out", dest="curve_out", help="curve CSV path (default: workdir/curve.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the held-out split and emit reports")
    add_common(p)
    p.add_argument("--workdir", required=True, help="pipeline work directory")
    p.add_argument("--model", help="model JSON path (default: workdir/model.json)")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
