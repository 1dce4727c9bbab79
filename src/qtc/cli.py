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
from .errors import (
    NUMBER, NumericalError, ParseError, SchemaError, ValidationError, VersioningError, json_field,
    naming, read_json, write_json,
)
from .optimizer import OptimizerConfig, check_budget, write_trace_csv
from .qsim import MAX_QUBITS, check_sampling

_FEATURE_MAPS = ("z", "zz")

# OPTIONS[command][name] = (default, help, allowed values or None).  Each
# option is the flag --name with "_" spelled "-"; --config keys use the name.
OPTIONS = {
    "synth": {
        "classes": (3, "number of classes", None),
        "per_class": (40, "documents per class", None),
        "vocab_size": (30, "total generator vocabulary", None),
        "seed": (13, "generator seed", None),
    },
    "preprocess": {
        "max_features": (20, "TF-IDF vocabulary cap", None),
        "test_fraction": (0.2, "held-out fraction per class", None),
        "seed": (7, "split shuffle seed", None),
        "id_col": ("ID", "id column name", None),
        "text_col": ("Resume_str", "text column name", None),
        "label_col": ("Category", "label column name", None),
    },
    "reduce": {
        "components": (2, "principal components kept", None),
        "scale_lo": (0.0, "scaled interval lower edge", None),
        "scale_hi": (math.pi, "scaled interval upper edge", None),
    },
    "kernel": {
        "feature_map": ("zz", "encoder kind", _FEATURE_MAPS),
        "reps": (2, "encoder repetitions", None),
        "shots": (0, "0 = exact, else samples per entry", None),
        "seed": (5, "sampling master seed", None),
    },
    "train": {
        "model": ("qsvc", "classifier type", ("svc", "qsvc", "vqc", "qnnc")),
        "C": (1.0, "SVM box constraint", None),
        "tol": (1e-3, "SMO KKT tolerance", None),
        "shots": (0, "0 = exact, else samples per estimate", None),
        "seed": (5, "sampling master seed", None),
        "iters": (30, "optimizer evaluation budget for vqc/qnnc", None),
        "init_seed": (42, "ansatz angle init seed", None),
        "feature_map": ("zz", "encoder kind", _FEATURE_MAPS),
        "reps": (2, "encoder repetitions", None),
        "ansatz_reps": (1, "ansatz repetitions", None),
        "rho_begin": (1.0, "optimizer initial trust radius", None),
        "rho_end": (1e-4, "optimizer final trust radius", None),
    },
    "evaluate": {},
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over built-in defaults, and echo the result."""
    file_cfg = {}
    if args.config:
        file_cfg = read_json(args.config)
        # A key of another command is accepted: one file may serve several.
        unknown = sorted(set(file_cfg).difference(*OPTIONS.values()))
        if unknown:
            raise SchemaError(f"{args.config}: unknown key(s) {', '.join(map(repr, unknown))}")
    resolved = {}
    for key, (default, _, allowed) in OPTIONS[args.command].items():
        value = getattr(args, key)
        source = f"--{key.replace('_', '-')} {value}"  # where a disallowed value came from
        if value is None and key in file_cfg:
            # An int may stand in for a float; a bool never counts as a number.
            kind = NUMBER if isinstance(default, float) else type(default)
            with naming(args.config):
                value = json_field(file_cfg, key, kind)
            source = args.config
        elif value is None:
            value = default
        if allowed is not None and value not in allowed:
            raise ValidationError(
                f"{source}: {key} must be one of {', '.join(allowed)}, got {value!r}")
        resolved[key] = value
    check_sampling(resolved.get("shots", 0), resolved.get("seed", 0))
    if resolved.get("init_seed", 0) < 0:
        raise ValidationError(f"init_seed must be >= 0, got {resolved['init_seed']}")
    print(f"{args.command} config: {json.dumps(resolved, sort_keys=True)}")
    return resolved


def _options(cfg: dict, *names: str):
    """Name the given options and their values in a ValidationError raised inside.

    The specs and fitters name their own fields ("reps", "k"); the user set
    those through these options.
    """
    return naming(", ".join(f"--{name.replace('_', '-')} {cfg[name]}" for name in names))


def _feature_map(cfg: dict, n_qubits: int) -> FeatureMapSpec:
    with _options(cfg, "reps"):
        return FeatureMapSpec(cfg["feature_map"], n_qubits, cfg["reps"])


def _data_hash(ids, values: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update("\n".join(ids).encode("utf-8"))
    h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------- commands


def cmd_synth(args, cfg: dict) -> None:
    with _options(cfg, "classes", "per_class", "vocab_size"):
        docs = synth_mod.synthesize_corpus(
            classes=cfg["classes"],
            per_class=cfg["per_class"],
            vocab_size=cfg["vocab_size"],
            seed=cfg["seed"],
        )
    synth_mod.write_corpus_csv(args.out, docs)
    print(f"wrote {len(docs)} documents to {args.out}")


def cmd_preprocess(args, cfg: dict) -> None:
    docs = corpus_mod.load_corpus(
        args.corpus, id_col=cfg["id_col"], text_col=cfg["text_col"], label_col=cfg["label_col"]
    )
    counts = corpus_mod.count_terms(docs)
    model = corpus_mod.fit_tfidf(counts, cfg["max_features"])
    features = corpus_mod.transform_tfidf(model, counts)
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


def cmd_reduce(args, cfg: dict) -> None:
    with _options(cfg, "components"):
        if cfg["components"] > MAX_QUBITS:  # before the stage is read
            raise ValidationError(f"one qubit per component, at most MAX_QUBITS = {MAX_QUBITS}")
    stage = load_stage(os.path.join(args.workdir, "tfidf"), expect_stage="tfidf")
    with _options(cfg, "components"):
        pca = reduce_mod.fit_pca(stage.features, cfg["components"])
    projected = reduce_mod.transform_pca(pca, stage.features)
    train_rows = projected.rows_for(stage.split.train_ids)
    train_matrix = corpus_mod.FeatureMatrix(
        list(stage.split.train_ids), list(projected.feature_names), train_rows
    )
    with _options(cfg, "scale_lo", "scale_hi"):
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


def _split_arrays(stage, part: str):
    """Ids, feature rows and labels of the stage's "train" or "test" split."""
    ids = getattr(stage.split, f"{part}_ids")
    rows = stage.features.positions(ids)
    return ids, stage.features.values[rows], stage.labels[rows]


def cmd_kernel(args, cfg: dict) -> None:
    stage = load_stage(os.path.join(args.workdir, "reduce"), expect_stage="reduce")
    ids, X, _ = _split_arrays(stage, "train")
    spec = _feature_map(cfg, X.shape[1])
    g = kernel_mod.gram(spec, X, shots=cfg["shots"], seed=cfg["seed"])
    kernel_mod.save_gram(args.workdir, g, _data_hash(ids, X), manifest_hash(stage.manifest))
    print(f"gram: {g.values.shape[0]} x {g.values.shape[1]} ({g.mode})")


def _cached_gram(workdir, spec, shots, seed, data_hash):
    """The cached Gram, or None and why not: missing, damaged or stale.

    The manifest is read and compared first, so a stale cache costs no read
    of its values.  An exact Gram's manifest has null shots and seed.
    """
    try:
        manifest = kernel_mod.load_gram_manifest(workdir)
        expected = {"feature_map": spec.to_dict(), "data_hash": data_hash,
                    "shots": shots or None, "seed": seed if shots else None}
        stale = [key for key, value in expected.items() if manifest.get(key) != value]
        if stale:
            return None, f"stale (does not match: {', '.join(stale)})"
        g, _ = kernel_mod.load_gram(workdir, manifest)
    except OSError as exc:
        return None, f"missing ({os.path.basename(exc.filename or str(exc))})"
    except ValidationError as exc:
        return None, f"damaged ({exc})"
    return g, None


def cmd_train(args, cfg: dict) -> None:
    if cfg["model"] in ("svc", "qsvc"):
        svm_mod.check_params(cfg["C"], cfg["tol"])  # before any Gram is built or written
    stage = load_stage(os.path.join(args.workdir, "reduce"), expect_stage="reduce")
    ids, X, y = _split_arrays(stage, "train")
    # Every spec is built, and so checked, before any work starts.
    fm = None if cfg["model"] == "svc" else _feature_map(cfg, X.shape[1])
    if cfg["model"] in ("vqc", "qnnc"):
        with _options(cfg, "ansatz_reps"):
            ansatz = AnsatzSpec(X.shape[1], cfg["ansatz_reps"])
        with _options(cfg, "iters"):
            check_budget(cfg["iters"], ansatz.n_parameters)
        with _options(cfg, "rho_begin", "rho_end"):
            opt = OptimizerConfig(
                rho_begin=cfg["rho_begin"], rho_end=cfg["rho_end"], max_evaluations=cfg["iters"]
            )
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
            G = svm_mod.PolyRows(X, spec)
            payload["kernel"] = {"poly": spec.to_dict()}
        else:
            data_hash = _data_hash(ids, X)
            g, miss = _cached_gram(args.workdir, fm, cfg["shots"], cfg["seed"], data_hash)
            if g is None:
                g = kernel_mod.gram(fm, X, shots=cfg["shots"], seed=cfg["seed"])
                kernel_mod.save_gram(args.workdir, g, data_hash, upstream)
                print(f"gram cache: miss, {miss}; recomputed")
            else:
                print("gram cache: hit")
            G = g.values
            payload["kernel"] = {"feature_map": fm.to_dict(), "mode": g.mode,
                                 "shots": cfg["shots"], "seed": cfg["seed"]}
        payload.update(svm_mod.train_multiclass(G, y, C=cfg["C"], tol=cfg["tol"]).to_dict(ids))
    else:
        template = var_mod.VariationalModel(
            feature_map=fm,
            ansatz=ansatz,
            theta=np.zeros(ansatz.n_parameters),
            n_classes=len(stage.encoding.classes),
            loss_kind="cross_entropy" if cfg["model"] == "vqc" else "squared_error",
            shots=cfg["shots"],
            seed=cfg["seed"],
        )
        result = var_mod.train(X, y, template, opt, init_seed=cfg["init_seed"])
        curve_path = args.curve_out or os.path.join(args.workdir, "curve.csv")
        write_trace_csv(result.trace, curve_path)
        payload.update(result.to_dict())
        print(
            f"trained {cfg['model']} in {len(result.trace)} evaluations, "
            f"loss {result.trace.objectives[0]:.6f} -> {result.trace.best_so_far[-1]:.6f}"
        )
    write_json(model_path, payload)
    print(f"model written to {model_path}")


def cmd_evaluate(args, cfg: dict) -> None:
    stage_dir = os.path.join(args.workdir, "reduce")
    stage = load_stage(stage_dir, expect_stage="reduce")
    model_path = args.model or os.path.join(args.workdir, "model.json")
    payload = read_json(model_path)
    _, X_test, y_test = _split_arrays(stage, "test")
    n_classes = len(stage.encoding.classes)

    with naming(model_path):
        kind = json_field(payload, "type", str)
        if json_field(payload, "upstream_hash", str) != manifest_hash(stage.manifest):
            raise VersioningError(
                f"trained against a stage other than {os.path.join(stage_dir, 'manifest.json')}; "
                "rerun train"
            )
        if kind in ("svc", "qsvc"):
            model, support_ids = svm_mod.MulticlassSvm.from_dict(payload)
        elif kind in ("vqc", "qnnc"):
            model = var_mod.VariationalModel.from_dict(payload)
        else:
            raise ParseError(f"unknown model type {kind!r}")
        if model.n_classes != n_classes:
            raise VersioningError(
                f"model has {model.n_classes} classes, the reduce stage has {n_classes}"
            )
        if kind in ("vqc", "qnnc"):
            y_pred = var_mod.predict(model, X_test)
        else:
            # One test Gram against the union of all classes' support ids.
            support = stage.features.rows_for(support_ids)
            kernel = json_field(payload, "kernel", dict)
            if kind == "svc":
                spec = svm_mod.PolyKernelSpec.from_dict(json_field(kernel, "poly", dict))
                K = svm_mod.poly_gram(X_test, support, spec=spec)
            else:
                mode, shots = json_field(kernel, "mode", str), json_field(kernel, "shots", int)
                g = kernel_mod.gram(
                    FeatureMapSpec.from_dict(json_field(kernel, "feature_map", dict)),
                    X_test,
                    support,
                    shots=shots,
                    seed=json_field(kernel, "seed", int),
                )
                if g.mode != mode:  # gram alone derives the mode from shots
                    raise ParseError(f"kernel mode {mode!r} contradicts shots {shots}")
                K = g.values
            y_pred = svm_mod.predict_multiclass(model, K)

    matrix = metrics_mod.confusion(y_test, y_pred, n_classes)
    rep = metrics_mod.report(matrix, stage.encoding.classes)
    text = metrics_mod.render_report(rep)
    report_json = rep.to_dict()
    report_json["model_type"] = kind
    report_json["confusion"] = matrix.tolist()
    report_json["upstream_hash"] = payload["upstream_hash"]
    write_json(os.path.join(args.workdir, "report.json"), report_json)
    with open(os.path.join(args.workdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")


# ------------------------------------------------------------------- parser


COMMANDS = {
    "synth": ("generate a synthetic labeled corpus", cmd_synth),
    "preprocess": ("tokenize, fit TF-IDF, encode labels, split", cmd_preprocess),
    "reduce": ("PCA to the qubit budget plus range scaling", cmd_reduce),
    "kernel": ("assemble the training Gram matrix", cmd_kernel),
    "train": ("train a classifier on the reduced features", cmd_train),
    "evaluate": ("score the held-out split and emit reports", cmd_evaluate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtc",
        description="Hybrid classical/quantum text classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, (help_text, func) in COMMANDS.items():
        p = subparsers[command] = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file with option defaults")
        if command == "synth":
            p.add_argument("--out", required=True, help="output corpus CSV path")
        else:
            p.add_argument("--workdir", required=True, help="pipeline work directory")
        for name, (default, option_help, allowed) in OPTIONS[command].items():
            if allowed is not None:
                option_help += f", one of {', '.join(allowed)}"
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=type(default),
                           help=f"{option_help} (default: {default})")
    subparsers["preprocess"].add_argument("--corpus", required=True, help="input corpus CSV")
    model_json = "model JSON path (default: workdir/model.json)"
    subparsers["train"].add_argument("--model-out", help=model_json)
    subparsers["train"].add_argument("--curve-out",
                                     help="curve CSV path (default: workdir/curve.csv)")
    subparsers["evaluate"].add_argument("--model", help=model_json)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, _resolve(args))
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
