#!/usr/bin/env python3
"""End-to-end benchmark of the qtc pipeline, run in-process through qtc.cli.main.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 50 --trace 0

Set-up imports qtc from this checkout's ``src/`` and writes the workload's
corpus (timed as ``setup_s``).  Then whole pipeline passes repeat while the
next one is expected to end within ``--seconds`` (at least two run), with
set-up repeated between them.  In an untraced pass each stage shorter than
``OP_MIN_S`` reruns, and the pass counts the median of its runs.  Every CLI
stage invocation is one operation, and an operation fails on a non-zero exit,
a raised exception or a failed output check.  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics come from the traced ones.
The last stdout line is the JSON result; the environment, the artifact digest
and the per-metric lines come before it, and the full record (spans included)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, TRACED, Tracer, span_name
from workloads import ALL_OPERATIONS, WORKLOADS, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Set-up also repeats between passes until this much time is spent, so its
# median samples the whole run, as the pass metrics do.
SETUP_GAP_S = 0.3
# In an untraced pass, a stage reruns until its runs add up to OP_MIN_S, at
# most OP_MAX_RUNS times; sub-second stages then give several samples a pass.
OP_MIN_S = 0.5
OP_MAX_RUNS = 5
WARMUP_PER_CLASS = 8
# A traced run needs an untraced and a traced pass; a large pass takes 10-15 s.
MIN_PASSES = 2

# Every end-to-end metric exists on every workload and lasts at least tens of
# milliseconds there, so its median over a run's passes holds still.  Single
# stages of a few milliseconds (reduce, svc training, ...) are too noisy for a
# bound; their times are per-layer metrics (stage.<op>_s) of the traced run.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "kernel_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_qsvc": "ratio",
    "accuracy_vqc": "ratio",
}
PER_LAYER = {**LAYER_METRICS, **{f"stage.{op}_s": "s" for op in ALL_OPERATIONS}}
# Only shot sampling and QNNC produce these, so on the workloads BENCHMARK.json
# lists (large, wide) they read a constant 0.  The record and the printed
# metric lines keep them; the one-line result does not.
SAMPLED_OR_QNNC_ONLY = {"qsim.sample_calls", "qsim.sample_s", "kernel.psd_project_s",
                        "stage.train_qnnc_s", "stage.evaluate_qnnc_s"}
RESULT_LAYER = {k: u for k, u in PER_LAYER.items() if k not in SAMPLED_OR_QNNC_ONLY}
# Traced functions only the shot-sampled estimators reach.
SAMPLED_ONLY = {"qsim.sample", "qsim.adjoint", "kernel.psd_project"}


# ------------------------------------------------------------------ set-up


def set_up(workload, seed: int, corpus: str):
    """One timed set-up; returns (seconds, (cli, synth, corpus modules))."""
    t0 = time.perf_counter()
    modules = import_qtc()
    write_corpus(modules[1], modules[2], workload, seed, corpus)
    return time.perf_counter() - t0, modules


def import_qtc():
    """Fresh import of qtc from this checkout; returns (cli, synth, corpus)."""
    for name in [n for n in sys.modules if n == "qtc" or n.startswith("qtc.")]:
        del sys.modules[name]
    cli = importlib.import_module("qtc.cli")
    return cli, sys.modules["qtc.synth"], sys.modules["qtc.corpus"]


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git (which would search parents)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    qsim = sys.modules["qtc.qsim"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qsim_backend": qsim.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas_lib,
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in thread_vars},
    }


# ------------------------------------------------------------------ checks


def snapshot(workdir: str, cache: dict) -> dict:
    """SHA-256 of every workdir file, manifests without their created_utc key.

    Digests of files of 1 MiB or more are reused while (path, size, mtime) is
    unchanged; smaller files are rewritten fast enough that a same-size
    rewrite can keep its mtime, so they are always hashed.
    """
    out = {}
    for dirpath, dirnames, filenames in os.walk(workdir):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            st = os.stat(path)
            key = (path, st.st_size, st.st_mtime_ns)
            digest = cache.get(key)
            if digest is None:
                digest = file_digest(path)
                if st.st_size >= 1 << 20:
                    cache[key] = digest
            out[os.path.relpath(path, workdir)] = digest
    return out


def file_digest(path: str) -> str:
    if path.endswith("manifest.json"):
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.pop("created_utc", None)
        return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("utf-8")).hexdigest()
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def check_gram(path: str, sampled: bool) -> list[str]:
    K = np.loadtxt(path, delimiter=",", ndmin=2)
    if sampled:
        if K.min() < 0.0 or K.max() > 1.0:
            return [f"sampled Gram entry outside [0, 1] (min {K.min()}, max {K.max()})"]
        return []
    problems = []
    if np.max(np.abs(K - K.T)) > 1e-12:
        problems.append("exact Gram is not symmetric")
    if np.max(np.abs(np.diag(K) - 1.0)) > 1e-12:
        problems.append("exact Gram diagonal is not 1")
    lowest = float(np.linalg.eigvalsh(0.5 * (K + K.T)).min())
    if lowest < -1e-9:
        problems.append(f"exact Gram has eigenvalue {lowest} < -1e-9")
    return problems


def check_operation(op: str, workload, workdir: str, first_pass: bool, accuracy: dict) -> list[str]:
    """Output checks after one operation; records evaluate accuracies in ``accuracy``."""
    if op == "kernel" and first_pass:
        return check_gram(os.path.join(workdir, "gram.csv"), workload.sampled)
    if op.startswith("evaluate_"):
        model = op.removeprefix("evaluate_")
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("model_type") != model:
            return [f"report.json is for {report.get('model_type')!r}, expected {model!r}"]
        accuracy[model] = report["accuracy"]
        floor = workload.floors.get(model)
        if floor is not None and report["accuracy"] < floor:
            return [f"{model} accuracy {report['accuracy']:.4f} below floor {floor}"]
    return []


# ------------------------------------------------------------------ passes


def run_operation(cli, argv: list[str]) -> tuple[float, list[str]]:
    """One CLI invocation, output captured; returns (seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 0
        problems.append("raised:\n" + traceback.format_exc())
    seconds = time.perf_counter() - t0
    if code not in (0, None):
        problems.append(f"exit code {code}: {err.getvalue().strip()}")
    return seconds, problems


def run_pass(cli, workload, ops, workdir: str, index: int, tracer: Tracer | None, cache: dict):
    """One pipeline pass; returns its record (times, accuracies, failures, digest).

    Untraced, a stage reruns as ``OP_MIN_S`` asks and its time is the median
    of its runs; traced, every stage runs once, so the spans cover one pass.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    times, runs, accuracy, failures, snapshots = {}, {}, {}, [], []
    if tracer is not None:
        tracer.install()
    try:
        for op, argv in ops:
            if tracer is not None:
                tracer.begin(f"cli.{op}")
            runs[op], problems = [], []
            try:
                while not problems:
                    seconds, problems = run_operation(cli, argv)
                    runs[op].append(seconds)
                    enough = len(runs[op]) >= OP_MAX_RUNS or sum(runs[op]) >= OP_MIN_S
                    if tracer is not None or enough:
                        break
            finally:
                if tracer is not None:
                    tracer.end()
            times[op] = statistics.median(runs[op])
            if not problems:
                problems = check_operation(op, workload, workdir, index == 0, accuracy)
            failures += [f"pass {index} {op}: {p}" for p in problems]
            snapshots.append([op, snapshot(workdir, cache)])
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256(json.dumps(snapshots, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "index": index,
        "traced": tracer is not None,
        "times": times,
        "runs": runs,
        "pipeline_s": sum(times.values()),
        "accuracy": accuracy,
        "failures": failures,
        "digest": digest,
    }


def warm_up(cli, synth, corpus_mod, workload, seed: int, workroot: str) -> float:
    """Untimed pass with the workload's flags on a small corpus; returns its seconds.

    It lets NumPy's and the interpreter's lazy first-call work finish before
    timing, at a fraction of a full pass's cost.
    """
    small = dataclasses.replace(workload, per_class=WARMUP_PER_CLASS)
    corpus = os.path.join(workroot, "warmup.csv")
    write_corpus(synth, corpus_mod, small, seed, corpus)
    total = 0.0
    for op, argv in small.operations(corpus, os.path.join(workroot, "warmup")):
        seconds, problems = run_operation(cli, argv)
        if problems:
            raise RuntimeError(f"warm-up {op} failed: {problems}")
        total += seconds
    return total


def stage_sum(record: dict, prefix: str) -> float:
    return sum(t for op, t in record["times"].items() if op.startswith(prefix))


def missing_spans(workload, tracers: list[Tracer]) -> list[str]:
    """Traced functions that record calls on this workload at the seed commit but not now."""
    expected = {span_name(m, a) for m, a, _, _ in TRACED}
    if not workload.sampled:
        expected -= SAMPLED_ONLY
    return sorted(expected - set().union(*(t.functions_called() for t in tracers)))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, check outputs; returns the full record."""
    workload = WORKLOADS[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        corpus = os.path.join(workroot, "corpus.csv")
        setup_times = []
        for _ in range(SETUP_REPEATS):
            took, (cli, synth, corpus_mod) = set_up(workload, seed, corpus)
            setup_times.append(took)
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"qtc was imported from {cli.__file__}, not from {SRC}")
        warmup_s = warm_up(cli, synth, corpus_mod, workload, seed, workroot)

        workdir = os.path.join(workroot, "work")
        ops = workload.operations(corpus, workdir)
        passes, tracers, cache = [], [], {}
        start = last = time.perf_counter()
        while True:
            tracer = Tracer() if trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(cli, workload, ops, workdir, len(passes), tracer, cache))
            if tracer is not None:
                tracers.append(tracer)
            # Start no pass that would end after --seconds, judged by the last one.
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and 2 * now - last - start > seconds:
                break
            last = now
            gap = 0.0
            while gap < SETUP_GAP_S:
                took, (cli, synth, corpus_mod) = set_up(workload, seed, corpus)
                setup_times.append(took)
                gap += took
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    reference = passes[0]["digest"]
    failures += [
        f"pass {p['index']}: artifact digest {p['digest']} differs from pass 0 ({reference})"
        for p in passes
        if p["digest"] != reference
    ]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(p["pipeline_s"] for p in untraced),
        "kernel_s": statistics.median(p["times"]["kernel"] for p in untraced),
        "train_s": statistics.median(stage_sum(p, "train_") for p in untraced),
        "evaluate_s": statistics.median(stage_sum(p, "evaluate_") for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_qsvc": passes[0]["accuracy"].get("qsvc", 0.0),
        "accuracy_vqc": passes[0]["accuracy"].get("vqc", 0.0),
    }

    layer, warnings = {}, []
    if tracers:
        per_pass = [t.layer_metrics() for t in tracers]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layer["trace.overhead_s"] = layer["trace.pipeline_s"] - metrics["pipeline_s"]
        for op in ALL_OPERATIONS:
            layer[f"stage.{op}_s"] = statistics.median(p["times"].get(op, 0.0) for p in untraced)
        warnings = [
            f"{name}: {span} recorded no calls, but it does at the seed commit; "
            "has work been routed around the traced function?"
            for span in missing_spans(workload, tracers)
        ]

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "operations": [op for op, _ in workload.operations("CORPUS", "WORKDIR")],
        "passes": passes,
        "setup_times": setup_times,
        "warmup_s": warmup_s,
        "digest": reference,
        "attempted": sum(len(r) for p in passes for r in p["runs"].values()),
        "failures": failures,
        "warnings": warnings,
        "metrics": metrics,
        "layer_metrics": layer,
        "spans": [t.spans for t in tracers],
    }


def result_line(record: dict) -> dict:
    """The one-line JSON result: end-to-end metrics untraced, layer metrics traced."""
    if record["trace"]:
        values, units = record["layer_metrics"], RESULT_LAYER
    else:
        values, units = record["metrics"], END_TO_END
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtc" / "__init__.py").is_file():
        print(f"error: no qtc package under {SRC}; run from a qtc checkout", file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(record)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in record["warnings"]:
        print(f"warning: {line}", file=sys.stderr)
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(f"digest {record['digest']} over {len(record['passes'])} passes")
    values = record["layer_metrics"] if record["trace"] else record["metrics"]
    for key, unit in (PER_LAYER if record["trace"] else END_TO_END).items():
        print(f"metric {key} {values[key]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
