"""Span tracing of the qtc layers, installed from outside the package.

Each traced function is a module attribute of a qtc layer (``qtc.kernel.gram``,
``qtc.qsim.run``, ...).  ``Tracer.install`` replaces that function object under
every name any loaded ``qtc`` module binds it to, so ``qtc.kernel.run`` and
``qtc.variational.run`` are both covered, and ``uninstall`` puts the originals
back.  Nothing under ``src/`` is modified.

A span is (name, parent index, start, end, self time); self time is the
duration minus the time covered by its child spans.  Spans stay in memory
until the run writes them out.  Stage spans (``cli.<op>``) are the roots, so
the self times of one pass add up to the sum of its stage durations, and time
that no layer span covers is charged to ``cli.self_s``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _gates_built(args, kwargs, result) -> dict:
    return {"circuits.gates_built": len(result.gates)}


def _run_counts(args, kwargs, result) -> dict:
    circuit = args[0] if args else kwargs["circuit"]
    gates = len(circuit.gates)
    # Computed, not measured: each gate reads and writes every complex128 amplitude.
    return {
        "qsim.gates_applied": gates,
        "qsim.amplitude_bytes": gates * (1 << circuit.n_qubits) * 16 * 2,
    }


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _save_stage_counts(args, kwargs, result) -> dict:
    return {"corpus.stage_bytes": _dir_bytes(args[0] if args else kwargs["directory"])}


def _save_gram_counts(args, kwargs, result) -> dict:
    directory = args[0] if args else kwargs["directory"]
    return {"kernel.gram_bytes": os.path.getsize(os.path.join(directory, "gram.csv"))}


# (module, attribute, metric its self time is charged to, counter hook)
TRACED = [
    ("qtc.corpus", "load_corpus", "corpus.load_corpus_s", None),
    ("qtc.corpus", "fit_tfidf", "corpus.tfidf_s", None),
    ("qtc.corpus", "transform_tfidf", "corpus.tfidf_s", None),
    ("qtc.corpus", "save_stage", "corpus.save_stage_s", _save_stage_counts),
    ("qtc.corpus", "load_stage", "corpus.load_stage_s", None),
    ("qtc.reduce", "fit_pca", "reduce.pca_s", None),
    ("qtc.reduce", "transform_pca", "reduce.pca_s", None),
    ("qtc.reduce", "fit_scaler", "reduce.pca_s", None),
    ("qtc.reduce", "transform_scale", "reduce.pca_s", None),
    ("qtc.circuits", "build_feature_map", "circuits.build_s", _gates_built),
    ("qtc.circuits", "build_ansatz", "circuits.build_s", _gates_built),
    ("qtc.circuits", "bind_ansatz", "circuits.build_s", _gates_built),
    ("qtc.circuits", "compose", "circuits.build_s", _gates_built),
    # adjoint lives in qsim but builds a circuit, so it counts as construction.
    ("qtc.qsim", "adjoint", "circuits.build_s", _gates_built),
    ("qtc.qsim", "run", "qsim.run_s", _run_counts),
    ("qtc.qsim", "sample", "qsim.sample_s", None),
    ("qtc.kernel", "gram", "kernel.gram_self_s",
     lambda a, k, r: {"kernel.entries": int(r.values.size)}),
    ("qtc.kernel", "psd_project", "kernel.psd_project_s", None),
    ("qtc.kernel", "save_gram", "kernel.save_gram_s", _save_gram_counts),
    ("qtc.kernel", "load_gram", "kernel.load_gram_s", None),
    ("qtc.svm", "train_multiclass", "svm.train_s",
     lambda a, k, r: {"svm.support_vectors": sum(len(m.support) for m in r.models)}),
    ("qtc.svm", "poly_gram", "svm.poly_gram_s", None),
    ("qtc.optimizer", "minimize", "optimizer.self_s",
     lambda a, k, r: {"optimizer.evaluations": len(r[2])}),
    ("qtc.optimizer", "write_trace_csv", "optimizer.write_curve_s", None),
    ("qtc.variational", "train", "variational.train_self_s", None),
    ("qtc.variational", "loss", "variational.loss_self_s", None),
    ("qtc.variational", "predict", "variational.predict_s", None),
    ("qtc.metrics", "confusion", "metrics.report_s", None),
    ("qtc.metrics", "report", "metrics.report_s", None),
    ("qtc.metrics", "render_report", "metrics.report_s", None),
]

# Call counters reported as metrics, keyed by the span that is counted.
CALL_COUNTERS = {
    "corpus.load_stage": "corpus.load_stage_calls",
    "qsim.run": "qsim.run_calls",
    "qsim.sample": "qsim.sample_calls",
    "kernel.gram": "kernel.gram_calls",
    "variational.loss": "variational.loss_calls",
}
BUILD_SPANS = {f"circuits.{a}" for m, a, _, _ in TRACED if m == "qtc.circuits"} | {"qsim.adjoint"}

# Layer metrics in report order, with units.  Every span's self time lands in
# exactly one of the "_s" metrics, so per pass they sum to trace.pipeline_s.
LAYER_METRICS = {
    "corpus.load_corpus_s": "s",
    "corpus.tfidf_s": "s",
    "corpus.save_stage_s": "s",
    "corpus.load_stage_s": "s",
    "corpus.load_stage_calls": "count",
    "corpus.stage_bytes": "B",
    "reduce.pca_s": "s",
    "circuits.build_calls": "count",
    "circuits.build_s": "s",
    "circuits.gates_built": "count",
    "qsim.run_calls": "count",
    "qsim.run_s": "s",
    "qsim.gates_applied": "count",
    "qsim.amplitude_bytes": "B-computed",
    "qsim.sample_calls": "count",
    "qsim.sample_s": "s",
    "kernel.gram_calls": "count",
    "kernel.entries": "count",
    "kernel.gram_self_s": "s",
    "kernel.psd_project_s": "s",
    "kernel.save_gram_s": "s",
    "kernel.load_gram_s": "s",
    "kernel.gram_bytes": "B",
    "kernel.cache_hit_ratio": "ratio",
    "svm.train_s": "s",
    "svm.poly_gram_s": "s",
    "svm.support_vectors": "count",
    "optimizer.evaluations": "count",
    "optimizer.self_s": "s",
    "optimizer.write_curve_s": "s",
    "variational.loss_calls": "count",
    "variational.loss_self_s": "s",
    "variational.predict_s": "s",
    "variational.train_self_s": "s",
    "metrics.report_s": "s",
    "cli.self_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


SELF_METRIC = {span_name(m, a): metric for m, a, metric, _ in TRACED}


class Tracer:
    """Records nested spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, self]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        t = time.perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[3] = t
        duration = t - span[2]
        span[4] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name a qtc module binds it to."""
        modules = [m for n, m in sys.modules.items() if n == "qtc" or n.startswith("qtc.")]
        for module_name, attr, _, counter in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, span_name(module_name, attr), counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (everything but trace.overhead_s)."""
        out = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_s"}
        out.update(self.counts)
        roots_with_gram = set()
        for index, (name, parent, start, end, self_time) in enumerate(self.spans):
            if parent == -1:
                out["cli.self_s"] += self_time
                out["trace.pipeline_s"] += end - start
            else:
                out[SELF_METRIC[name]] += self_time
            if name in CALL_COUNTERS:
                out[CALL_COUNTERS[name]] += 1
            if name in BUILD_SPANS:
                out["circuits.build_calls"] += 1
            if name == "kernel.gram":
                roots_with_gram.add(self.root_of(index))
        train_qsvc = [i for i, s in enumerate(self.spans) if s[0] == "cli.train_qsvc"]
        if train_qsvc:
            hits = sum(1 for i in train_qsvc if i not in roots_with_gram)
            out["kernel.cache_hit_ratio"] = hits / len(train_qsvc)
        return out

    def root_of(self, index: int) -> int:
        while self.spans[index][1] != -1:
            index = self.spans[index][1]
        return index

    def functions_called(self) -> set[str]:
        """Names of the traced functions that recorded at least one call."""
        return {name for name, parent, *_ in self.spans if parent != -1}
