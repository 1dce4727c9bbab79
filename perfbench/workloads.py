"""Workload definitions and seeded corpus generation.

Every workload runs preprocess -> reduce -> kernel -> (train, evaluate) per
model through ``qtc.cli.main``, on the reference synthetic corpus (the
generator's default seed), so the accuracy floors below are the acceptance
suite's.  The benchmark seed changes the input bytes without changing what
the pipeline computes: it draws fresh document ids and shuffles the tokens
inside each document, which a bag-of-words TF-IDF cannot see.  Letting the
seed pick the generator seed instead would change the data itself; measured
on the desk configuration, VQC test accuracy then ranges from 0.375 to 0.958
across generator seeds 1-12 and falls below its 0.60 floor on 3 of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

REFERENCE_CORPUS_SEED = 13  # qtc synth's default seed: the acceptance corpus
MODELS = ("svc", "qsvc", "vqc", "qnnc")
ALL_OPERATIONS = ("preprocess", "reduce", "kernel") + tuple(
    f"{stage}_{model}" for model in MODELS for stage in ("train", "evaluate")
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    per_class: int = 40
    components: int = 2
    shots: int = 0
    models: tuple[str, ...] = MODELS
    iters: dict = field(default_factory=dict)  # model -> optimizer budget
    floors: dict = field(default_factory=dict)  # model -> minimum test accuracy

    @property
    def sampled(self) -> bool:
        return self.shots > 0

    def operations(self, corpus: str, workdir: str) -> list[tuple[str, list[str]]]:
        """The pass as (operation name, qtc argv) pairs, in execution order."""
        shots = ["--shots", str(self.shots)] if self.shots else []
        ops = [
            ("preprocess", ["preprocess", "--corpus", corpus, "--workdir", workdir]),
            ("reduce", ["reduce", "--workdir", workdir, "--components", str(self.components)]),
            ("kernel", ["kernel", "--workdir", workdir] + shots),
        ]
        for model in self.models:
            argv = ["train", "--workdir", workdir, "--model", model]
            if model != "svc":  # the polynomial SVC has no shot estimator
                argv += shots
            if model in self.iters:
                argv += ["--iters", str(self.iters[model])]
            ops.append((f"train_{model}", argv))
            ops.append((f"evaluate_{model}", ["evaluate", "--workdir", workdir]))
        return ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "desk",
            "the paper's reference experiment at its default flags; per-point circuit "
            "building and simulation in VQC/QNNC training dominate",
            floors={"svc": 0.85, "qsvc": 0.85, "vqc": 0.60},
        ),
        Workload(
            "sampled",
            "desk with 1024-shot estimates; per-entry circuits and qsim.sample dominate, "
            "the path binomial sampling and a single test Gram change",
            shots=1024,
            floors={"svc": 0.85, "qsvc": 0.85, "vqc": 0.60},
        ),
        Workload(
            "large",
            "2001 train / 501 test points at 2 qubits; Gram CSV save/load and O(m^2) "
            "SMO work dominate, the m = 2000 scale point",
            per_class=834,
            models=("svc", "qsvc", "vqc"),
            iters={"vqc": 6},  # the smallest budget the optimizer accepts for 4 angles
            floors={"svc": 0.85, "qsvc": 0.85},
        ),
        Workload(
            "wide",
            "the reference corpus at 12 qubits (4096 amplitudes); state width, not call "
            "count, dominates the simulator",
            per_class=20,  # 3x40 docs take 12 s a pass at this width
            components=12,
            models=("svc", "qsvc", "vqc"),
            iters={"vqc": 26},  # the smallest budget the optimizer accepts for 24 angles
        ),
    ]
}


def write_corpus(synth, corpus_mod, workload: Workload, seed: int, path: str) -> None:
    """Write the workload's corpus CSV; the seed varies ids and token order only."""
    docs = synth.synthesize_corpus(per_class=workload.per_class, seed=REFERENCE_CORPUS_SEED)
    rng = random.Random(seed)
    ids = rng.sample(range(10**9, 10**10), len(docs))
    shuffled = []
    for doc, doc_id in zip(docs, ids):
        tokens = doc.text.split()
        rng.shuffle(tokens)
        shuffled.append(corpus_mod.Document(str(doc_id), " ".join(tokens), doc.label))
    synth.write_corpus_csv(path, shuffled)
