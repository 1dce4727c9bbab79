"""Damaged-artifact sweep: every file the quickstart writes, damaged, then
read by every command that reads it, in-process through qtc.cli.main.

A damage ends in exit 1 with exactly one stderr line.  That line starts with
"error: " and the damaged file's path, names the file only once and holds no
traceback, and no file under the run's directory changes.  EXCEPTIONS lists
the other outcomes: a damaged Gram cache is a miss that train recomputes, a
damage that leaves a valid file exits 0, a stage manifest that no longer
hashes as the model's stage makes evaluate name the model first, and a model
whose kernel or decision values overflow exits 2 with one numerical error.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest

from qtc.cli import main

STAGE_FIELDS = ("classes", "created_utc", "parameters", "seed", "split", "stage", "upstream_hash")
GRAM_FIELDS = ("data_hash", "feature_map", "mode", "seed", "shape", "shots", "upstream_hash")
SVM_FIELDS = ("C", "classes", "config", "kernel", "per_class", "tol", "type", "upstream_hash")
VARIATIONAL_FIELDS = (
    "ansatz", "classes", "config", "converged", "evaluations", "feature_map", "final_loss",
    "interpret", "loss", "mode", "n_classes", "stop", "theta", "type", "upstream_hash")

# Each file, relative to the run's directory, with the top-level fields of a
# JSON file (each is deleted in turn) and the commands that read it.  In a
# command, "{base}" is the run's directory and "{work}" its workdir.
REDUCE = ("reduce",)
KERNEL = ("kernel",)
TRAIN_QSVC = ("train", "--model", "qsvc")
TRAIN_VQC = ("train", "--model", "vqc", "--iters", 6)
EVALUATE_QSVC = ("evaluate",)
EVALUATE_VQC = ("evaluate", "--model", "{work}/vqc_model.json")
EVALUATE_SVC = ("evaluate", "--model", "{work}/svc_model.json")
EVALUATE_QNNC = ("evaluate", "--model", "{work}/qnnc_model.json")
REDUCE_READERS = (KERNEL, TRAIN_QSVC, TRAIN_VQC, EVALUATE_QSVC, EVALUATE_VQC)
FILES = {
    "corpus.csv": ((), [("preprocess", "--corpus", "{base}/corpus.csv")]),
    "work/tfidf/features.csv": ((), [REDUCE]),
    "work/tfidf/manifest.json": (STAGE_FIELDS, [REDUCE]),
    "work/reduce/features.csv": ((), REDUCE_READERS),
    "work/reduce/manifest.json": (STAGE_FIELDS, REDUCE_READERS),
    "work/gram.npy": ((), [TRAIN_QSVC]),
    "work/gram.manifest.json": (GRAM_FIELDS, [TRAIN_QSVC]),
    "work/model.json": (SVM_FIELDS, [EVALUATE_QSVC]),
    "work/svc_model.json": (SVM_FIELDS, [EVALUATE_SVC]),
    "work/vqc_model.json": (VARIATIONAL_FIELDS, [EVALUATE_VQC]),
    "work/qnnc_model.json": (VARIATIONAL_FIELDS, [EVALUATE_QNNC]),
}


def _json_edit(edit):
    """A damage that parses the JSON, changes it in place with ``edit`` and writes it."""
    def damage(data):
        value = json.loads(data)
        edit(value)
        return json.dumps(value).encode()
    return damage


def _drop(key):
    return _json_edit(lambda d: d.pop(key))


def _ff_at_line_3(data):
    """``data`` with a 0xff byte inserted where its third line starts."""
    start = data.index(b"\n", data.index(b"\n") + 1) + 1
    return data[:start] + b"\xff" + data[start:]


def _damages(name, fields):
    yield "empty", lambda data: b""
    yield "half", lambda data: data[:len(data) // 2]
    yield "0xff at line 3", _ff_at_line_3
    if name.endswith(".json"):
        yield "list", lambda data: json.dumps([json.loads(data)]).encode()
        for key in fields:
            yield f"drop {key}", _drop(key)


def _label(index):
    """A damage that sets the label index, the second field, of a features.csv's second row."""
    def damage(data):
        lines = data.split(b"\n")
        doc_id, _, values = lines[2].split(b",", 2)
        lines[2] = b"%s,%d,%s" % (doc_id, index, values)
        return b"\n".join(lines)
    return damage


def _nan_at_symmetric_pair(data):
    """gram.npy bytes with NaN at K[0, 1] and K[1, 0], so the Gram stays bitwise symmetric."""
    K = np.load(io.BytesIO(data))
    K[0, 1] = K[1, 0] = np.nan
    out = io.BytesIO()
    np.lib.format.write_array(out, K, version=(1, 0))
    return out.getvalue()


def _repeat_last_row(data):
    """``data`` with its last row written again, so that row's id has two rows."""
    return data + data.rstrip(b"\n").rsplit(b"\n", 1)[1] + b"\n"


REPEAT = [("last row's id repeated", _repeat_last_row)]


def _retyped(value):
    """A JSON value of another type than ``value``: an int as a float, a float
    as a string, a list inside an object and anything else inside a list."""
    if type(value) is int:
        return float(value)
    if type(value) is float:
        return str(value)
    return {"items": value} if isinstance(value, list) else [value]


def _edit_at(path, new):
    """A damage that replaces the field at ``path`` (keys and indices from the
    top) by ``new(old)``, or deletes it when ``new`` is None."""
    def edit(d):
        *parents, key = path
        for parent in parents:
            d = d[parent]
        if new is None:
            del d[key]
        else:
            d[key] = new(d[key])
    return _json_edit(edit)


def _manifest_damages(fields, nested, integers):
    """Every field retyped, every nested field retyped and deleted, and each
    integer field set to -1 and to 2**70."""
    for key in fields:
        yield f"{key} retyped", _edit_at((key,), _retyped)
    for parent, keys in nested.items():
        for key in keys:
            yield f"{parent}.{key} retyped", _edit_at((parent, key), _retyped)
            yield f"drop {parent}.{key}", _edit_at((parent, key), None)
    for path in integers:
        for label, value in (("-1", -1), ("2**70", 2**70)):
            yield f"{'.'.join(map(str, path))} {label}", _edit_at(path, lambda old, v=value: v)


STAGE_DAMAGES = list(_manifest_damages(
    STAGE_FIELDS, {"split": ("seed", "test_fraction", "test_ids", "train_ids")},
    [("seed",), ("split", "seed")]))

# Inputs that no qtc writer produces, and readers reject, and field changes
# that EXCEPTIONS lists where a reader does not read the field.
EXTRA = {
    "work/tfidf/features.csv": REPEAT,
    "work/reduce/features.csv": [("label index 99", _label(99)),
                                 ("label index 2**70", _label(2**70)), *REPEAT],
    "work/gram.npy": [("NaN at a symmetric pair", _nan_at_symmetric_pair)],
    "work/gram.manifest.json": list(_manifest_damages(
        GRAM_FIELDS, {"feature_map": ("entanglement", "kind", "n_qubits", "reps")},
        [("shape", 0), ("shape", 1), ("shots",), ("seed",)])),
    "work/tfidf/manifest.json": STAGE_DAMAGES,
    "work/reduce/manifest.json": [("split null", _json_edit(lambda d: d.update(split=None))),
                                  *STAGE_DAMAGES],
    "work/model.json": [("entanglement full", _json_edit(
        lambda d: d["kernel"]["feature_map"].update(entanglement="full")))],
    "work/vqc_model.json": [("entanglement full", _json_edit(
        lambda d: d["feature_map"].update(entanglement="full")))],
    "work/svc_model.json": [
        ("degree 2**70", _json_edit(lambda d: d["kernel"]["poly"].update(degree=2**70))),
        ("gamma 1e308", _json_edit(lambda d: d["kernel"]["poly"].update(gamma=1e308))),
        ("coef0 1e308", _json_edit(lambda d: d["kernel"]["poly"].update(coef0=1e308))),
        ("a dual coefficient 1e308", _json_edit(
            lambda d: d["per_class"][0]["dual_coefs"].__setitem__(0, 1e308))),
        ("C and class 0's dual coefficients 1e308", _json_edit(
            lambda d: (d.update(C=1e308),
                       d["per_class"][0].update(dual_coefs=[1e308] * len(d["per_class"][0]["dual_coefs"]))))),
    ],
}

# Outcomes other than a one-line error about the file, by (file, damage,
# command); "*" stands for every damage.  "miss" and "hit" are Gram cache
# reads, reported on stdout; they and "valid" exit 0 with nothing on stderr.
# "numerical" exits 2 with one "numerical error: " line.
EXCEPTIONS = {
    # The polynomial kernel overflows, or the decision values do.
    **{("work/svc_model.json", damage, EVALUATE_SVC): "numerical"
       for damage in ("gamma 1e308", "coef0 1e308", "C and class 0's dual coefficients 1e308")},
    # A damaged cache is recomputed.  data_hash is part of the cache key, so
    # without it the cache is stale: a miss too.
    ("work/gram.npy", "*", TRAIN_QSVC): "miss",
    ("work/gram.manifest.json", "*", TRAIN_QSVC): "miss",
    # upstream_hash is not part of the cache key.
    **{("work/gram.manifest.json", damage, TRAIN_QSVC): "hit"
       for damage in ("drop upstream_hash", "upstream_hash retyped")},
    # Fields that evaluate does not read.
    **{(name, f"drop {key}", command): "valid"
       for name, command in (("work/model.json", EVALUATE_QSVC),
                             ("work/svc_model.json", EVALUATE_SVC),
                             ("work/vqc_model.json", EVALUATE_VQC),
                             ("work/qnnc_model.json", EVALUATE_QNNC))
       for key in ("classes", "config")},
    ("work/vqc_model.json", "drop final_loss", EVALUATE_VQC): "valid",
    ("work/qnnc_model.json", "drop final_loss", EVALUATE_QNNC): "valid",
    # created_utc is not hashed, so no reader sees it go or change.
    **{(f"work/{stage}/manifest.json", damage, command): "valid"
       for damage in ("drop created_utc", "created_utc retyped")
       for stage, commands in (("tfidf", [REDUCE]), ("reduce", REDUCE_READERS))
       for command in commands},
    # preprocess writes any seed >= 0, in both places.  Changed, the stage
    # hashes differently, which only a model's upstream_hash check sees:
    # evaluate's error is about the model, trained against a stage other
    # than this one.
    **{(f"work/{stage}/manifest.json", damage, command): outcome
       for damage in ("seed 2**70", "split.seed 2**70")
       for stage, commands, outcome in (
           ("tfidf", [REDUCE], "valid"),
           ("reduce", (KERNEL, TRAIN_QSVC, TRAIN_VQC), "valid"),
           ("reduce", (EVALUATE_QSVC, EVALUATE_VQC), "stale"))
       for command in commands},
}

CASES = [
    pytest.param(name, damage, how, command,
                 EXCEPTIONS.get((name, damage, command),
                                EXCEPTIONS.get((name, "*", command), "error")),
                 id=f"{name}-{damage}-{' '.join(map(str, command)).replace('{work}/', '')}")
    for name, (fields, commands) in FILES.items()
    for damage, how in [*_damages(name, fields), *EXTRA.get(name, [])]
    for command in commands
]


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """A directory holding corpus.csv and a workdir with every artifact."""
    base = tmp_path_factory.mktemp("quickstart")
    work = base / "work"
    for argv in [
        ("synth", "--per-class", 10, "--out", base / "corpus.csv"),
        ("preprocess", "--corpus", base / "corpus.csv", "--workdir", work),
        ("reduce", "--workdir", work),
        ("kernel", "--workdir", work),
        ("train", "--model", "qsvc", "--workdir", work),
        ("train", "--model", "vqc", "--iters", 6, "--workdir", work,
         "--model-out", work / "vqc_model.json"),
        ("train", "--model", "svc", "--workdir", work, "--model-out", work / "svc_model.json"),
        ("train", "--model", "qnnc", "--iters", 6, "--workdir", work,
         "--model-out", work / "qnnc_model.json"),
    ]:
        assert _run(argv)[0] == 0, argv
    return base


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _snapshot(base):
    return {p.relative_to(base): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def test_table_lists_every_top_level_field(quickstart):
    for name, (fields, _) in FILES.items():
        if name.endswith(".json"):
            assert tuple(sorted(json.loads((quickstart / name).read_text()))) == fields, name


@pytest.mark.parametrize("name, damage, how, command, outcome", CASES)
def test_damaged_file(quickstart, tmp_path, name, damage, how, command, outcome):
    base = shutil.copytree(quickstart, tmp_path / "run")
    work, path = base / "work", base / name
    path.write_bytes(how(path.read_bytes()))
    before = _snapshot(base)
    argv = [str(a).format(base=base, work=work) for a in command] + ["--workdir", work]
    code, out, err = _run(argv)
    if outcome == "numerical":
        assert code == 2, out
        assert err.count("\n") == 1 and err.startswith("numerical error: "), err
        assert "Traceback" not in err and "Warning" not in err, err
        assert _snapshot(base) == before
    elif outcome in ("error", "stale"):
        assert code == 1, out
        assert err.count("\n") == 1 and "Traceback" not in err, err
        if outcome == "stale":
            assert f"model.json: trained against a stage other than {path};" in err
        else:
            assert err.startswith(f"error: {path}: "), err
        assert err.count(str(path)) == 1, err
        assert _snapshot(base) == before
    else:
        assert (code, err) == (0, "")
        if outcome != "valid":
            assert f"gram cache: {outcome}" in out
