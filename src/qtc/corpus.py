"""Corpus ingestion, tokenization, TF-IDF features, labels, and stage storage.

Feature weighting follows the common smooth-idf convention:
idf_t = ln((1 + N) / (1 + df_t)) + 1 with raw in-document term counts, each
nonzero row L2-normalized afterward.  The vocabulary keeps the
``max_features`` terms with the highest corpus-wide raw frequency (ties
broken lexicographically ascending) and is stored sorted lexicographically.

Stage artifacts are plain CSV plus a JSON manifest so every intermediate is
diffable and reproduces bit-for-bit: floats are written with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import NUMBER, ParseError, SchemaError, ValidationError, VersioningError, json_field

__all__ = [
    "Document",
    "TfidfModel",
    "FeatureMatrix",
    "LabelEncoding",
    "DatasetSplit",
    "StageData",
    "STOPWORDS",
    "load_corpus",
    "preprocess",
    "fit_tfidf",
    "transform_tfidf",
    "encode_labels",
    "stratified_split",
    "save_stage",
    "load_stage",
    "manifest_hash",
]

# Compact English stopword list; enough for feature extraction, deliberately
# free of domain words.
STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    """.split()
)

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: str


@dataclass
class TfidfModel:
    """Fitted vocabulary with document frequencies and smooth idf weights."""

    vocabulary: list[str]
    document_frequency: list[int]
    idf: np.ndarray
    max_features: int
    corpus_size: int
    index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.index:
            self.index = {t: i for i, t in enumerate(self.vocabulary)}


@dataclass
class FeatureMatrix:
    """Row-per-sample real matrix with sample ids and column names."""

    ids: list[str]
    feature_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("feature matrix must be 2-D")
        if self.values.shape[0] != len(self.ids):
            raise ValidationError("row count does not match number of ids")
        if self.values.shape[1] != len(self.feature_names):
            raise ValidationError("column count does not match feature names")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("feature matrix contains non-finite values")

    def rows_for(self, ids) -> np.ndarray:
        pos = {d: i for i, d in enumerate(self.ids)}
        try:
            sel = [pos[d] for d in ids]
        except KeyError as exc:
            raise ValidationError(f"unknown sample id {exc.args[0]!r}") from exc
        return self.values[sel]


@dataclass
class LabelEncoding:
    """Bijection between sorted class names and indices 0..K-1."""

    classes: list[str]

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("duplicate class names")
        self._index = {c: i for i, c in enumerate(self.classes)}

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError as exc:
            raise ValidationError(f"unknown label {label!r}") from exc

    def label_of(self, index: int) -> str:
        return self.classes[index]


@dataclass
class DatasetSplit:
    train_ids: list[str]
    test_ids: list[str]
    test_fraction: float
    seed: int


def load_corpus(
    path,
    id_col: str = "ID",
    text_col: str = "Resume_str",
    label_col: str = "Category",
) -> list[Document]:
    """Read a labeled corpus from a CSV file with a header row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file")
        for col in (id_col, text_col, label_col):
            if col not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column {col!r}")
        docs: list[Document] = []
        seen: set[str] = set()
        for rowno, row in enumerate(reader, start=2):
            doc_id = row[id_col]
            if doc_id is None or row[text_col] is None or row[label_col] is None:
                raise ParseError(f"{path}: short row at line {rowno}")
            if not doc_id:
                raise ValidationError(f"{path}: empty id at line {rowno}")
            if not row[text_col].strip():
                raise ValidationError(f"{path}: empty text at line {rowno}")
            if doc_id in seen:
                raise ValidationError(f"{path}: duplicate id {doc_id!r} at line {rowno}")
            seen.add(doc_id)
            docs.append(Document(doc_id, row[text_col], row[label_col]))
    if not docs:
        raise ValidationError(f"{path}: no data rows")
    return docs


def preprocess(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop short/stop/numeric tokens."""
    tokens = _TOKEN_RE.split(text.lower())
    return [
        t
        for t in tokens
        if len(t) >= 2 and t not in STOPWORDS and not t.isdigit()
    ]


def fit_tfidf(docs: list[Document], max_features: int) -> TfidfModel:
    """Fit vocabulary and idf weights on a corpus."""
    if not docs:
        raise ValidationError("cannot fit TF-IDF on an empty corpus")
    if max_features < 1:
        raise ValidationError("max_features must be >= 1")
    total = Counter()
    doc_freq = Counter()
    for doc in docs:
        counts = Counter(preprocess(doc.text))
        total.update(counts)
        doc_freq.update(counts.keys())
    if not total:
        raise ValidationError("empty vocabulary after preprocessing")
    # Highest corpus frequency first, ties lexicographically ascending.
    ranked = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = sorted(term for term, _ in ranked[:max_features])
    n = len(docs)
    idf = np.array(
        [math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in vocab], dtype=float
    )
    return TfidfModel(
        vocabulary=vocab,
        document_frequency=[doc_freq[t] for t in vocab],
        idf=idf,
        max_features=max_features,
        corpus_size=n,
    )


def transform_tfidf(model: TfidfModel, docs: list[Document]) -> FeatureMatrix:
    """Count-times-idf rows, L2-normalized; out-of-vocabulary terms ignored."""
    values = np.zeros((len(docs), len(model.vocabulary)), dtype=float)
    for r, doc in enumerate(docs):
        for term, count in Counter(preprocess(doc.text)).items():
            col = model.index.get(term)
            if col is not None:
                values[r, col] = count * model.idf[col]
        norm = np.linalg.norm(values[r])
        if norm > 0.0:
            values[r] /= norm
    return FeatureMatrix([d.id for d in docs], list(model.vocabulary), values)


def encode_labels(docs: list[Document]) -> tuple[LabelEncoding, np.ndarray]:
    """Sorted class list plus the per-document index vector."""
    for doc in docs:
        if not doc.label:
            raise ValidationError(f"document {doc.id!r} has no label")
    encoding = LabelEncoding(sorted({d.label for d in docs}))
    vector = np.array([encoding.index_of(d.label) for d in docs], dtype=np.int64)
    return encoding, vector


def stratified_split(labels, ids, test_fraction: float, seed: int) -> DatasetSplit:
    """Per-class seeded shuffle; round(test_fraction * class_size) go to test."""
    labels = np.asarray(labels)
    ids = list(ids)
    if len(labels) != len(ids):
        raise ValidationError("labels and ids must have equal length")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    position = {doc_id: k for k, doc_id in enumerate(ids)}
    test_ids: list[str] = []
    train_ids: list[str] = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < 2:
            raise ValidationError(f"class {cls} has fewer than 2 samples")
        n_test = int(math.floor(test_fraction * members.size + 0.5))
        if n_test >= members.size:
            raise ValidationError(
                f"test_fraction {test_fraction} leaves class {cls} with no training document"
            )
        order = rng.permutation(members.size)
        test_ids.extend(ids[members[k]] for k in order[:n_test])
        train_ids.extend(ids[members[k]] for k in order[n_test:])
    # Emit in original corpus order so artifacts are stable.
    return DatasetSplit(
        train_ids=sorted(train_ids, key=position.__getitem__),
        test_ids=sorted(test_ids, key=position.__getitem__),
        test_fraction=test_fraction,
        seed=seed,
    )


@dataclass
class StageData:
    """One persisted pipeline stage, as loaded back from disk."""

    features: FeatureMatrix
    labels: np.ndarray
    encoding: LabelEncoding
    split: DatasetSplit | None
    manifest: dict


def manifest_hash(manifest: dict) -> str:
    """Stable digest of a manifest, ignoring its timestamp key."""
    stripped = {k: v for k, v in manifest.items() if k != "created_utc"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as csv.writer quotes it, except that a bare "\r" is quoted too.

    csv.writer quotes only for the characters of its own line terminator,
    "\n" here, but csv.reader also ends a row at an unquoted "\r".
    """
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_stage(
    directory,
    features: FeatureMatrix,
    labels,
    encoding: LabelEncoding,
    split: DatasetSplit | None = None,
    *,
    stage: str,
    parameters: dict | None = None,
    upstream_hash: str | None = None,
) -> dict:
    """Persist a stage as features.csv, labels.csv, and manifest.json.

    Returns the manifest that was written.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(features.ids):
        raise ValidationError("labels length does not match feature rows")
    os.makedirs(directory, exist_ok=True)

    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, ["id"] + features.feature_names)) + "\n")
        for doc_id, row in zip(features.ids, features.values.tolist()):
            fh.write(",".join([_csv_field(doc_id)] + [f"{v:.17g}" for v in row]) + "\n")

    with open(os.path.join(directory, "labels.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("id,label_index\n")
        for doc_id, lab in zip(features.ids, labels.tolist()):
            fh.write(f"{_csv_field(doc_id)},{lab}\n")

    manifest = {
        "stage": stage,
        "classes": list(encoding.classes),
        "seed": None if split is None else split.seed,
        "parameters": parameters or {},
        "split": None
        if split is None
        else {
            "train_ids": list(split.train_ids),
            "test_ids": list(split.test_ids),
            "test_fraction": split.test_fraction,
            "seed": split.seed,
        },
        "upstream_hash": upstream_hash,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_stage(directory, expect_stage: str | None = None) -> StageData:
    """Load a stage saved by save_stage; verifies the stage name if given."""
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise VersioningError(f"missing stage manifest: {manifest_path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: invalid JSON ({exc})") from exc

    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}")
    if expect_stage is not None and manifest.get("stage") != expect_stage:
        raise VersioningError(
            f"{directory}: expected stage {expect_stage!r}, found {manifest.get('stage')!r}"
        )
    try:
        encoding = LabelEncoding(json_field(manifest, "classes", list, items=str))
        s = json_field(manifest, "split", (dict, type(None)))
        split = None if s is None else DatasetSplit(
            train_ids=json_field(s, "train_ids", list, items=str),
            test_ids=json_field(s, "test_ids", list, items=str),
            test_fraction=float(json_field(s, "test_fraction", NUMBER)),
            seed=json_field(s, "seed", int),
        )
    except ParseError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from exc

    feat_path = os.path.join(directory, "features.csv")
    ids: list[str] = []
    rows: list[list[float]] = []
    with open(feat_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise ParseError(f"{feat_path}: malformed header")
        names = header[1:]
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{feat_path}: wrong field count at row {rowno}")
            ids.append(row[0])
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{feat_path}: bad value at row {rowno}") from exc
    features = FeatureMatrix(ids, names, np.asarray(rows, dtype=float).reshape(len(ids), len(names)))

    lab_path = os.path.join(directory, "labels.csv")
    label_by_id: dict[str, int] = {}
    with open(lab_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "label_index"]:
            raise ParseError(f"{lab_path}: malformed header")
        for rowno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ParseError(f"{lab_path}: wrong field count at row {rowno}")
            try:
                label_by_id[row[0]] = int(row[1])
            except ValueError as exc:
                raise ParseError(f"{lab_path}: bad label at row {rowno}") from exc
    try:
        labels = np.array([label_by_id[i] for i in ids], dtype=np.int64)
    except KeyError as exc:
        raise ParseError(f"{lab_path}: missing label for id {exc.args[0]!r}") from exc

    return StageData(features, labels, encoding, split, manifest)
