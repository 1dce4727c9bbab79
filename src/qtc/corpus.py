"""Corpus ingestion, tokenization, TF-IDF features, labels, and stage storage.

Feature weighting follows the common smooth-idf convention:
idf_t = ln((1 + N) / (1 + df_t)) + 1 with raw in-document term counts, each
nonzero row L2-normalized afterward.  The vocabulary keeps the
``max_features`` terms with the highest corpus-wide raw frequency (ties
broken lexicographically ascending) and is stored sorted lexicographically.

Each document is tokenized once, into a TermCounts table: the distinct
terms of every document with their in-document counts, held as flat term-id
and count arrays with per-document offsets.  fit_tfidf and transform_tfidf
both work from that table, so a caller that counts once can fit and
transform without tokenizing again; given documents, each counts them
itself.  The TF-IDF matrix is filled by one scatter over the table.

Stage artifacts are one CSV file plus a JSON manifest so every intermediate
is diffable and reproduces bit-for-bit: floats are written with 17
significant digits, which round-trips IEEE doubles exactly.  load_stage
reads features.csv column by column: one set of row lengths, the label
column through int() with one range check, each value column through
float().  Only when one of those checks fails does it walk the rows, so the
error names the first damaged row, as a row-by-row read would.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import NUMBER, ParseError, SchemaError, ValidationError, VersioningError, json_field
from .errors import naming, read_json, write_json

__all__ = [
    "Document",
    "TermCounts",
    "TfidfModel",
    "FeatureMatrix",
    "LabelEncoding",
    "DatasetSplit",
    "StageData",
    "STOPWORDS",
    "load_corpus",
    "preprocess",
    "count_terms",
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

    @cached_property
    def row_index(self) -> dict[str, int]:
        """Each id's row number, built once; a repeated id maps to its last row."""
        return {d: i for i, d in enumerate(self.ids)}

    def positions(self, ids) -> list[int]:
        """The row numbers of ``ids``, in their order."""
        try:
            return [self.row_index[d] for d in ids]
        except KeyError as exc:
            raise ValidationError(f"unknown sample id {exc.args[0]!r}") from exc

    def rows_for(self, ids) -> np.ndarray:
        return self.values[self.positions(ids)]


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


@contextlib.contextmanager
def _csv_reader(path, make=csv.reader):
    """``make`` over the UTF-8 text of the CSV file at ``path``.

    A ValidationError raised inside names the file.  Bytes that are not
    UTF-8, and rows csv rejects (such as a field over its size limit), raise
    ParseError naming the file and the line.
    """
    with naming(path), open(path, encoding="utf-8", newline="") as fh:
        reader = make(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            # The decoder reads in chunks, so find the first bad byte's line
            # in the whole file.
            with open(path, "rb") as raw:
                data = raw.read()
            start = len(data)
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                start = first.start
            line = data.count(b"\n", 0, start) + 1
            raise ParseError(f"line {line}: not UTF-8 text") from exc
        except csv.Error as exc:
            # A DictReader's own line count lags by the row being read.
            line = getattr(reader, "reader", reader).line_num
            raise ParseError(f"line {line}: {exc}") from exc


def load_corpus(
    path,
    id_col: str = "ID",
    text_col: str = "Resume_str",
    label_col: str = "Category",
) -> list[Document]:
    """Read a labeled corpus from a CSV file with a header row."""
    with _csv_reader(path, csv.DictReader) as reader:
        if reader.fieldnames is None:
            raise ValidationError("empty file")
        for col in (id_col, text_col, label_col):
            if col not in reader.fieldnames:
                raise SchemaError(f"missing column {col!r}")
        docs: list[Document] = []
        seen: set[str] = set()
        for rowno, row in enumerate(reader, start=2):
            doc_id = row[id_col]
            if doc_id is None or row[text_col] is None or row[label_col] is None:
                raise ParseError(f"short row at line {rowno}")
            if not doc_id:
                raise ValidationError(f"empty id at line {rowno}")
            if not row[text_col].strip():
                raise ValidationError(f"empty text at line {rowno}")
            if doc_id in seen:
                raise ValidationError(f"duplicate id {doc_id!r} at line {rowno}")
            seen.add(doc_id)
            docs.append(Document(doc_id, row[text_col], row[label_col]))
        if not docs:
            raise ValidationError("no data rows")
    return docs


def preprocess(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop short/stop/numeric tokens."""
    tokens = _TOKEN_RE.split(text.lower())
    return [
        t
        for t in tokens
        if len(t) >= 2 and t not in STOPWORDS and not t.isdigit()
    ]


@dataclass(frozen=True)
class TermCounts:
    """Every document's distinct terms and their in-document counts, in one table.

    Document r's term ids are ``term_ids[offsets[r]:offsets[r + 1]]``, in the
    order the terms first occur in it, and ``counts`` holds each one's count
    at the same position.  ``terms[t]`` is the text of term id t; ids number
    the terms in the order they first occur in the corpus.
    """

    ids: list[str]
    terms: list[str]
    term_ids: np.ndarray  # intc
    counts: np.ndarray  # intc
    offsets: np.ndarray  # int64, one more than there are documents


def count_terms(docs: list[Document]) -> TermCounts:
    """Tokenize each document once and count its terms into a TermCounts table."""
    index: dict[str, int] = {}
    term_ids, counts, offsets = array("i"), array("i"), array("q", [0])
    for doc in docs:
        found = Counter(preprocess(doc.text))
        term_ids.extend([index.setdefault(term, len(index)) for term in found])
        counts.extend(found.values())
        offsets.append(len(term_ids))
    return TermCounts(
        ids=[d.id for d in docs],
        terms=list(index),
        term_ids=np.frombuffer(term_ids, np.intc),
        counts=np.frombuffer(counts, np.intc),
        offsets=np.frombuffer(offsets, np.int64),
    )


def _counted(docs) -> TermCounts:
    return docs if isinstance(docs, TermCounts) else count_terms(docs)


def fit_tfidf(docs: list[Document] | TermCounts, max_features: int) -> TfidfModel:
    """Fit vocabulary and idf weights on a corpus, given as documents or their TermCounts."""
    table = _counted(docs)
    if not table.ids:
        raise ValidationError("cannot fit TF-IDF on an empty corpus")
    if max_features < 1:
        raise ValidationError("max_features must be >= 1")
    if not table.term_ids.size:
        raise ValidationError("empty vocabulary after preprocessing")
    n_terms = len(table.terms)
    # Float sums of integer counts are exact below 2**53 tokens.
    total = np.bincount(table.term_ids, table.counts, n_terms).astype(np.int64).tolist()
    doc_freq = np.bincount(table.term_ids, minlength=n_terms).tolist()
    # Highest corpus frequency first, ties lexicographically ascending.
    ranked = sorted(range(n_terms), key=lambda t: (-total[t], table.terms[t]))
    kept = sorted(ranked[:max_features], key=table.terms.__getitem__)
    n = len(table.ids)
    frequency = [doc_freq[t] for t in kept]
    idf = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in frequency], dtype=float)
    return TfidfModel(
        vocabulary=[table.terms[t] for t in kept],
        document_frequency=frequency,
        idf=idf,
        max_features=max_features,
        corpus_size=n,
    )


def transform_tfidf(model: TfidfModel, docs: list[Document] | TermCounts) -> FeatureMatrix:
    """Count-times-idf rows, L2-normalized; out-of-vocabulary terms ignored.

    ``docs`` are documents or their TermCounts.  Each row is divided by its
    own norm, np.linalg.norm's sqrt(row . row), unless that is 0.
    """
    table = _counted(docs)
    n = len(table.ids)
    column = np.array([model.index.get(term, -1) for term in table.terms], dtype=np.intp)
    cols = column[table.term_ids]
    rows = np.repeat(np.arange(n), np.diff(table.offsets))
    known = cols >= 0
    cols = cols[known]
    values = np.zeros((n, len(model.vocabulary)), dtype=float)
    values[rows[known], cols] = table.counts[known] * model.idf[cols]
    norms = np.sqrt([row.dot(row) for row in values])
    values /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return FeatureMatrix(list(table.ids), list(model.vocabulary), values)


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
    split: DatasetSplit
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
    split: DatasetSplit,
    *,
    stage: str,
    parameters: dict | None = None,
    upstream_hash: str | None = None,
) -> dict:
    """Persist a stage as features.csv and manifest.json.

    features.csv has the header ``id,label_index,<feature names>`` and one row
    per document: its id, its label index and its feature values.  The old
    manifest is removed first and the new one written last, so a save
    that fails or is interrupted leaves a stage that reads as missing, never
    an old manifest over new files.  Returns the manifest that was written.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(features.ids):
        raise ValidationError("labels length does not match feature rows")
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(manifest_path)

    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, ["id", "label_index"] + features.feature_names)) + "\n")
        for doc_id, lab, row in zip(features.ids, labels.tolist(), features.values.tolist()):
            fh.write(",".join([_csv_field(doc_id), str(lab)] + [f"{v:.17g}" for v in row]) + "\n")

    manifest = {
        "stage": stage,
        "classes": list(encoding.classes),
        "seed": split.seed,
        "parameters": parameters or {},
        "split": {
            "train_ids": list(split.train_ids),
            "test_ids": list(split.test_ids),
            "test_fraction": split.test_fraction,
            "seed": split.seed,
        },
        "upstream_hash": upstream_hash,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(manifest_path, manifest)
    return manifest


def _stage_rows(rows: list[list[str]], width: int, n_classes: int):
    """The ids, label indices and values of features.csv's data rows.

    The rows are read column by column.  When a check fails, they are walked
    one by one instead, and ParseError names the first damaged row and its
    first damage: a wrong field count, then a bad label, then a label index
    out of range, then a bad value.
    """
    try:
        if rows and set(map(len, rows)) != {width}:
            raise ValueError("wrong field count")
        ids, labels, *columns = zip(*rows) if rows else [()] * width
        labels = list(map(int, labels))
        if labels and not (0 <= min(labels) and max(labels) < n_classes):
            raise ValueError("label index out of range")
        values = np.empty((len(rows), width - 2))
        for j, column in enumerate(columns):
            values[:, j] = np.fromiter(map(float, column), float, len(rows))
    except ValueError:
        for rowno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise ParseError(f"wrong field count at row {rowno}")
            try:
                index = int(row[1])
            except ValueError as exc:
                raise ParseError(f"bad label at row {rowno}") from exc
            if not 0 <= index < n_classes:
                raise ParseError(f"label index {index} out of range at row {rowno}")
            try:
                [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ParseError(f"bad value at row {rowno}") from exc
        raise  # not reached: the walk meets every damage the column read met
    return list(ids), np.array(labels, dtype=np.int64), values


def load_stage(directory, expect_stage: str | None = None) -> StageData:
    """Load a stage saved by save_stage; verifies the stage name if given.

    Every split id must have a row in features.csv, and every row a label
    index into the manifest's classes; no id may have two rows.  The
    manifest fields are checked whether or not they are used: seed an int
    >= 0, parameters an object and upstream_hash a string or null.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        manifest = read_json(manifest_path)
    except OSError as exc:
        raise VersioningError(f"{manifest_path}: missing stage manifest") from exc
    with naming(manifest_path):
        if expect_stage is not None and manifest.get("stage") != expect_stage:
            raise VersioningError(
                f"expected stage {expect_stage!r}, found {manifest.get('stage')!r}"
            )
        encoding = LabelEncoding(json_field(manifest, "classes", list, items=str))
        s = json_field(manifest, "split", dict)
        split = DatasetSplit(
            train_ids=json_field(s, "train_ids", list, items=str),
            test_ids=json_field(s, "test_ids", list, items=str),
            test_fraction=float(json_field(s, "test_fraction", NUMBER)),
            seed=json_field(s, "seed", int),
        )
        seed = json_field(manifest, "seed", int)
        # preprocess takes a seed >= 0 and writes it in both places.
        for what, value in (("seed", seed), ("split seed", split.seed)):
            if value < 0:
                raise ParseError(f"{what} must be >= 0, got {value}")
        json_field(manifest, "parameters", dict)
        json_field(manifest, "upstream_hash", (str, type(None)))

    with _csv_reader(os.path.join(directory, "features.csv")) as reader:
        header = next(reader, None)
        if not header or header[:2] != ["id", "label_index"]:
            raise ParseError("malformed header")
        ids, labels, values = _stage_rows(list(reader), len(header), len(encoding.classes))
        features = FeatureMatrix(ids, header[2:], values)
        index = features.row_index
        if len(index) < len(ids):
            seen = set()
            for rowno, doc_id in enumerate(ids, start=2):
                if doc_id in seen:
                    raise ParseError(f"id {doc_id!r} repeated at row {rowno}")
                seen.add(doc_id)
        absent = next((d for d in chain(split.train_ids, split.test_ids) if d not in index), None)
        if absent is not None:
            raise ParseError(f"no row for split id {absent!r}")

    return StageData(features, labels, encoding, split, manifest)
