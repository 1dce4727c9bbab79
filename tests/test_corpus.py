import csv
import math
import os
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qtc.corpus import (
    DatasetSplit,
    Document,
    FeatureMatrix,
    LabelEncoding,
    count_terms,
    encode_labels,
    fit_tfidf,
    load_corpus,
    preprocess,
    save_stage,
    load_stage,
    stratified_split,
    transform_tfidf,
)
from qtc.errors import ParseError, SchemaError, ValidationError, VersioningError
from qtc.synth import synthesize_corpus


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _split(ids):
    """A split over every id: the last one tested, the rest trained."""
    return DatasetSplit(list(ids[:-1]), list(ids[-1:]), 0.5, 0)


TOY = [
    Document("d1", "cat sat", "A"),
    Document("d2", "cat ran", "A"),
    Document("d3", "dog ran", "B"),
]


class TestLoadCorpus:
    def test_basic_ingestion(self, tmp_path):
        path = _write(
            tmp_path / "c.csv",
            "ID,Resume_str,Category\n1,first text,X\n2,second text,Y\n3,third text,X\n",
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["1", "2", "3"]
        assert docs[1].text == "second text"
        assert docs[2].label == "X"

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path / "c.csv", "ID,Resume_str\n1,text\n")
        with pytest.raises(SchemaError, match="Category"):
            load_corpus(path)

    def test_resume_style_row(self, tmp_path):
        path = _write(
            tmp_path / "c.csv",
            "ID,Resume_str,Category\n"
            '30112356,"DIRECTOR/PRESIDENT - MINTURN FITNESS CENTER Executive Profile",FITNESS\n'
            "2,placeholder,OTHER\n",
        )
        docs = load_corpus(path)
        assert docs[0].id == "30112356"
        assert docs[0].label == "FITNESS"

    def test_duplicate_id_rejected(self, tmp_path):
        path = _write(tmp_path / "c.csv", "ID,Resume_str,Category\n1,a,X\n1,b,Y\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "c.csv", "ID,Resume_str,Category\n")
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_configurable_columns(self, tmp_path):
        path = _write(tmp_path / "c.csv", "id,text,label\n1,hello there,Z\n2,more text,W\n")
        docs = load_corpus(path, id_col="id", text_col="text", label_col="label")
        assert docs[0].label == "Z"

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"ID,Resume_str,Category\n1,a,X\n2,b\xff,Y\n")
        with pytest.raises(ParseError, match=r"c\.csv: line 3: not UTF-8"):
            load_corpus(path)

    def test_oversized_document_names_file_and_line(self, tmp_path):
        path = _write(tmp_path / "c.csv",
                      "ID,Resume_str,Category\n1,a,X\n2," + "w" * 131_073 + ",Y\n")
        with pytest.raises(ParseError, match=r"c\.csv: line 3: field larger than field limit"):
            load_corpus(path)


class TestPreprocess:
    def test_stopwords_and_case(self):
        assert preprocess("The cat, the CAT!") == ["cat", "cat"]

    def test_empty_input(self):
        assert preprocess("") == []

    def test_numeric_and_split_rules(self):
        assert preprocess("Engineer 2010 engineering-intern") == [
            "engineer",
            "engineering",
            "intern",
        ]

    def test_short_tokens_dropped(self):
        assert preprocess("a b cd x7 77") == ["cd", "x7"]


class TestTfidf:
    def test_hand_computed_idf(self):
        model = fit_tfidf(TOY, max_features=4)
        assert model.vocabulary == ["cat", "dog", "ran", "sat"]
        idf = dict(zip(model.vocabulary, model.idf))
        assert idf["cat"] == pytest.approx(math.log(4 / 3) + 1, abs=1e-12)
        assert idf["sat"] == pytest.approx(math.log(2) + 1, abs=1e-12)
        assert idf["cat"] == pytest.approx(1.2876820724517808, abs=1e-9)
        assert idf["sat"] == pytest.approx(1.6931471805599454, abs=1e-9)

    def test_single_doc_idf_is_one(self):
        model = fit_tfidf([Document("d", "cat", "A")], max_features=5)
        assert model.idf[0] == pytest.approx(1.0, abs=1e-15)

    def test_max_features_tie_break(self):
        # cat and ran both have corpus frequency 2; lexicographic tie-break keeps cat
        model = fit_tfidf(TOY, max_features=1)
        assert model.vocabulary == ["cat"]

    def test_transform_hand_values(self):
        model = fit_tfidf(TOY, max_features=4)
        fm = transform_tfidf(model, [TOY[0]])
        row = dict(zip(fm.feature_names, fm.values[0]))
        assert row["cat"] == pytest.approx(0.60534850810629159, abs=1e-9)
        assert row["sat"] == pytest.approx(0.7959605415681652, abs=1e-9)
        assert row["dog"] == 0.0 and row["ran"] == 0.0

    def test_out_of_vocabulary_row_is_zero(self):
        model = fit_tfidf(TOY, max_features=4)
        fm = transform_tfidf(model, [Document("x", "zebra quux", "A")])
        assert np.all(fm.values == 0.0)

    def test_row_norms_one_or_zero(self):
        model = fit_tfidf(TOY, max_features=4)
        fm = transform_tfidf(model, TOY)
        norms = np.linalg.norm(fm.values, axis=1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))

    def test_permutation_invariance(self):
        m1 = fit_tfidf(TOY, max_features=4)
        m2 = fit_tfidf(list(reversed(TOY)), max_features=4)
        assert m1.vocabulary == m2.vocabulary
        assert np.array_equal(m1.idf, m2.idf)
        assert m1.document_frequency == m2.document_frequency

    def test_idf_monotone_in_document_frequency(self):
        model = fit_tfidf(TOY, max_features=4)
        pairs = sorted(zip(model.document_frequency, model.idf))
        for (df1, idf1), (df2, idf2) in zip(pairs, pairs[1:]):
            if df1 < df2:
                assert idf1 > idf2
            else:
                assert idf1 == idf2

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValidationError, match="vocabulary"):
            fit_tfidf([Document("d", "the a of", "A")], max_features=5)

    def test_term_counts_table(self):
        docs = TOY + [Document("d4", "the sat cat sat", "B"), Document("d5", "of", "B")]
        table = count_terms(docs)
        assert table.ids == ["d1", "d2", "d3", "d4", "d5"]
        assert table.terms == ["cat", "sat", "ran", "dog"]
        assert table.term_ids.tolist() == [0, 1, 0, 2, 3, 2, 1, 0]
        assert table.counts.tolist() == [1, 1, 1, 1, 1, 1, 2, 1]
        assert table.offsets.tolist() == [0, 2, 4, 6, 8, 8]


def _counter_tfidf(fit_docs, docs, max_features):
    """TF-IDF from one Counter per document, as qtc computed it before the
    term-count table: (vocabulary, document frequencies, idf, rows of docs)."""
    total, doc_freq = Counter(), Counter()
    for doc in fit_docs:
        counts = Counter(preprocess(doc.text))
        total.update(counts)
        doc_freq.update(counts.keys())
    ranked = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = sorted(term for term, _ in ranked[:max_features])
    n = len(fit_docs)
    idf = np.array([math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in vocab], dtype=float)
    index = {t: i for i, t in enumerate(vocab)}
    values = np.zeros((len(docs), len(vocab)), dtype=float)
    for r, doc in enumerate(docs):
        for term, count in Counter(preprocess(doc.text)).items():
            col = index.get(term)
            if col is not None:
                values[r, col] = count * idf[col]
        norm = np.linalg.norm(values[r])
        if norm > 0.0:
            values[r] /= norm
    return vocab, [doc_freq[t] for t in vocab], idf, values


WORDS = ["cat", "Cat", "dog", "ran", "sat-on", "the", "a", "of", "2010", "x7", "7x", "é", "zebra",
         "quux", "b"]
TEXTS = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(TEXTS, min_size=1, max_size=8), st.lists(TEXTS, max_size=4), st.integers(1, 9))
def test_property_term_count_tfidf_equals_counter_tfidf_bitwise(fit_texts, other_texts,
                                                                max_features):
    """fit_tfidf and transform_tfidf, given TermCounts or the documents, equal
    the per-document Counter path bit for bit, for the fitted documents and
    for unseen ones."""
    fit_docs = [Document(f"f{i}", t, "A") for i, t in enumerate(fit_texts)]
    docs = fit_docs + [Document(f"o{i}", t, "A") for i, t in enumerate(other_texts)]
    if not any(preprocess(t) for t in fit_texts):
        with pytest.raises(ValidationError, match="empty vocabulary"):
            fit_tfidf(count_terms(fit_docs), max_features)
        return
    vocab, doc_freq, idf, values = _counter_tfidf(fit_docs, docs, max_features)
    table = count_terms(fit_docs)
    for model in (fit_tfidf(fit_docs, max_features), fit_tfidf(table, max_features)):
        assert model.vocabulary == vocab and model.document_frequency == doc_freq
        assert model.idf.tobytes() == idf.tobytes()
    for features in (transform_tfidf(model, count_terms(docs)), transform_tfidf(model, docs)):
        assert features.ids == [d.id for d in docs]
        assert features.values.tobytes() == values.tobytes()


def test_term_counts_of_the_large_corpus_stay_under_1_mb():
    """The 2,502 documents of perfbench's large workload, counted: the table
    and every temporary stay under 1 MiB.  One Counter per document held
    2.9 MB."""
    docs = synthesize_corpus(per_class=834)
    count_terms(docs[:10])
    tracemalloc.start()
    try:
        table = count_terms(docs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.ids) == 2502 and table.offsets[-1] == table.term_ids.size
    assert peak <= 1 << 20


class TestLabels:
    def test_sorted_classes(self):
        docs = [
            Document("1", "t", "FITNESS"),
            Document("2", "t", "ENGINEERING"),
            Document("3", "t", "CONSULTANT"),
        ]
        encoding, vec = encode_labels(docs)
        assert encoding.classes == ["CONSULTANT", "ENGINEERING", "FITNESS"]
        assert vec.tolist() == [2, 1, 0]

    def test_single_class(self):
        docs = [Document(str(i), "t", "ONLY") for i in range(4)]
        _, vec = encode_labels(docs)
        assert vec.tolist() == [0, 0, 0, 0]

    def test_round_trip_bijection(self):
        enc = LabelEncoding(["A", "B", "C"])
        for i, name in enumerate(enc.classes):
            assert enc.index_of(enc.label_of(i)) == i
            assert enc.label_of(enc.index_of(name)) == name


class TestSplit:
    def test_counts_at_paper_scale(self):
        labels = np.repeat([0, 1, 2], 40)
        ids = [f"d{i}" for i in range(120)]
        split = stratified_split(labels, ids, 0.2, seed=7)
        assert len(split.test_ids) == 24 and len(split.train_ids) == 96
        idx = {d: i for i, d in enumerate(ids)}
        per_class = np.bincount([labels[idx[d]] for d in split.test_ids])
        assert per_class.tolist() == [8, 8, 8]

    def test_small_exact_counts(self):
        labels = np.array([0] * 5 + [1] * 5)
        ids = [str(i) for i in range(10)]
        split = stratified_split(labels, ids, 0.2, seed=0)
        counts = np.bincount([labels[int(d)] for d in split.test_ids])
        assert counts.tolist() == [1, 1]

    def test_deterministic(self):
        labels = np.repeat([0, 1], 10)
        ids = [str(i) for i in range(20)]
        s1 = stratified_split(labels, ids, 0.3, seed=99)
        s2 = stratified_split(labels, ids, 0.3, seed=99)
        assert s1.train_ids == s2.train_ids and s1.test_ids == s2.test_ids

    def test_partition(self):
        labels = np.repeat([0, 1, 2], 11)
        ids = [str(i) for i in range(33)]
        split = stratified_split(labels, ids, 0.25, seed=3)
        assert sorted(split.train_ids + split.test_ids) == sorted(ids)
        assert not set(split.train_ids) & set(split.test_ids)

    def test_singleton_class_rejected(self):
        with pytest.raises(ValidationError):
            stratified_split(np.array([0, 0, 1]), ["a", "b", "c"], 0.5, seed=0)

    def test_fraction_leaving_no_training_document_rejected(self):
        labels = np.repeat([0, 1, 2], 40)
        ids = [f"d{i}" for i in range(120)]
        with pytest.raises(ValidationError, match="no training document"):
            stratified_split(labels, ids, 0.99, seed=7)


class TestStageRoundTrip:
    def _stage(self, n=6, d=3, seed=0):
        rng = np.random.default_rng(seed)
        ids = [f"s{i}" for i in range(n)]
        fm = FeatureMatrix(ids, [f"f{j}" for j in range(d)], rng.normal(size=(n, d)))
        labels = rng.integers(0, 2, n)
        enc = LabelEncoding(["N", "P"])
        return fm, labels, enc

    def test_exact_round_trip(self, tmp_path):
        fm, labels, enc = self._stage()
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        back = load_stage(tmp_path, expect_stage="tfidf")
        assert np.array_equal(back.features.values, fm.values)
        assert back.features.ids == fm.ids
        assert back.features.feature_names == fm.feature_names
        assert np.array_equal(back.labels, labels)
        assert back.encoding.classes == enc.classes
        assert back.split == _split(fm.ids)

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        fm, labels, enc = self._stage(n=3)
        fm = FeatureMatrix(['a,"b"', "plain", "x\ny"], fm.feature_names, fm.values)
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        back = load_stage(tmp_path)
        assert back.features.ids == fm.ids
        assert np.array_equal(back.labels, labels)

    def test_ids_with_carriage_returns_round_trip(self, tmp_path):
        fm, labels, enc = self._stage(n=4)
        fm = FeatureMatrix(["x\r1", "\r", "a\r\nb", 'q"\r'], fm.feature_names, fm.values)
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        back = load_stage(tmp_path)
        assert back.features.ids == fm.ids
        assert np.array_equal(back.labels, labels)

    def test_bytes_are_csv_writer_bytes_for_ids_without_carriage_return(self, tmp_path):
        fm, labels, enc = self._stage(n=5)
        ids = ['a,"b"', "plain", "x\ny", " pad ", "é"]
        fm = FeatureMatrix(ids, fm.feature_names, fm.values)
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label_index"] + fm.feature_names)
            for doc_id, lab, row in zip(ids, labels, fm.values.tolist()):
                writer.writerow([doc_id, int(lab)] + [f"{v:.17g}" for v in row])
        written = (tmp_path / "features.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()

    def test_stage_mismatch(self, tmp_path):
        fm, labels, enc = self._stage()
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        with pytest.raises(VersioningError, match="pca"):
            load_stage(tmp_path, expect_stage="pca")

    def test_paper_scale_round_trip(self, tmp_path):
        fm, labels, enc = self._stage(n=96, d=20, seed=4)
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        back = load_stage(tmp_path)
        assert back.features.feature_names == fm.feature_names
        assert np.array_equal(back.features.values, fm.values)

    @pytest.mark.parametrize("field, text, message", [
        (-1, "notanumber", "bad value at row 3"),
        (1, "P", "bad label at row 3"),
        (1, "2", "label index 2 out of range at row 3"),
        (1, "-1", "label index -1 out of range at row 3"),
    ], ids=["value", "label", "label_past_classes", "label_negative"])
    def test_corrupted_csv_reports_row(self, tmp_path, field, text, message):
        fm, labels, enc = self._stage()
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        feat = tmp_path / "features.csv"
        lines = feat.read_text().splitlines()
        fields = lines[2].split(",")
        fields[field] = text
        lines[2] = ",".join(fields)
        feat.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"features.csv: {message}"):
            load_stage(tmp_path)

    @pytest.mark.parametrize("name", ["features.csv", "manifest.json"])
    def test_undecodable_byte_names_file(self, tmp_path, name):
        fm, labels, enc = self._stage()
        save_stage(tmp_path, fm, labels, enc, _split(fm.ids), stage="tfidf")
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        expected = "line 3: not UTF-8" if name.endswith(".csv") else "invalid JSON"
        with pytest.raises(ParseError, match=rf"{name}: {expected}"):
            load_stage(tmp_path)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.text(min_size=1), min_size=1, max_size=8, unique=True),
    st.lists(st.text(min_size=1), min_size=2, max_size=4, unique=True),
    st.data(),
)
def test_property_stage_round_trip_any_ids_and_labels(ids, classes, data):
    values = data.draw(hnp.arrays(np.float64, (len(ids), 2),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = data.draw(st.lists(st.integers(0, len(classes) - 1),
                                min_size=len(ids), max_size=len(ids)))
    fm = FeatureMatrix(ids, ["f0", "f1"], values)
    with tempfile.TemporaryDirectory() as directory:
        save_stage(directory, fm, labels, LabelEncoding(classes), _split(ids), stage="tfidf")
        back = load_stage(directory, expect_stage="tfidf")
    assert back.features.ids == ids
    assert back.features.values.tobytes() == values.tobytes()
    assert back.labels.tolist() == labels
    assert back.encoding.classes == classes


def _row_loop_rows(path, n_classes: int):
    """features.csv read one row at a time, as load_stage read it before its
    column read: (ids, labels, values), or ParseError naming the first
    damaged row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids, labels, rows = [], [], []
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"wrong field count at row {rowno}")
            try:
                index = int(row[1])
            except ValueError as exc:
                raise ParseError(f"bad label at row {rowno}") from exc
            if not 0 <= index < n_classes:
                raise ParseError(f"label index {index} out of range at row {rowno}")
            ids.append(row[0])
            labels.append(index)
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ParseError(f"bad value at row {rowno}") from exc
    values = np.asarray(rows, dtype=float).reshape(len(ids), len(header) - 2)
    return ids, np.array(labels, dtype=np.int64), values


CLASSES = ["A", "B", "C"]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.text(st.sampled_from('ab,"\r\n é'), min_size=1), max_size=6, unique=True),
    st.integers(1, 3),
    st.data(),
)
def test_property_column_read_equals_row_loop_bitwise(ids, width, data):
    """Ids with commas, quotes and carriage returns, 0 rows, 1 feature."""
    values = data.draw(hnp.arrays(np.float64, (len(ids), width),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
    fm = FeatureMatrix(ids, [f"f{j}" for j in range(width)], values)
    with tempfile.TemporaryDirectory() as directory:
        save_stage(directory, fm, labels, LabelEncoding(CLASSES),
                   DatasetSplit(list(ids), [], 0.5, 0), stage="tfidf")
        back = load_stage(directory)
        oracle = _row_loop_rows(os.path.join(directory, "features.csv"), len(CLASSES))
    assert back.features.ids == oracle[0] == ids
    assert back.labels.dtype == oracle[1].dtype and back.labels.tobytes() == oracle[1].tobytes()
    assert back.features.values.shape == oracle[2].shape == (len(ids), width)
    assert back.features.values.tobytes() == oracle[2].tobytes()
    assert back.features.values.flags.c_contiguous


DAMAGES = {
    "short": lambda fields: fields[:-1],
    "long": lambda fields: fields + ["0.5"],
    "label": lambda fields: [fields[0], "B"] + fields[2:],
    "label_past_classes": lambda fields: [fields[0], "3"] + fields[2:],
    "label_2**70": lambda fields: [fields[0], str(2**70)] + fields[2:],
    "label_negative": lambda fields: [fields[0], "-1"] + fields[2:],
    "value": lambda fields: fields[:2] + ["1.2.3"] + fields[3:],
    "last_value": lambda fields: fields[:-1] + ["x"],
}


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 13), st.sampled_from(sorted(DAMAGES))),
                min_size=1, max_size=3))
@example([(5, "value"), (9, "label")])
@example([(9, "label"), (5, "value")])
@example([(4, "label_2**70"), (4, "value")])
@example([(2, "long"), (2, "short")])
def test_property_damaged_rows_raise_the_row_loop_error(damages):
    """Each (row, damage) changes that row of a 12-row, 2-feature features.csv;
    load_stage names the same first damage as the row loop.  Two damages to
    one row can cancel ("long" then "short"), and then both accept the file."""
    rng = np.random.default_rng(7)
    ids = [f"d{i}" for i in range(12)]
    fm = FeatureMatrix(ids, ["f0", "f1"], rng.normal(size=(12, 2)))
    with tempfile.TemporaryDirectory() as directory:
        save_stage(directory, fm, rng.integers(0, 3, 12), LabelEncoding(CLASSES), _split(ids),
                   stage="tfidf")
        path = os.path.join(directory, "features.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for row, damage in damages:
            lines[row - 1] = ",".join(DAMAGES[damage](lines[row - 1].split(",")))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            oracle = _row_loop_rows(path, len(CLASSES))
        except ParseError as exc:
            expected = exc
        else:
            back = load_stage(directory)
            assert back.labels.tobytes() == oracle[1].tobytes()
            assert back.features.values.tobytes() == oracle[2].tobytes()
            return
        with pytest.raises(ParseError) as raised:
            load_stage(directory)
    assert str(raised.value) == f"{path}: {expected}"
