"""Seeded synthetic corpus generator.

Documents are keyword mixtures: each class owns a disjoint set of
high-frequency keywords and all classes share a pool of filler words, so the
generated corpus has the statistical shape of a balanced multi-class text
dataset without imitating any real text.  Everything is driven by one seed
and reproduces byte-for-byte; ``tests/test_synth.py`` pins the bytes.

Draws come from ``_Draws``, which reads PCG64's raw 64-bit words and turns
them into exactly what ``np.random.default_rng(seed).random()`` and
``.integers(low, high)`` return for the same calls in the same order.
NumPy's RNG policy (NEP 19) keeps bit-generator streams stable across
versions, but not the algorithms inside ``Generator``'s methods, so the
corpus bytes depend only on the stable part.  One scalar ``Generator`` call
also costs more than the Python arithmetic that replaces it.

A keyword token is drawn by bisecting the normalized cumulative keyword
weights on one ``random()``.  That is the draw ``Generator.choice(k, p=w)``
makes, on the same stream, without its per-call validation of ``p``.

Words are two or three onset-vowel syllables, so at most
``MAX_VOCAB_SIZE`` distinct non-stopwords exist.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import os

import numpy as np

from .corpus import STOPWORDS, Document
from .errors import ValidationError

__all__ = ["synthesize_corpus", "write_corpus_csv", "CLASS_NAMES", "MAX_VOCAB_SIZE", "MAX_PER_CLASS"]

CLASS_NAMES = [
    "ALFA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT", "GOLF", "HOTEL",
    "INDIA", "JULIETT", "KILO", "LIMA", "MIKE", "NOVEMBER", "OSCAR", "PAPA",
    "QUEBEC", "ROMEO", "SIERRA", "TANGO", "UNIFORM", "VICTOR", "WHISKEY",
    "XRAY", "YANKEE", "ZULU",
]

# The corpus CSV header; preprocess's default --id-col, --text-col and --label-col.
_HEADER = ("ID", "Resume_str", "Category")

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_VOWELS = ["a", "e", "i", "o", "u"]


def _is_word(token: str) -> bool:
    """Whether ``_make_words`` can produce ``token`` (stopwords aside)."""
    return (
        len(token) in (4, 6)
        and all(ch in _ONSETS for ch in token[::2])
        and all(ch in _VOWELS for ch in token[1::2])
    )


_N_SYLLABLES = len(_ONSETS) * len(_VOWELS)
MAX_VOCAB_SIZE = _N_SYLLABLES**2 + _N_SYLLABLES**3 - sum(map(_is_word, STOPWORDS))

# Documents per class, at most; without a bound a large value draws until
# memory runs out.  At 26 classes that is 260,000 documents, which took ~4 s
# and ~140 MB of RSS to draw (x86_64).  Already at 3 classes the training
# split has 24,000 rows: kernel would build its Gram at 24 bytes an entry
# (~14 GB) and train --model svc would hold its dot products at 8 (~4.6 GB).
MAX_PER_CLASS = 10_000

KEYWORD_SHARE = 0.6  # fraction of tokens drawn from the class keyword set
DOC_LEN_RANGE = (25, 40)


_WORDS_PER_READ = 1024  # raw words pulled from PCG64 at a time


class _Draws:
    """``random()`` and ``integers(low, high)`` of ``np.random.default_rng(seed)``.

    Both read PCG64's raw 64-bit words.  ``random()`` takes the top 53 bits
    of a word.  A 32-bit draw takes the low half of a fresh word and keeps
    the high half for the next 32-bit draw, as PCG64's ``has_uint32`` buffer
    does; ``random()`` never touches that half.  ``integers`` maps a 32-bit
    draw onto the range by Lemire's multiply-shift with NumPy's rejection
    rule.
    """

    def __init__(self, seed: int):
        bits = np.random.PCG64(seed)
        self._words = itertools.chain.from_iterable(
            iter(lambda: bits.random_raw(_WORDS_PER_READ).tolist(), None))
        self._half = None  # the high half a 32-bit draw left, if any

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if n == 1:
            return low
        if not 1 < n <= 1 << 32:
            raise ValueError(f"range {n} is outside 1..2**32")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return low + (m >> 32)

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = next(self._words)
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half


def _make_words(rng: _Draws, count: int) -> list[str]:
    """Distinct pronounceable pseudo-words that survive tokenization."""
    integers = rng.integers
    n_onsets, n_vowels = len(_ONSETS), len(_VOWELS)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = integers(2, 4)
        word = "".join(
            _ONSETS[integers(0, n_onsets)] + _VOWELS[integers(0, n_vowels)]
            for _ in range(syllables)
        )
        if word in seen or word in STOPWORDS:
            continue
        seen.add(word)
        words.append(word)
    return words


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The table ``Generator.choice(len(p), p=p)`` searches.

    ``bisect.bisect_right(cdf, rng.random())`` returns the index that
    ``rng.choice(len(p), p=p)`` would, and consumes the same stream.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def synthesize_corpus(
    classes: int = 3,
    per_class: int = 40,
    vocab_size: int = 30,
    seed: int = 13,
) -> list[Document]:
    """Generate ``classes * per_class`` labeled documents."""
    if classes < 2:
        raise ValidationError("need at least 2 classes")
    if per_class < 4:
        raise ValidationError("need at least 4 documents per class")
    if per_class > MAX_PER_CLASS:
        raise ValidationError(f"per_class must be <= MAX_PER_CLASS = {MAX_PER_CLASS}, got {per_class}")
    if classes > len(CLASS_NAMES):
        raise ValidationError(f"at most {len(CLASS_NAMES)} classes supported")
    if vocab_size < 2 * classes + 2:
        raise ValidationError("vocab_size too small for disjoint keyword sets")
    if vocab_size > MAX_VOCAB_SIZE:
        raise ValidationError(
            f"vocab_size must be <= {MAX_VOCAB_SIZE} (distinct two- and three-syllable"
            f" words), got {vocab_size}"
        )

    rng = _Draws(seed)
    keywords_per_class = max(2, vocab_size // (classes + 1))
    n_filler = vocab_size - classes * keywords_per_class
    if n_filler < 2:
        keywords_per_class = (vocab_size - 2) // classes
        n_filler = vocab_size - classes * keywords_per_class
    words = _make_words(rng, vocab_size)
    class_words = [
        words[c * keywords_per_class : (c + 1) * keywords_per_class]
        for c in range(classes)
    ]
    filler = words[classes * keywords_per_class :]

    # Mildly skewed keyword weights so each class has a few dominant terms.
    kw_weights = 1.0 / np.arange(1, keywords_per_class + 1)
    kw_weights /= kw_weights.sum()
    kw_cdf = _choice_cdf(kw_weights)

    random, integers, bisect_right = rng.random, rng.integers, bisect.bisect_right
    docs: list[Document] = []
    serial = 10_000_000
    for c in range(classes):
        keywords = class_words[c]
        for _ in range(per_class):
            length = integers(*DOC_LEN_RANGE)
            tokens = []
            for _ in range(length):
                if random() < KEYWORD_SHARE:
                    tokens.append(keywords[bisect_right(kw_cdf, random())])
                else:
                    tokens.append(filler[integers(0, n_filler)])
            serial += 1
            docs.append(Document(str(serial), " ".join(tokens), CLASS_NAMES[c]))
    return docs


def write_corpus_csv(path, docs: list[Document]) -> None:
    """Write documents in the standard corpus CSV layout: the columns of _HEADER."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for doc in docs:
            writer.writerow([doc.id, doc.text, doc.label])
