import bisect
import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtc
from qtc import synth
from qtc.cli import main
from qtc.corpus import STOPWORDS, Document
from qtc.errors import ValidationError


def _generator_words(rng, count):
    """``synth._make_words`` on a ``np.random.Generator``: the oracle's words."""
    words, seen = [], set()
    while len(words) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            synth._ONSETS[rng.integers(len(synth._ONSETS))]
            + synth._VOWELS[rng.integers(len(synth._VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen and word not in STOPWORDS:
            seen.add(word)
            words.append(word)
    return words


def _generator_corpus(classes, per_class, vocab_size, seed):
    """``synthesize_corpus`` drawn through ``np.random.default_rng(seed)``'s own
    ``random`` and ``integers``, as synth drew before it read raw words."""
    rng = np.random.default_rng(seed)
    keywords_per_class = max(2, vocab_size // (classes + 1))
    n_filler = vocab_size - classes * keywords_per_class
    if n_filler < 2:
        keywords_per_class = (vocab_size - 2) // classes
        n_filler = vocab_size - classes * keywords_per_class
    words = _generator_words(rng, vocab_size)
    filler = words[classes * keywords_per_class:]
    kw_weights = 1.0 / np.arange(1, keywords_per_class + 1)
    kw_weights /= kw_weights.sum()
    kw_cdf = synth._choice_cdf(kw_weights)
    docs, serial = [], 10_000_000
    for c in range(classes):
        keywords = words[c * keywords_per_class:(c + 1) * keywords_per_class]
        for _ in range(per_class):
            tokens = []
            for _ in range(int(rng.integers(*synth.DOC_LEN_RANGE))):
                if rng.random() < synth.KEYWORD_SHARE:
                    tokens.append(keywords[bisect.bisect_right(kw_cdf, rng.random())])
                else:
                    tokens.append(filler[rng.integers(n_filler)])
            serial += 1
            docs.append(Document(str(serial), " ".join(tokens), synth.CLASS_NAMES[c]))
    return docs


# SHA-256 of the ``qtc synth --out`` file.  A change to the generator's draws,
# its words or the CSV layout shows here.
PINNED = [
    ((), "92042ce72cd2a85f13087677e926146679884b21c8fdb02e4d3184309365edd4"),
    (("--per-class", 834), "ed6e814b9c76776c0d6b07e933ec52e35a4e98e3f6b35aa102fd682a75761220"),
    (("--classes", 5, "--per-class", 9, "--vocab-size", 40, "--seed", 0),
     "76bbcf8dda56a3de6bcaa185b59328f34c3b2062c4c0cc37587edad3b2056707"),
    # 20,000 of the 347,896 words: _make_words rejects many repeats.
    (("--classes", 26, "--per-class", 10, "--vocab-size", 20000, "--seed", 7),
     "e74dcfb5dae037bcf1215ef47753e0ae6abc0eef133cb53e71cceef859c152d1"),
]


@pytest.mark.parametrize("flags, digest", PINNED,
                         ids=["default", "per_class_834", "five_classes", "vocab_20000"])
def test_corpus_bytes_pinned(tmp_path, flags, digest):
    out = tmp_path / "corpus.csv"
    assert main(["synth", "--out", str(out), *map(str, flags)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    raw=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=8),
    draws=st.integers(1, 50),
)
def test_property_cdf_bisection_is_generator_choice(seed, raw, draws):
    w = np.asarray(raw)
    assume(w.sum() > 0)
    w /= w.sum()
    reference, bisected = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = synth._choice_cdf(w)
    expected = [int(reference.choice(len(w), p=w)) for _ in range(draws)]
    assert [bisect.bisect_right(cdf, bisected.random()) for _ in range(draws)] == expected
    assert bisected.bit_generator.state == reference.bit_generator.state


def test_vocab_cap_counts_two_and_three_syllable_non_stopwords():
    # 14 onsets x 5 vowels = 70 syllables; four such words are stopwords:
    # before, more, same, some.
    assert synth.MAX_VOCAB_SIZE == 70**2 + 70**3 - 4
    with pytest.raises(ValidationError, match=str(synth.MAX_VOCAB_SIZE)):
        synth.synthesize_corpus(vocab_size=synth.MAX_VOCAB_SIZE + 1)


def test_vocab_size_over_cap_exits_one_promptly(tmp_path):
    # A subprocess with a timeout, because an uncapped word loop never ends.
    src = os.path.dirname(os.path.dirname(qtc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "corpus.csv"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qtc.cli", "synth", "--vocab-size", "400000", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "347896" in proc.stderr, proc.stderr
    assert not out.exists()


# A call is None for random() or (low, n) for integers(low, low + n).  The
# ranges are synth's own (2, 5, 14, 15 and a filler count), 1, which draws
# nothing, 2**31 + 1, which rejects about half its draws, and 2**32, the
# widest a 32-bit draw serves.
_RANGES = st.one_of(st.sampled_from([1, 2, 5, 14, 15, 2**31 + 1, 2**32]),
                    st.integers(1, 5000), st.integers(1, 2**32))
_CALLS = st.lists(st.one_of(st.none(), st.tuples(st.integers(-2**31, 2**31), _RANGES)),
                  max_size=60)


def _call(rng, call):
    if call is None:
        return rng.random()
    low, n = call
    return int(rng.integers(low, low + n))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), prefix=st.lists(_RANGES, max_size=3), calls=_CALLS)
def test_property_draws_equal_default_rng(seed, prefix, calls):
    """The replica returns what default_rng returns, call for call.  The prefix
    of integers draws may leave a half-word buffered before the calls start."""
    replica, reference = synth._Draws(seed), np.random.default_rng(seed)
    for call in [(0, n) for n in prefix] + calls:
        got, want = _call(replica, call), _call(reference, call)
        assert (type(got), got) == (type(want), want), call


@pytest.mark.parametrize("n", [2**31 + 1, 2**32 - 1, 3 * 2**30])
def test_rejection_heavy_ranges_equal_default_rng(n):
    replica, reference = synth._Draws(5), np.random.default_rng(5)
    assert [replica.integers(0, n) for _ in range(2000)] == reference.integers(0, n, 2000).tolist()


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_ranges_outside_a_32_bit_draw_rejected(n):
    with pytest.raises(ValueError, match="outside"):
        synth._Draws(0).integers(3, 3 + n)


@settings(max_examples=40, deadline=None)
@given(classes=st.integers(2, 26), per_class=st.integers(4, 60), seed=st.integers(0, 2**32),
       data=st.data())
def test_property_corpus_equals_generator_oracle(classes, per_class, seed, data):
    vocab_size = data.draw(st.integers(2 * classes + 2, 5000), label="vocab_size")
    assert (synth.synthesize_corpus(classes, per_class, vocab_size, seed)
            == _generator_corpus(classes, per_class, vocab_size, seed))


def test_corpus_makes_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synth built a numpy Generator")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    assert len(synth.synthesize_corpus(per_class=4)) == 12
