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
from qtc.errors import ValidationError


# SHA-256 of the ``qtc synth --out`` file.  A change to the generator's draws,
# its words or the CSV layout shows here.
PINNED = [
    ((), "92042ce72cd2a85f13087677e926146679884b21c8fdb02e4d3184309365edd4"),
    (("--per-class", 834), "ed6e814b9c76776c0d6b07e933ec52e35a4e98e3f6b35aa102fd682a75761220"),
    (("--classes", 5, "--per-class", 9, "--vocab-size", 40, "--seed", 0),
     "76bbcf8dda56a3de6bcaa185b59328f34c3b2062c4c0cc37587edad3b2056707"),
]


@pytest.mark.parametrize("flags, digest", PINNED, ids=["default", "per_class_834", "five_classes"])
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
