import mmap

import numpy as np

from qtc.arrays import mapped_empty


def _owner(a):
    """The object that holds an array's memory (None for NumPy's own)."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_large_array_lives_in_its_own_mapping():
    a = mapped_empty((512, 300), dtype=np.complex128)
    assert a.shape == (512, 300) and a.dtype == np.complex128
    assert a.flags.c_contiguous and a.flags.writeable
    assert isinstance(_owner(a), mmap.mmap)
    a[:] = 1 + 2j
    assert np.all(a == 1 + 2j)


def test_small_and_empty_arrays_come_from_numpy():
    for shape in [(10, 10), (0, 5000)]:
        a = mapped_empty(shape)
        assert a.shape == shape and a.dtype == np.float64
        assert not isinstance(_owner(a), mmap.mmap)
