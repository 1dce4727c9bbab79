"""Allocation of the m x m matrices (Grams and their overlaps) outside the malloc heap.

glibc serves a request from its heap rather than from a private mapping once
a mapping of that size or larger has been freed, up to 32 MiB; a 2001 x 2001
float Gram is just under that.  A freed heap block stays resident when
anything allocated later sits above it, so from the heap, the memory a stage
keeps and the next stage's peak would depend on the order of unrelated small
allocations.  A matrix in its own anonymous mapping is unmapped as soon as
its last reference goes.
"""

from __future__ import annotations

import mmap

import numpy as np

__all__ = ["mapped_empty"]

# Smaller arrays come from np.empty: a mapping costs a system call and at
# least a page.
_MAPPED_MIN_BYTES = 1 << 20


def mapped_empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised array; one of 1 MiB or more lives in its own mapping."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if nbytes < _MAPPED_MIN_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape, dtype=dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)
