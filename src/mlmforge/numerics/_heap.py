"""Keep freed heap memory in the process from one training step to the next.

A training step allocates and frees the same activations and temporaries
every time (a 35.6 MiB tracemalloc peak at 16 x 48 in the desk layout).
With glibc's default dynamic thresholds, blocks that large are served by
mmap and unmapped on free, and the top of the heap is trimmed back to the
kernel, so every step faults its whole working set in again. Raising both
thresholds keeps those pages mapped: the mmap threshold to 32 MiB
(glibc's 64-bit maximum), the trim threshold to 1 GiB. Setting only one
of them turns off the dynamic adjustment of both and makes the churn
worse, so both are always set together.

Peak RSS is a high-water mark, so retaining freed pages does not raise it.
Where the C library has no `mallopt` (macOS, musl) this does nothing.
"""

import ctypes

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 1024 * 1024 * 1024


def _libc():
    """The process's own C library symbols, or None where they cannot be opened."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def retain_freed_heap() -> None:
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
