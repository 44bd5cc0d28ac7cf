"""Reference kernels that measure how fast the machine runs right now.

On a shared host the same op can take 40% longer for a few seconds at a
time, because other tenants compete for the cores, caches and memory bus.
A timed run calls a reference kernel before its first op and after each op,
and scales each op's wall time by ``NOMINAL_S[kind]`` over the mean of the
two kernel times around it.  A slow spell of the machine slows the op and
the kernels next to it and cancels out; a change to the program moves only
the op, because the kernels live in the benchmark and call nothing in
``steeplab``.

Three kernels, one per kind of work the workloads spend their time on:

* ``cpu``: interpreted loops, float ``repr`` through ``csv.writer``, many
  numpy calls on 8-element arrays and one vectorized pass over 160 000
  Gaussian draws, like CSV writing and the verify suite's small episodes;
* ``numpy``: three vectorized passes over 160 000 Gaussian draws, like the
  sweep's workers drawing channel batches;
* ``memory``: a float64 matrix built from a strided uint8 window and
  multiplied by a vector, 128 MB per call, like dense Toeplitz hashing.
"""
from __future__ import annotations

import csv
import io
import time

import numpy as np

_RNG = np.random.default_rng(0)
_FLOATS = [float(x) for x in _RNG.standard_normal(96)]
_SMALL = _RNG.standard_normal(8) + 1j * _RNG.standard_normal(8)
_VEC = np.linspace(0.0, 1.0, 40_000)
_HASH_N, _HASH_ROWS = 50_000, 320
_HASH_BITS = _RNG.integers(0, 2, size=_HASH_N + _HASH_ROWS - 1, dtype=np.uint8)
_HASH_VEC = np.ones(_HASH_N)


def _csv() -> None:
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for k in range(150):
        writer.writerow([str(k)] + [repr(x) for x in _FLOATS[k % 64:k % 64 + 24]])


def _small() -> None:
    for k in range(200):
        z = _SMALL * (1.0 + 0.01 * k)
        power = float(np.mean(np.abs(z) ** 2))
        cov = np.outer(z, np.conj(z)) + power * np.eye(z.size)
        float(np.real(np.trace(cov))) / (1.0 + power)


def _numpy() -> None:
    z = np.random.default_rng(1).standard_normal((4, _VEC.size))
    np.log1p(np.abs(z * _VEC) ** 2).sum(axis=1)


def _memory() -> None:
    windows = np.lib.stride_tricks.sliding_window_view(_HASH_BITS, _HASH_N)
    windows[:, ::-1].astype(np.float64) @ _HASH_VEC


def _cpu() -> None:
    _csv()
    _small()
    _numpy()


def _numpy_batch() -> None:
    for _ in range(3):
        _numpy()


KERNELS = {"cpu": _cpu, "numpy": _numpy_batch, "memory": _memory}

# About the time of one kernel call on the 2-vCPU VM of perfbench/README.md
# at its fast state; only the unit of adjusted times depends on these.
NOMINAL_S = {"cpu": 0.0145, "numpy": 0.0125, "memory": 0.040}


def measure(kind: str) -> float:
    """Wall time of one call of the ``kind`` kernel, now."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0
