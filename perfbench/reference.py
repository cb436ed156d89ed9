"""A fixed piece of pure-Python work that measures how fast the machine
runs Python code right now.

The host this benchmark runs on may be shared: the CPU time of the same
work then changes by up to 2x from minute to minute, with the load of
other guests. The benchmark runs `work()` next to the program and scales
the program's CPU times by `REF_MS / (CPU ms of work())`, so a change of
machine speed cancels out and a change of the program does not.

`work()` is built from what isurf spends its time on: exact elimination
over the rationals, dihedral minima of tuples, and a breadth-first
search over sets and dicts. It uses no isurf code.
"""

from __future__ import annotations

import statistics
from collections import deque
from fractions import Fraction
from time import process_time

# CPU ms of work() that scaled times are expressed in: about its cost on an
# uncontended vCPU of a 2-vCPU Linux VM with Python 3.11 (3.0 to 3.4 ms; a
# busy neighbour made it 5 to 6 ms).
REF_MS = 3.2
REPEATS = 3  # work() calls per measurement; their median is taken

_N = 10
_MATRIX = [[40 if i == j else (i * 7 + j * 13) % 11 - 5 for j in range(_N)] for i in range(_N)]
_CYCLES = [tuple((k * 31 + i * i) % 5 + 2 for i in range(36)) for k in range(16)]
_NODES = 1500


def _determinant() -> Fraction:
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    det = Fraction(1)
    for k in range(_N):
        det *= m[k][k]  # diagonally dominant, so every pivot is nonzero
        for i in range(k + 1, _N):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def _dihedral_min(es: tuple[int, ...]) -> tuple[int, ...]:
    best = es
    for seq in (es, es[::-1]):
        for k in range(len(es)):
            img = seq[k:] + seq[:k]
            if img < best:
                best = img
    return best


def _reachable() -> int:
    seen = {0}
    queue = deque([0])
    depth = {0: 0}
    while queue:
        v = queue.popleft()
        for w in ((v * 3 + 1) % _NODES, (v * 7 + 2) % _NODES):
            if w not in seen:
                seen.add(w)
                depth[w] = depth[v] + 1
                queue.append(w)
    return sum(depth.values())


def work() -> tuple:
    """The fixed work; its result never changes (see the tests)."""
    return (_determinant(), [_dihedral_min(c) for c in _CYCLES][-1], _reachable())


def measure(repeats: int = REPEATS) -> float:
    """Median CPU ms of `work()` over `repeats` calls."""
    samples = []
    for _ in range(repeats):
        c0 = process_time()
        work()
        samples.append((process_time() - c0) * 1000)
    return statistics.median(samples)
