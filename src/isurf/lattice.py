"""Finitely generated lattices with integer symmetric bilinear forms.

Everything here is exact: inertia is computed by fraction-free
symmetric Gaussian elimination over `int` (Bareiss), never floating
point, so definiteness answers are proofs rather than approximations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LatticeError


@dataclass(frozen=True)
class Signature:
    """Inertia triple of a rational symmetric bilinear form.

    `null` counts the dimension of the radical.
    """

    positive: int
    negative: int
    null: int

    @property
    def rank(self) -> int:
        return self.positive + self.negative + self.null

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.null)


@dataclass(frozen=True)
class IntersectionLattice:
    """Labeled basis plus a symmetric integer Gram matrix."""

    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise LatticeError("duplicate basis labels")
        if len(self.gram) != n:
            raise LatticeError("gram dimension does not match basis size")
        for row in self.gram:
            if len(row) != n:
                raise LatticeError("gram matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError(
                        f"gram matrix is not symmetric at ({i},{j})"
                    )

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LatticeError(f"no basis vector named {label!r}") from None

    def entry(self, a: str, b: str) -> int:
        return self.gram[self.index(a)][self.index(b)]

    def scaled(self, scale: int) -> "IntersectionLattice":
        if scale < 1:
            raise LatticeError("scale must be a positive integer")
        return IntersectionLattice(
            self.labels,
            tuple(tuple(scale * x for x in row) for row in self.gram),
        )

    def sublattice(self, labels: Sequence[str]) -> "IntersectionLattice":
        """Restriction of the form to the span of the given basis vectors."""
        idx = [self.index(name) for name in labels]
        return IntersectionLattice(
            tuple(labels),
            tuple(tuple(self.gram[i][j] for j in idx) for i in idx),
        )

    def permuted(self, order: Sequence[int]) -> "IntersectionLattice":
        if sorted(order) != list(range(self.rank)):
            raise LatticeError("not a permutation of the basis indices")
        return IntersectionLattice(
            tuple(self.labels[i] for i in order),
            tuple(tuple(self.gram[i][j] for j in order) for i in order),
        )

    def to_json(self) -> dict:
        return {"basis": list(self.labels), "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "IntersectionLattice":
        try:
            basis = tuple(str(x) for x in data["basis"])
            gram = tuple(tuple(int(x) for x in row) for row in data["gram"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"bad lattice object: {exc}") from exc
        return cls(basis, gram)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def from_rows(labels: Iterable[str], rows: Iterable[Iterable[int]]) -> IntersectionLattice:
    return IntersectionLattice(tuple(labels), tuple(tuple(r) for r in rows))


EMPTY_LATTICE = IntersectionLattice((), ())


def signature(lat: IntersectionLattice, rng=None) -> Signature:
    """Exact inertia of the bilinear form.

    Fraction-free symmetric elimination (Bareiss) over `int`, with
    symmetric pivoting. After pivoting on an index set E, `prev` is the
    pivot minor det G[E, E], and the active part of row i holds
    `scale[i] * S[i]`, where S is the Schur complement of G[E, E] and
    `scale[i]` the pivot minor at the row's last update. Every division
    is exact: `prev * S[i][j]` is a minor of G (Sylvester's determinant
    identity). A row with S[i][p] = 0 is unchanged by pivot p, so it is
    skipped and keeps its scale.

    A diagonal pivot is positive iff its minor has the sign of `prev`.
    When every active diagonal vanishes, a nonzero off-diagonal entry is
    eliminated as a hyperbolic 2x2 block contributing (1, 1, 0); a fully
    zero remainder joins the radical. `rng`, when given, randomizes
    admissible pivot choices (the result is pivot-order independent;
    tests exercise this).
    """
    m = [list(row) for row in lat.gram]
    scale = [1] * lat.rank
    prev = 1
    active = list(range(lat.rank))
    pos = neg = null = 0

    def at_prev(i: int) -> list[int]:
        """The active entries of row i, brought to scale `prev`."""
        row, s = m[i], scale[i]
        if s == prev:
            return [row[j] for j in active]
        return [row[j] * prev // s for j in active]

    while active:
        diag = [i for i in active if m[i][i] != 0]
        if diag:
            p = rng.choice(diag) if rng is not None else diag[0]
            d = m[p][p] * prev // scale[p]
            if (d > 0) == (prev > 0):
                pos += 1
            else:
                neg += 1
            active.remove(p)
            rp = at_prev(p)
            for i in active:
                ri = m[i]
                c = ri[p]
                if c == 0:
                    continue
                s = scale[i]
                for j, x in zip(active, rp):
                    ri[j] = (d * ri[j] - c * x) // s
                scale[i] = d
            prev = d
            continue
        # every active diagonal vanishes
        pairs = [
            (i, j)
            for i in active
            for j in active
            if i < j and m[i][j] != 0
        ]
        if not pairs:
            null += len(active)
            break
        p, q = rng.choice(pairs) if rng is not None else pairs[0]
        b = m[p][q] * prev // scale[p]
        pos += 1
        neg += 1
        active.remove(p)
        active.remove(q)
        rp, rq = at_prev(p), at_prev(q)
        bb, pp = b * b, prev * prev
        new = -bb // prev
        for k in active:
            rk = m[k]
            if rk[p] == 0 and rk[q] == 0:
                continue
            kp = rk[p] * prev // scale[k]
            kq = rk[q] * prev // scale[k]
            for j, x, xp, xq in zip(active, at_prev(k), rp, rq):
                rk[j] = (-bb * x + b * (kp * xq + kq * xp)) // pp
            scale[k] = new
        prev = new
    return Signature(pos, neg, null)


def is_negative_definite(lat: IntersectionLattice) -> bool:
    """True iff the form has inertia (0, rank, 0); rank 0 is vacuously true."""
    sig = signature(lat)
    return sig.positive == 0 and sig.null == 0


def cycle_edges(labels: Sequence[str]) -> list[tuple[str, str]]:
    """Edges of the cycle labels[0] - labels[1] - ... - labels[-1] - labels[0].

    A 2-cycle lists its pair twice (the two curves meet in two points);
    a single vertex has none (a nodal curve's node is counted in its
    square).
    """
    n = len(labels)
    if n < 2:
        return []
    return [(labels[i], labels[(i + 1) % n]) for i in range(n)]


def graph_lattice(
    labels: Sequence[str],
    diagonal: Sequence[int],
    edges: Iterable[tuple[str, str]],
) -> IntersectionLattice:
    """Intersection matrix of a labeled dual graph.

    `diagonal[i]` is the square of `labels[i]`. Each edge (a, b) adds 1
    to a.b, so an edge listed twice pairs with 2. Self-edges are
    rejected: squares come from the diagonal.
    """
    labels = tuple(labels)
    n = len(labels)
    if len(diagonal) != n:
        raise LatticeError("diagonal length does not match basis size")
    index = {name: i for i, name in enumerate(labels)}
    g = [[0] * n for _ in range(n)]
    for i, d in enumerate(diagonal):
        g[i][i] = d
    for a, b in edges:
        if a not in index or b not in index:
            raise LatticeError(f"edge ({a!r}, {b!r}) names an unknown label")
        i, j = index[a], index[b]
        if i == j:
            raise LatticeError(f"self-edge at {a!r}: squares come from the diagonal")
        g[i][j] += 1
        g[j][i] += 1
    return IntersectionLattice(labels, tuple(tuple(r) for r in g))


def make_named_lattice(
    family: str,
    n: int,
    m: int | None = None,
    scale: int = 1,
) -> IntersectionLattice:
    """The standard rank-(n+1) / rank-(n+m+2) lattice families.

    Lambda0(n): a cycle e_0..e_n with e_0^2 = 0 and e_i^2 = -2 otherwise.
    Lambda1(n,m): two chains e_1..e_n and f_1..f_m joined through g_1, g_2.
    Lambda2(n,m): two (-2)-cycles e_0..e_n and f_0..f_m glued by e_0.f_0 = 1.

    Every entry is multiplied by `scale`.
    """
    if n < 1:
        raise LatticeError("n must be at least 1")
    if scale < 1:
        raise LatticeError("scale must be a positive integer")
    if family == "Lambda0":
        if m is not None:
            raise LatticeError("Lambda0 takes no second parameter")
        labels = [f"e{i}" for i in range(n + 1)]
        return graph_lattice(labels, [0] + [-2] * n, cycle_edges(labels)).scaled(scale)
    if family not in ("Lambda1", "Lambda2"):
        raise LatticeError(f"unknown lattice family {family!r}")
    if m is None or m < 1:
        raise LatticeError(f"{family} needs m >= 1")
    if family == "Lambda1":
        es = [f"e{i}" for i in range(1, n + 1)]
        fs = [f"f{i}" for i in range(1, m + 1)]
        edges = list(zip(es, es[1:])) + list(zip(fs, fs[1:])) + [
            (es[0], "g1"),
            (fs[0], "g1"),
            (es[-1], "g2"),
            (fs[-1], "g2"),
            ("g1", "g2"),
        ]
        labels = es + fs + ["g1", "g2"]
        return graph_lattice(labels, [-2] * len(labels), edges).scaled(scale)
    es = [f"e{i}" for i in range(n + 1)]
    fs = [f"f{i}" for i in range(m + 1)]
    edges = cycle_edges(es) + cycle_edges(fs) + [("e0", "f0")]
    return graph_lattice(es + fs, [-2] * (n + m + 2), edges).scaled(scale)
