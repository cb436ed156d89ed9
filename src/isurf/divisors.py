"""Numerical divisor-class arithmetic over an intersection lattice.

A `SurfaceModel` packages the minimal numerical data of one resolved
surface: the declared sub-lattice of Num, the canonical class, chi(O),
a finite list of named curves, and the marked exceptional divisor
groups D_1..D_k with their singularity germs. All values are immutable;
`blowup` returns a new model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ModelError
from .germs import SingularityGerm, germ_from_json, germ_to_json
from .lattice import IntersectionLattice

CURVE_TAGS = ("exceptional", "fiber-component", "section", "bisection", "other")


@dataclass(frozen=True)
class DivisorClass:
    lattice: IntersectionLattice
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.lattice.rank:
            raise ModelError("coefficient vector length != lattice rank")

    def _same(self, other: "DivisorClass") -> None:
        if self.lattice != other.lattice:
            raise ModelError("divisor classes live on different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same(other)
        return DivisorClass(
            self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same(other)
        return DivisorClass(
            self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(scalar * a for a in self.coeffs))

    def dot(self, other: "DivisorClass") -> int:
        return pair(self, other)

    @property
    def square(self) -> int:
        return pair(self, self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


def zero_class(lat: IntersectionLattice) -> DivisorClass:
    return DivisorClass(lat, (0,) * lat.rank)


def basis_class(lat: IntersectionLattice, label: str) -> DivisorClass:
    i = lat.index(label)
    return DivisorClass(lat, tuple(1 if j == i else 0 for j in range(lat.rank)))


def combo(lat: IntersectionLattice, **terms: int) -> DivisorClass:
    """Integer combination of basis vectors by label, e.g. combo(L, F=2, C=-1)."""
    coeffs = [0] * lat.rank
    for label, c in terms.items():
        coeffs[lat.index(label)] += c
    return DivisorClass(lat, tuple(coeffs))


def pair(a: DivisorClass, b: DivisorClass) -> int:
    """Symmetric bilinear value a . b in the common lattice."""
    a._same(b)
    gram = a.lattice.gram
    total = 0
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        row = gram[i]
        total += ai * sum(bj * row[j] for j, bj in enumerate(b.coeffs) if bj)
    return total


@dataclass(frozen=True)
class Curve:
    name: str
    cls: DivisorClass
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in CURVE_TAGS:
            raise ModelError(f"unknown curve tag {self.tag!r}")


@dataclass(frozen=True)
class SurfaceModel:
    lattice: IntersectionLattice
    K: DivisorClass
    chiO: int
    curves: tuple[Curve, ...]
    divisor_groups: tuple[tuple[str, ...], ...] = ()
    germs: tuple[SingularityGerm, ...] = ()

    def __post_init__(self) -> None:
        if self.K.lattice != self.lattice:
            raise ModelError("canonical class lives on a different lattice")
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise ModelError("duplicate curve names")
        for c in self.curves:
            if c.cls.lattice != self.lattice:
                raise ModelError(f"curve {c.name} lives on a different lattice")
        if len(self.divisor_groups) != len(self.germs):
            raise ModelError("each marked divisor needs exactly one germ")
        known = set(names)
        for group in self.divisor_groups:
            if not group:
                raise ModelError("empty marked divisor group")
            for name in group:
                if name not in known:
                    raise ModelError(f"marked divisor uses unknown curve {name!r}")

    # -- lookups ------------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.divisor_groups)

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise ModelError(f"no curve named {name!r}")

    def curve_class(self, name: str) -> DivisorClass:
        return self.curve(name).cls

    def group_class(self, i: int) -> DivisorClass:
        total = zero_class(self.lattice)
        for name in self.divisor_groups[i]:
            total = total + self.curve_class(name)
        return total

    @property
    def L(self) -> DivisorClass:
        total = self.K
        for i in range(self.k):
            total = total + self.group_class(i)
        return total

    def M(self, i: int) -> DivisorClass:
        """K plus every marked divisor except the i-th."""
        total = self.K
        for j in range(self.k):
            if j != i:
                total = total + self.group_class(j)
        return total

    def marked_names(self) -> set[str]:
        return {name for group in self.divisor_groups for name in group}

    def group_sublattice(self, i: int) -> IntersectionLattice:
        group = self.divisor_groups[i]
        classes = [self.curve_class(n) for n in group]
        return IntersectionLattice(
            tuple(group),
            tuple(tuple(pair(a, b) for b in classes) for a in classes),
        )

    # -- invariant validation ------------------------------------------

    def validate(self) -> list[str]:
        """Structural invariant violations (empty list when consistent)."""
        problems = []
        for i in range(self.k):
            for j in range(i + 1, self.k):
                for a in self.divisor_groups[i]:
                    for b in self.divisor_groups[j]:
                        if pair(self.curve_class(a), self.curve_class(b)) != 0:
                            problems.append(
                                f"groups {i} and {j} meet ({a}.{b} != 0)"
                            )
        for i, group in enumerate(self.divisor_groups):
            if not self._connected(group):
                problems.append(f"group {i} is not connected in the dual graph")
            irreducible = len(group) == 1
            for name in group:
                try:
                    pa = adjunction_genus(self.curve_class(name), self)
                except ModelError:
                    problems.append(f"adjunction parity fails for {name}")
                    continue
                if pa not in (0, 1) or (pa == 1) != irreducible:
                    problems.append(
                        f"component {name} has arithmetic genus {pa}"
                    )
        return problems

    def _connected(self, group: Sequence[str]) -> bool:
        if len(group) <= 1:
            return True
        classes = {n: self.curve_class(n) for n in group}
        seen = {group[0]}
        frontier = [group[0]]
        while frontier:
            cur = frontier.pop()
            for other in group:
                if other not in seen and pair(classes[cur], classes[other]) > 0:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(group)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "K": list(self.K.coeffs),
            "chiO": self.chiO,
            "curves": [
                {"name": c.name, "coeffs": list(c.cls.coeffs), "tag": c.tag}
                for c in self.curves
            ],
            "divisors": [list(g) for g in self.divisor_groups],
            "germs": [germ_to_json(g) for g in self.germs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SurfaceModel":
        try:
            lat = IntersectionLattice.from_json(data["lattice"])
            K = DivisorClass(lat, tuple(int(x) for x in data["K"]))
            curves = tuple(
                Curve(
                    str(c["name"]),
                    DivisorClass(lat, tuple(int(x) for x in c["coeffs"])),
                    str(c.get("tag", "other")),
                )
                for c in data.get("curves", ())
            )
            groups = tuple(
                tuple(str(n) for n in g) for g in data.get("divisors", ())
            )
            germs = tuple(germ_from_json(g) for g in data.get("germs", ()))
            chiO = int(data["chiO"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad surface model object: {exc}") from exc
        return cls(lat, K, chiO, curves, groups, germs)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def adjunction_genus(c: DivisorClass, surf: SurfaceModel) -> int:
    """p_a = 1 + (C^2 + K.C)/2; parity failure signals a broken model."""
    total = c.square + pair(surf.K, c)
    if total % 2 != 0:
        raise ModelError("C^2 + K.C is odd: inconsistent surface model")
    return 1 + total // 2


def riemann_roch_chi(d: DivisorClass, surf: SurfaceModel) -> Fraction:
    """chi(D) = chi(O) + (D^2 - K.D)/2 for a Gorenstein surface."""
    return Fraction(surf.chiO) + Fraction(d.square - pair(surf.K, d), 2)


def blowup(
    surf: SurfaceModel,
    multiplicities: Mapping[str, int],
    new_label: str,
) -> SurfaceModel:
    """Blow up one point; listed curves pass through it with the given
    multiplicity and are replaced by their proper transforms.

    The lattice gains one orthogonal class C with C^2 = -1, K gains +C,
    chi(O) is unchanged, and C is appended as an exceptional curve.
    """
    lat = surf.lattice
    if new_label in lat.labels:
        raise ModelError(f"basis label {new_label!r} already in use")
    for name, mult in multiplicities.items():
        surf.curve(name)  # raises on unknown curve
        if mult < 0:
            raise ModelError("multiplicities must be nonnegative")
    new_labels = lat.labels + (new_label,)
    n = lat.rank
    new_gram = tuple(
        tuple(lat.gram[i][j] if j < n else 0 for j in range(n + 1))
        for i in range(n)
    ) + (tuple([0] * n + [-1]),)
    new_lat = IntersectionLattice(new_labels, new_gram)

    def ext(d: DivisorClass) -> DivisorClass:
        return DivisorClass(new_lat, d.coeffs + (0,))

    C = basis_class(new_lat, new_label)
    new_curves = [
        Curve(c.name, ext(c.cls) - multiplicities.get(c.name, 0) * C, c.tag)
        for c in surf.curves
    ]
    new_curves.append(Curve(new_label, C, "exceptional"))
    return replace(
        surf,
        lattice=new_lat,
        K=ext(surf.K) + C,
        curves=tuple(new_curves),
    )


@dataclass(frozen=True)
class NefResult:
    nef: bool
    violated_by: tuple[str, ...]


def nef_check(d: DivisorClass, surf: SurfaceModel) -> NefResult:
    """Nef relative to the declared curve list only.

    The certified statement is weaker than honest nefness: it quantifies
    over the finitely many declared curves, nothing else.
    """
    bad = tuple(
        c.name for c in surf.curves if pair(d, c.cls) < 0
    )
    return NefResult(not bad, bad)


def class_expressions_agree(
    a: DivisorClass, b: DivisorClass, surf: SurfaceModel
) -> bool:
    """a.x == b.x for every declared curve x.

    The declared lattice is free, so two expressions for one geometric
    class may differ as vectors; this is the numerical test the model
    can actually certify.
    """
    return all(pair(a, c.cls) == pair(b, c.cls) for c in surf.curves)
