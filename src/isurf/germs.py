"""Normal forms and enumeration of simple elliptic and cusp germs.

Cusp types are stored with positive entries: type (e_1, ..., e_r) means
the resolution cycle has self-intersections -e_1, ..., -e_r. Sequences
are kept in dihedral normal form (lexicographically minimal over all
cyclic rotations and the reflection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GermError, UnsupportedGermError
from .lattice import IntersectionLattice, cycle_edges, graph_lattice

SIMPLE_ELLIPTIC = "simple_elliptic"
CUSP = "cusp"
RDP = "rdp"
SMOOTH = "smooth"
TRIANGLE = "triangle"  # recognized on input, rejected by every operation


@dataclass(frozen=True, order=True)
class SingularityGerm:
    kind: str
    data: tuple[int, ...] = ()
    j_tag: str | None = None

    def __str__(self) -> str:
        if self.kind == SIMPLE_ELLIPTIC:
            return f"se:{self.data[0]}"
        if self.kind == CUSP:
            return "c:" + ",".join(str(e) for e in self.data)
        if self.kind == TRIANGLE:
            return "t:" + ",".join(str(e) for e in self.data)
        return self.kind

    @property
    def es(self) -> tuple[int, ...]:
        if self.kind not in (CUSP, TRIANGLE):
            raise GermError(f"{self.kind} germ has no type sequence")
        return self.data

    @property
    def length(self) -> int:
        return len(self.es)


def simple_elliptic(m: int, j_tag: str | None = None) -> SingularityGerm:
    if m < 1:
        raise GermError("simple elliptic multiplicity must be positive")
    return SingularityGerm(SIMPLE_ELLIPTIC, (m,), j_tag)


def rdp() -> SingularityGerm:
    return SingularityGerm(RDP)


def smooth() -> SingularityGerm:
    return SingularityGerm(SMOOTH)


def dihedral_orbit(es: Sequence[int]) -> list[tuple[int, ...]]:
    """All 2r cyclic rotations and reflected rotations of the sequence."""
    seq = tuple(es)
    r = len(seq)
    images = []
    for flip in (seq, seq[::-1]):
        for k in range(r):
            images.append(flip[k:] + flip[:k])
    return images


def _check_cusp_sequence(es: Sequence[int]) -> None:
    if not es:
        raise GermError("empty cusp type")
    if any(e < 1 for e in es):
        raise GermError("cusp entries must be at least 1")
    if len(es) >= 2:
        if any(e < 2 for e in es):
            raise GermError(
                "a cusp cycle of length >= 2 needs every entry >= 2"
            )
        if all(e == 2 for e in es):
            raise GermError(
                "a cusp cycle of length >= 2 needs some entry >= 3"
            )


def normalize_cusp(es: Sequence[int]) -> SingularityGerm:
    """Cusp germ in dihedral normal form; idempotent."""
    _check_cusp_sequence(es)
    return SingularityGerm(CUSP, min(dihedral_orbit(es)))


def cusp(*es: int) -> SingularityGerm:
    return normalize_cusp(es)


def multiplicity(g: SingularityGerm) -> int:
    """m = -D^2 of the exceptional divisor.

    For a cusp cycle of length >= 2 this is sum(e_i - 2); a length-one
    cusp of type (e) has m = e, as does a simple elliptic germ SE(m).
    """
    if g.kind == SIMPLE_ELLIPTIC:
        return g.data[0]
    if g.kind == CUSP:
        if len(g.data) == 1:
            return g.data[0]
        return sum(e - 2 for e in g.data)
    raise GermError(f"{g.kind} germ has no multiplicity")


def resolution_lattice(g: SingularityGerm) -> IntersectionLattice:
    """Gram matrix of the exceptional set of the minimal resolution.

    Cycles of length two acquire off-diagonal pairing 2 (the two curves
    meet in two points); length-one cusps and simple elliptic germs give
    the rank-one lattice [-m].
    """
    if g.kind == SIMPLE_ELLIPTIC:
        return graph_lattice(("D",), (-g.data[0],), ())
    if g.kind != CUSP:
        raise UnsupportedGermError(f"no resolution lattice for {g.kind} germ")
    labels = [f"E{i+1}" for i in range(len(g.data))]
    return graph_lattice(labels, [-e for e in g.data], cycle_edges(labels))


def enumerate_types(max_mult: int, max_length: int) -> list[SingularityGerm]:
    """All cusp normal forms with multiplicity <= max_mult and length <=
    max_length, plus the simple elliptic germs SE(m), m <= max_mult.

    Only max_mult in {1, 2} is supported. Output is duplicate-free and
    sorted (simple elliptic germs first, then cusps by length and type).
    """
    if max_mult not in (1, 2):
        raise GermError("enumeration supports multiplicity at most 2")
    if max_length < 1:
        raise GermError("max_length must be at least 1")
    out: list[SingularityGerm] = [simple_elliptic(m) for m in range(1, max_mult + 1)]
    cusps: set[SingularityGerm] = set()
    for e in range(1, max_mult + 1):
        cusps.add(normalize_cusp((e,)))
    for r in range(2, max_length + 1):
        for seq in _cusp_sequences(r, max_mult):
            cusps.add(normalize_cusp(seq))
    out.extend(sorted(cusps, key=lambda g: (len(g.data), g.data)))
    return out


def _cusp_sequences(r: int, max_mult: int) -> Iterable[tuple[int, ...]]:
    """Length-r sequences over entries >= 2 with 1 <= sum(e-2) <= max_mult."""
    def rec(prefix: tuple[int, ...], budget: int):
        if len(prefix) == r:
            if sum(e - 2 for e in prefix) >= 1:
                yield prefix
            return
        for e in range(2, 2 + budget + 1):
            yield from rec(prefix + (e,), budget - (e - 2))
    yield from rec((), max_mult)


def parse_germ(text: str) -> SingularityGerm:
    """Parse the shorthand grammar: "c:4,2,2", "se:1", "rdp", "smooth"."""
    text = text.strip()
    if text == RDP:
        return rdp()
    if text == SMOOTH:
        return smooth()
    head, sep, tail = text.partition(":")
    if not sep:
        raise GermError(f"cannot parse germ {text!r}")
    try:
        values = tuple(int(x) for x in tail.split(","))
    except ValueError as exc:
        raise GermError(f"cannot parse germ {text!r}: {exc}") from exc
    if head == "se":
        if len(values) != 1:
            raise GermError("se takes a single multiplicity")
        return simple_elliptic(values[0])
    if head == "c":
        return normalize_cusp(values)
    if head == "t":
        _check_cusp_sequence(values)
        return SingularityGerm(TRIANGLE, min(dihedral_orbit(values)))
    raise GermError(f"unknown germ kind {head!r}")


def germ_to_json(g: SingularityGerm) -> dict:
    if g.kind == SIMPLE_ELLIPTIC:
        data: dict = {"kind": SIMPLE_ELLIPTIC, "m": g.data[0]}
        if g.j_tag is not None:
            data["j_tag"] = g.j_tag
        return data
    if g.kind in (CUSP, TRIANGLE):
        return {"kind": g.kind, "es": list(g.data)}
    return {"kind": g.kind}


def germ_from_json(data: dict) -> SingularityGerm:
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise GermError(f"bad germ object: {exc}") from exc
    if kind == SIMPLE_ELLIPTIC:
        return simple_elliptic(int(data["m"]), data.get("j_tag"))
    if kind == CUSP:
        return normalize_cusp([int(e) for e in data["es"]])
    if kind == TRIANGLE:
        es = [int(e) for e in data["es"]]
        _check_cusp_sequence(es)
        return SingularityGerm(TRIANGLE, min(dihedral_orbit(es)))
    if kind == RDP:
        return rdp()
    if kind == SMOOTH:
        return smooth()
    raise GermError(f"unknown germ kind {kind!r}")
