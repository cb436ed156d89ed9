"""Per-stratum surface constructors and the I-surface identity verifier.

Each builder assembles the minimal numerical sub-lattice the relevant
construction actually uses (4-6 generators plus cycle components) and
returns a `SurfaceModel`. Wherever the construction is a blowup of a
standard base surface, the model is produced by `blowup` calls on the
base model, so every pairing in the result is derived, not transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import BuilderError, ModelError
from .germs import (
    SingularityGerm,
    cusp,
    dihedral_orbit,
    multiplicity,
    normalize_cusp,
    simple_elliptic,
)
from .lattice import (
    IntersectionLattice,
    cycle_edges,
    graph_lattice,
    is_negative_definite,
)
from .divisors import (
    Curve,
    DivisorClass,
    SurfaceModel,
    adjunction_genus,
    basis_class,
    blowup,
    combo,
    pair,
    zero_class,
)
from .report import Report

# ---------------------------------------------------------------------------
# Elliptic fibration numerology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FibrationData:
    """Relatively minimal elliptic fibration over a genus-g curve."""

    g: int
    chi: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(m < 2 for m in self.mults):
            raise BuilderError("multiple fibers have multiplicity >= 2")


@dataclass(frozen=True)
class CanonicalBundle:
    """K = fiber_coeff * G + sum (m_a - 1) F_a, plus a Kodaira indicator."""

    fiber_coeff: int
    multiple_fiber_coeffs: tuple[int, ...]
    kodaira_indicator: Fraction


def canonical_bundle_coeffs(fd: FibrationData) -> CanonicalBundle:
    indicator = Fraction(fd.chi - 2) + sum(
        (1 - Fraction(1, m) for m in fd.mults), Fraction(0)
    )
    return CanonicalBundle(
        2 * fd.g - 2 + fd.chi,
        tuple(m - 1 for m in fd.mults),
        indicator,
    )


def c2_length_counts(p_g: int, r: int | None = None) -> tuple[int, int | None]:
    """Lengths of the c2 subschemes: l(Z) = 12(1+p_g), l(W) = l(Z) - r + 1."""
    if p_g < 0:
        raise BuilderError("p_g must be nonnegative")
    lz = 12 * (1 + p_g)
    if r is None:
        return lz, None
    if r < 1:
        raise BuilderError("cycle length r must be at least 1")
    return lz, lz - r + 1


# ---------------------------------------------------------------------------
# Base surfaces
# ---------------------------------------------------------------------------


def add_curves(surf: SurfaceModel, *curves: Curve) -> SurfaceModel:
    return replace(surf, curves=surf.curves + curves)


def projective_plane() -> SurfaceModel:
    """P^2: Num = Z.H with H^2 = 1, K = -3H."""
    lat = graph_lattice(("H",), (1,), ())
    H = basis_class(lat, "H")
    return SurfaceModel(lat, -3 * H, 1, (Curve("H", H, "other"),))


def rational_elliptic_surface() -> SurfaceModel:
    """Rational elliptic surface with one multiple fiber F of multiplicity 2
    and an exceptional bisection E; K = -F, general fiber f = 2F."""
    lat = graph_lattice(("F", "E"), (0, -1), [("F", "E")])
    F = basis_class(lat, "F")
    E = basis_class(lat, "E")
    return SurfaceModel(
        lat,
        -1 * F,
        1,
        (Curve("F", F, "fiber-component"), Curve("E", E, "bisection")),
    )


def elliptic_ruled_surface() -> SurfaceModel:
    """The ruled surface P(W) over an elliptic curve, W the nonsplit
    extension of O(p0) by O; Num = Z.sig + Z.f with sig^2 = 1, K = -2sig+f."""
    lat = graph_lattice(("sig", "f"), (1, 0), [("sig", "f")])
    sig = basis_class(lat, "sig")
    f = basis_class(lat, "f")
    return SurfaceModel(
        lat,
        -2 * sig + f,
        0,
        (Curve("sig", sig, "section"), Curve("f", f, "fiber-component")),
    )


def two_double_fiber_ruled_surface() -> SurfaceModel:
    """The ruled surface over an elliptic curve whose elliptic pencil,
    general member phi = 2s, has two double fibers; Num = Z.s + Z.f with
    s^2 = 0, s.f = 1, K = -2s, chi(O) = 0."""
    lat = graph_lattice(("s", "f"), (0, 0), [("s", "f")])
    s = basis_class(lat, "s")
    f = basis_class(lat, "f")
    return SurfaceModel(
        lat,
        -2 * s,
        0,
        (Curve("s", s, "section"), Curve("f", f, "fiber-component")),
    )


# ---------------------------------------------------------------------------
# Divisor shape options
# ---------------------------------------------------------------------------

IRREDUCIBLE_SHAPES = ("se", "nodal")


def _parse_shape(value) -> str | tuple[int, ...]:
    """A shape is "se", "nodal", or a cusp cycle type of length >= 2."""
    if isinstance(value, str):
        if value in IRREDUCIBLE_SHAPES:
            return value
        if value.startswith("c:"):
            value = value[2:].split(",")
        else:
            raise BuilderError(f"unknown divisor shape {value!r}")
    try:
        seq = tuple(int(x) for x in value)
    except (TypeError, ValueError) as exc:
        raise BuilderError(f"bad divisor shape {value!r}: {exc}") from exc
    if len(seq) < 2:
        raise BuilderError("cycle shapes need length >= 2; use 'nodal' instead")
    return seq


def _shape_germ(shape, target_mult: int, j_tag: str | None = None) -> SingularityGerm:
    if shape == "se":
        return simple_elliptic(target_mult, j_tag)
    if shape == "nodal":
        return cusp(target_mult)
    germ = normalize_cusp(shape)
    if multiplicity(germ) != target_mult:
        raise BuilderError(
            f"cusp type {shape} has multiplicity {multiplicity(germ)},"
            f" this divisor needs {target_mult}"
        )
    return germ


def _cycle(
    germ: SingularityGerm, names: Sequence[str]
) -> tuple[list[tuple[str, str]], list[int]]:
    """Dual-graph edges of the germ's resolution cycle on the component
    `names` (in cycle order) and the positions of its distinguished
    components, the entries > 2."""
    return cycle_edges(names), [i for i, e in enumerate(germ.data) if e > 2]


def _anticanonical_cycle(
    germ: SingularityGerm, names: Sequence[str]
) -> tuple[list[int], list[tuple[str, str]], dict[str, int]]:
    """Pre-blowup diagonal, edges and blowup multiplicities of a
    multiplicity-2 cycle whose entries > 2 come from one blowup.

    Type (4, 2, ..): the distinguished component is self-nodal of square
    0 and the node is blown up with multiplicity 2. Type (3, .., 3, ..):
    the two distinguished components meet at one extra node, blown up
    with multiplicity 1 on each.
    """
    edges, marked = _cycle(germ, names)
    if len(marked) == 1:
        if germ.data[marked[0]] != 4:
            raise BuilderError(f"unexpected cycle entry {germ.data[marked[0]]}")
        diag = [0 if i == marked[0] else -2 for i in range(len(names))]
        return diag, edges, {names[marked[0]]: 2}
    a, b = names[marked[0]], names[marked[1]]
    return [-2] * len(names), edges + [(a, b)], {a: 1, b: 1}


def _check_mults_option(key: str, mults, expected: tuple[int, ...]) -> None:
    if mults is None:
        return
    try:
        got = tuple(sorted((int(m) for m in mults), reverse=True))
    except (TypeError, ValueError) as exc:
        raise BuilderError(f"bad mults option {mults!r}: {exc}") from exc
    if got == expected:
        return
    if key in ("2,1,1", "1,1,1") and got.count(2) >= 2:
        raise BuilderError(
            "a blown-up elliptic ruled surface admits at most one"
            " multiplicity-2 point (with m_1 = 2 forcing m_2 = m_3 = 1)"
        )
    raise BuilderError(f"stratum {key} has multiplicities {expected}, not {got}")


# ---------------------------------------------------------------------------
# Stratum builders
# ---------------------------------------------------------------------------


def _build_empty() -> SurfaceModel:
    lat = graph_lattice(("KY",), (1,), ())
    return SurfaceModel(lat, basis_class(lat, "KY"), 3, ())


def _build_kappa1(shape) -> SurfaceModel:
    germ = _shape_germ(shape, 1)
    if shape in IRREDUCIBLE_SHAPES:
        lat = graph_lattice(("F", "D"), (0, -1), [("F", "D")])
        curves = (
            Curve("F", basis_class(lat, "F"), "fiber-component"),
            Curve("D", basis_class(lat, "D"), "bisection"),
        )
        return SurfaceModel(
            lat, basis_class(lat, "F"), 2, curves, (("D",),), (germ,)
        )
    # reducible: bisection of square -3 plus fiber components of square -2
    names = [f"E{i+1}" for i in range(len(germ.data))]
    edges, marked = _cycle(germ, names)
    if len(marked) != 1:
        raise BuilderError("a kappa=1 divisor cycle has a single (-3) component")
    bis = names[marked[0]]
    lat = graph_lattice(
        ["F"] + names, [0] + [-e for e in germ.data], edges + [("F", bis)]
    )
    curves = [Curve("F", basis_class(lat, "F"), "fiber-component")]
    for name in names:
        tag = "bisection" if name == bis else "fiber-component"
        curves.append(Curve(name, basis_class(lat, name), tag))
    return SurfaceModel(
        lat, basis_class(lat, "F"), 2, tuple(curves), (tuple(names),), (germ,)
    )


def _build_k3(shape) -> SurfaceModel:
    germ = _shape_germ(shape, 2)
    if shape in IRREDUCIBLE_SHAPES:
        lat = graph_lattice(("Dbar",), (2,), ())
        base = SurfaceModel(
            lat,
            zero_class(lat),
            2,
            (Curve("D", basis_class(lat, "Dbar"), "other"),),
            (("D",),),
            (germ,),
        )
        return blowup(base, {"D": 2}, "C")
    names = [f"E{i+1}" for i in range(len(germ.data))]
    diag, edges, mults = _anticanonical_cycle(germ, names)
    lat = graph_lattice(names, diag, edges)
    curves = tuple(Curve(n, basis_class(lat, n), "other") for n in names)
    base = SurfaceModel(lat, zero_class(lat), 2, curves, (tuple(names),), (germ,))
    return blowup(base, mults, "C")


def _build_enriques(shape1, shape2) -> SurfaceModel:
    labels, diag, edges, groups, germs, crossing = [], [], [], [], [], []
    for shape, prefix in ((shape1, "A"), (shape2, "B")):
        germ = _shape_germ(shape, 1)
        names = [f"{prefix}{i+1}" for i in range(len(germ.data))]
        cycle, marked = _cycle(germ, names)
        if shape in IRREDUCIBLE_SHAPES:
            diag.append(0)
            crossing.append(names[0])
        else:
            if len(marked) != 1 or germ.data[marked[0]] != 3:
                raise BuilderError(
                    "an Enriques-side cycle is the multiplicity-1 type (3,2,..,2)"
                )
            diag += [-2] * len(names)
            crossing.append(names[marked[0]])
        labels += names
        edges += cycle
        groups.append(tuple(names))
        germs.append(germ)
    lat = graph_lattice(labels, diag, edges + [tuple(crossing)])
    curves = tuple(Curve(n, basis_class(lat, n), "other") for n in labels)
    base = SurfaceModel(
        lat,
        zero_class(lat),  # K is 2-torsion: numerically trivial
        1,
        curves,
        tuple(groups),
        tuple(germs),
    )
    return blowup(base, {c: 1 for c in crossing}, "C")


def _build_rat22(shape1, shape2) -> SurfaceModel:
    """Rational (2,2) model: the base is the one-point blowdown carrying
    an anticanonical divisor D_2, the arithmetic-genus-2 curve over D_1,
    and the curve that becomes the second exceptional class; the marked
    point of D_1 is then blown up."""
    germ1 = _shape_germ(shape1, 2)
    germ2 = _shape_germ(shape2, 2)
    if shape1 in IRREDUCIBLE_SHAPES:
        names1, diag1, edges1, mults1 = ["A1"], [2], [], {"A1": 2}
    else:
        names1 = [f"A{i+1}" for i in range(len(germ1.data))]
        diag1, edges1, mults1 = _anticanonical_cycle(germ1, names1)
    # D_2 is declared in its final shape
    es2 = germ2.data
    names2 = [f"B{i+1}" for i in range(len(es2))]
    edges2, marked2 = _cycle(germ2, names2)
    # the curve contracting to the symmetric blowdown passes through the
    # blown-up point of D_1 and meets D_2 with total multiplicity 2
    if len(es2) == 1:
        contact2 = {names2[0]: es2[0]}
    else:
        contact2 = {names2[i]: es2[i] - 2 for i in marked2}
    c2_edges = [
        ("C2", n) for n, mu in {**mults1, **contact2}.items() for _ in range(mu)
    ]

    labels = names1 + names2 + ["C2"]
    lat = graph_lattice(
        labels, diag1 + [-e for e in es2] + [0], edges1 + edges2 + c2_edges
    )
    K = zero_class(lat)
    for n in names2:
        K = K - basis_class(lat, n)
    curves = [Curve(n, basis_class(lat, n), "other") for n in names1 + names2]
    curves.append(Curve("C2", basis_class(lat, "C2"), "exceptional"))
    base = SurfaceModel(
        lat,
        K,
        1,
        tuple(curves),
        (tuple(names1), tuple(names2)),
        (germ1, germ2),
    )
    return blowup(base, {**mults1, "C2": 1}, "C1")


def _build_rat21(shape1, shape2) -> SurfaceModel:
    germ1 = _shape_germ(shape1, 2)
    germ2 = _shape_germ(shape2, 1)
    labels, diag, edges = ["F", "E"], [0, -1], [("F", "E")]

    fiber_reducible = shape1 not in IRREDUCIBLE_SHAPES
    if fiber_reducible:
        fnames = [f"G{i+1}" for i in range(len(germ1.data))]
        fedges, marked = _cycle(germ1, fnames)
        if len(marked) == 1:  # type (4,2,..): both points on one component
            points = [fnames[marked[0]]] * 2
        else:  # type (3,2^a,3,2^b): one point on each distinguished component
            points = [fnames[marked[0]], fnames[marked[1]]]
        labels += fnames
        diag += [-2] * len(fnames)
        edges += fedges + [("E", p) for p in points]
    else:
        fnames, points = ["G"], ["G", "G"]

    if shape2 in IRREDUCIBLE_SHAPES:
        bnames, bis = ["Gam"], "Gam"
    else:
        bnames = ["B"] + [f"T{i}" for i in range(1, len(germ2.data))]
        bedges, marked = _cycle(germ2, bnames)
        if len(marked) != 1 or germ2.data[marked[0]] != 3:
            raise BuilderError(
                "a multiplicity-1 bisection cycle is the type (3,2,..,2)"
            )
        # the bisection component B carries both blowup points: -1 becomes -3
        bis = "B"
        labels += bnames
        diag += [-1] + [-2] * (len(bnames) - 1)
        edges += bedges + [("B", "F")]
        if fiber_reducible:
            edges += [("B", p) for p in points]
    lat = graph_lattice(labels, diag, edges)

    curves = [
        Curve("F", basis_class(lat, "F"), "fiber-component"),
        Curve("E", basis_class(lat, "E"), "bisection"),
    ]
    if fiber_reducible:
        curves += [
            Curve(n, basis_class(lat, n), "fiber-component") for n in fnames
        ]
    else:
        curves.append(Curve("G", 2 * basis_class(lat, "F"), "fiber-component"))
    if shape2 in IRREDUCIBLE_SHAPES:
        curves.append(
            Curve(
                "Gam",
                basis_class(lat, "E") + basis_class(lat, "F"),
                "bisection",
            )
        )
    else:
        curves.append(Curve("B", basis_class(lat, "B"), "bisection"))
        curves += [
            Curve(n, basis_class(lat, n), "fiber-component") for n in bnames[1:]
        ]

    base = SurfaceModel(
        lat,
        -1 * basis_class(lat, "F"),
        1,
        tuple(curves),
        (tuple(fnames), tuple(bnames)),
        (germ1, germ2),
    )
    surf = blowup(base, {points[0]: 1, bis: 1}, "C1")
    surf = blowup(surf, {points[1]: 1, bis: 1}, "C2")
    return surf


def _build_rat11(shape1, shape2) -> SurfaceModel:
    for shape in (shape1, shape2):
        if shape not in IRREDUCIBLE_SHAPES:
            raise BuilderError(
                "the rational (1,1) construction is only carried out for"
                " irreducible divisors"
            )
    base = rational_elliptic_surface()
    lat = base.lattice
    F = basis_class(lat, "F")
    E = basis_class(lat, "E")
    base = add_curves(
        base,
        Curve("G", 2 * F, "fiber-component"),
        Curve("Gam", E + 2 * F, "bisection"),
    )
    base = replace(
        base,
        divisor_groups=(("G",), ("Gam",)),
        germs=(_shape_germ(shape1, 1), _shape_germ(shape2, 1)),
    )
    return blowup(base, {"G": 1, "Gam": 2}, "C")


def _build_ruled211() -> SurfaceModel:
    base = elliptic_ruled_surface()
    lat = base.lattice
    sig = basis_class(lat, "sig")
    f = basis_class(lat, "f")
    base = add_curves(
        base,
        Curve("Gam", 2 * sig - f, "bisection"),
        Curve("s2", sig, "section"),
        Curve("s3", sig, "section"),
        Curve("fp1", f, "fiber-component"),
    )
    base = replace(
        base,
        divisor_groups=(("Gam",), ("s2",), ("s3",)),
        germs=(
            simple_elliptic(2, "isogenous"),
            simple_elliptic(1, "isogenous"),
            simple_elliptic(1, "isogenous"),
        ),
    )
    surf = blowup(base, {"s2": 1, "s3": 1, "fp1": 1}, "C1")
    surf = blowup(surf, {"Gam": 1, "s3": 1}, "C2")
    surf = blowup(surf, {"Gam": 1, "s2": 1}, "C3")
    return surf


def _build_ruled111() -> SurfaceModel:
    base = elliptic_ruled_surface()
    lat = base.lattice
    sig = basis_class(lat, "sig")
    f = basis_class(lat, "f")
    base = add_curves(
        base,
        Curve("Gam1", 2 * sig - f, "bisection"),
        Curve("Gam2", 2 * sig - f, "bisection"),
        Curve("s3", sig, "section"),
        Curve("fx1", f, "fiber-component"),
    )
    base = replace(
        base,
        divisor_groups=(("Gam1",), ("Gam2",), ("s3",)),
        germs=(
            simple_elliptic(1, "isogenous"),
            simple_elliptic(1, "isogenous"),
            simple_elliptic(1, "isogenous"),
        ),
    )
    surf = blowup(base, {"Gam1": 1, "s3": 1, "fx1": 1}, "C1")
    surf = blowup(surf, {"Gam2": 1, "s3": 1}, "C2")
    return surf


def build_stratum(
    key: str,
    d1=None,
    d2=None,
    d3=None,
    mults: Sequence[int] | None = None,
) -> SurfaceModel:
    """Resolved model of one boundary stratum.

    `key` is one of: empty, 1, 2, 1,1E, 2,2, 2,1, 1,1R, 2,1,1, 1,1,1.
    The d_i options pick the shape of the i-th marked divisor: "se",
    "nodal", or a cusp cycle type such as (4, 2, 2). Option combinations
    the corresponding construction excludes raise BuilderError.
    """
    shapes = [s for s in (d1, d2, d3) if s is not None]
    if key == "empty":
        _check_mults_option(key, mults, ())
        if shapes:
            raise BuilderError("the minimal stratum has no marked divisors")
        return _build_empty()
    if key == "1":
        _check_mults_option(key, mults, (1,))
        return _build_kappa1(_parse_shape(d1 or "se"))
    if key == "2":
        _check_mults_option(key, mults, (2,))
        return _build_k3(_parse_shape(d1 or "se"))
    if key == "1,1E":
        _check_mults_option(key, mults, (1, 1))
        return _build_enriques(_parse_shape(d1 or "se"), _parse_shape(d2 or "se"))
    if key == "2,2":
        _check_mults_option(key, mults, (2, 2))
        return _build_rat22(_parse_shape(d1 or "se"), _parse_shape(d2 or "se"))
    if key == "2,1":
        _check_mults_option(key, mults, (2, 1))
        return _build_rat21(_parse_shape(d1 or "se"), _parse_shape(d2 or "se"))
    if key == "1,1R":
        _check_mults_option(key, mults, (1, 1))
        return _build_rat11(_parse_shape(d1 or "se"), _parse_shape(d2 or "se"))
    if key in ("2,1,1", "1,1,1"):
        expected = (2, 1, 1) if key == "2,1,1" else (1, 1, 1)
        _check_mults_option(key, mults, expected)
        for s in shapes:
            if _parse_shape(s) != "se":
                raise BuilderError(
                    "a blown-up elliptic ruled surface only carries simple"
                    " elliptic singularities"
                )
        return _build_ruled211() if key == "2,1,1" else _build_ruled111()
    raise BuilderError(f"unknown stratum {key!r}")


def all_builder_variants() -> list[tuple[str, dict]]:
    """A spanning set of builder configurations (all strata, irreducible
    and reducible divisor options)."""
    return [
        ("empty", {}),
        ("1", {"d1": "se"}),
        ("1", {"d1": "nodal"}),
        ("1", {"d1": (3, 2)}),
        ("1", {"d1": (3, 2, 2, 2, 2)}),
        ("2", {"d1": "se"}),
        ("2", {"d1": "nodal"}),
        ("2", {"d1": (4, 2, 2)}),
        ("2", {"d1": (3, 3)}),
        ("2", {"d1": (3, 2, 3, 2)}),
        ("1,1E", {"d1": "se", "d2": "se"}),
        ("1,1E", {"d1": "se", "d2": (3, 2, 2)}),
        ("1,1E", {"d1": (3, 2), "d2": (3, 2)}),
        ("2,2", {"d1": "se", "d2": "se"}),
        ("2,2", {"d1": (4, 2), "d2": "nodal"}),
        ("2,2", {"d1": (3, 3), "d2": (4, 2, 2)}),
        ("2,1", {"d1": "se", "d2": "se"}),
        ("2,1", {"d1": (4, 2, 2), "d2": "se"}),
        ("2,1", {"d1": (3, 3), "d2": (3, 2, 2)}),
        ("2,1", {"d1": "nodal", "d2": (3, 2)}),
        ("1,1R", {"d1": "se", "d2": "se"}),
        ("1,1R", {"d1": "nodal", "d2": "nodal"}),
        ("2,1,1", {}),
        ("1,1,1", {}),
    ]


# ---------------------------------------------------------------------------
# The I-surface identity verifier
# ---------------------------------------------------------------------------


def _cycle_sequence(surf: SurfaceModel, i: int) -> tuple[int, ...] | None:
    """Self-intersection sequence (-e_1, .., -e_r as positive e_i) of the
    i-th marked divisor read off the dual graph, or None if it is not a
    cycle."""
    group = surf.divisor_groups[i]
    classes = [surf.curve_class(n) for n in group]
    r = len(group)
    if r == 1:
        return (-classes[0].square,)
    if r == 2:
        if pair(classes[0], classes[1]) != 2:
            return None
        return (-classes[0].square, -classes[1].square)
    adj = {
        a: [b for b in range(r) if b != a and pair(classes[a], classes[b]) == 1]
        for a in range(r)
    }
    if any(len(v) != 2 for v in adj.values()):
        return None
    order = [0, adj[0][0]]
    while len(order) < r:
        nxt = [b for b in adj[order[-1]] if b != order[-2]]
        if len(nxt) != 1 or nxt[0] in order:
            return None
        order.append(nxt[0])
    if order[0] not in adj[order[-1]]:
        return None
    return tuple(-classes[a].square for a in order)


def verify_I_surface(surf: SurfaceModel) -> Report:
    """Run the complete numerical identity battery on one stratum model.

    Covers: L = K + sum D_i with L^2 = 1 and L trivial exactly on the
    marked components, the multiplicity identities K.D_i = m_i = -D_i^2,
    K^2 = 1 - m, chi(O) = 3 - k, the partial-blowdown classes
    M_i = K + D_i' with their full pairing table, negative definiteness
    of every marked divisor, adjunction on components, and agreement of
    each germ with the cycle it marks.
    """
    rep = Report()
    k = surf.k
    L = surf.L
    groups = [surf.group_class(i) for i in range(k)]
    bad_germs = [
        str(g) for g in surf.germs if g.kind not in ("simple_elliptic", "cusp")
    ]
    rep.add(
        "germs.supported",
        "marked points are simple elliptic or cusp germs",
        [],
        bad_germs,
    )
    if bad_germs:
        return rep
    ms = [multiplicity(g) for g in surf.germs]
    m = sum(ms)

    rep.add("L.square", "omega^2 = 1", 1, L.square)
    rep.add("chiO", "chi drops by one per resolved point (chi(Y) = 3)", 3 - k, surf.chiO)
    rep.add("K.square", "K^2 = 1 - m", 1 - m, pair(surf.K, surf.K))
    rep.add("k.bound", "k <= p_g + 1 with p_g = 2", True, k <= 3)

    marked = surf.marked_names()
    for c in surf.curves:
        v = pair(L, c.cls)
        if c.name in marked:
            rep.add(f"L.{c.name}", "L trivial on marked components", 0, v)
        else:
            rep.add(
                f"L.{c.name}.pos",
                "L positive off the marked locus (declared curves only)",
                True,
                v > 0,
            )

    for i in range(k):
        di = groups[i]
        rep.add(f"D{i+1}.square", "D_i^2 = -m_i", -ms[i], di.square)
        rep.add(f"K.D{i+1}", "K.D_i = m_i", ms[i], pair(surf.K, di))
        rep.add(
            f"D{i+1}.negdef",
            "marked divisor contracts: negative definite",
            True,
            is_negative_definite(surf.group_sublattice(i)),
        )
        seq = _cycle_sequence(surf, i)
        germ = surf.germs[i]
        if germ.kind == "simple_elliptic":
            rep.add(
                f"D{i+1}.germ",
                "elliptic curve of square -m",
                (germ.data[0],),
                seq,
            )
        else:
            expected = germ.data
            got = None if seq is None else min(dihedral_orbit(seq))
            rep.add(f"D{i+1}.germ", "cusp cycle matches its type", expected, got)
        irreducible = len(surf.divisor_groups[i]) == 1
        for name in surf.divisor_groups[i]:
            try:
                pa = adjunction_genus(surf.curve_class(name), surf)
            except ModelError:
                pa = None
            rep.add(
                f"pa.{name}",
                "adjunction on components",
                1 if irreducible else 0,
                pa,
            )
        for j in range(i + 1, k):
            rep.add(f"D{i+1}.D{j+1}", "marked divisors disjoint", 0, pair(di, groups[j]))

    for i in range(k):
        mi = surf.M(i)
        rep.add(f"M{i+1}.square", "M_i^2 = 1 - m_i", 1 - ms[i], mi.square)
        rep.add(f"M{i+1}.D{i+1}", "M_i.D_i = m_i", ms[i], pair(mi, groups[i]))
        dprime = zero_class(surf.lattice)
        for j in range(k):
            if j != i:
                dprime = dprime + groups[j]
        rep.add(f"M{i+1}.Dprime{i+1}", "M_i trivial near the other points", 0, pair(mi, dprime))
        rep.add(f"M{i+1}.K", "M_i.K = 1 - m_i", 1 - ms[i], pair(mi, surf.K))
        for j in range(i + 1, k):
            rep.add(f"M{i+1}.M{j+1}", "M_i.M_j = 1", 1, pair(mi, surf.M(j)))

    rep.add("model.invariants", "structural invariants", [], surf.validate())
    return rep


# ---------------------------------------------------------------------------
# Hirzebruch double covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverClass:
    """Divisor class on the double cover, stored as half the pullback
    vector: nu*(x) . nu*(y) = 2 x.y in the base."""

    base: IntersectionLattice
    half: tuple[Fraction, ...]

    def _same(self, other: "CoverClass") -> None:
        if self.base != other.base:
            raise ModelError("cover classes from different double covers")

    def __add__(self, other: "CoverClass") -> "CoverClass":
        self._same(other)
        return CoverClass(
            self.base, tuple(a + b for a, b in zip(self.half, other.half))
        )

    def __sub__(self, other: "CoverClass") -> "CoverClass":
        self._same(other)
        return CoverClass(
            self.base, tuple(a - b for a, b in zip(self.half, other.half))
        )

    def __rmul__(self, scalar) -> "CoverClass":
        s = Fraction(scalar)
        return CoverClass(self.base, tuple(s * a for a in self.half))


@dataclass(frozen=True)
class DoubleCoverModel:
    """Blown-up Hirzebruch surface F~_N with the branch data of the
    bisection double-cover construction, plus cover-side pairing rules."""

    N: int
    k: int
    base: SurfaceModel
    B: DivisorClass
    B0: DivisorClass

    @property
    def p_g(self) -> int:
        return self.k - self.N - 1

    @property
    def sigma_tilde_sq(self) -> int:
        return 2 * self.base.curve_class("sigma0").square

    @property
    def sigma_sq(self) -> int:
        return self.sigma_tilde_sq + 1

    @property
    def pa_sigma(self) -> int:
        return self.p_g - self.N + 1

    def half_branch(self) -> DivisorClass:
        coeffs = []
        for c in self.B.coeffs:
            if c % 2 != 0:
                raise ModelError("branch class is not divisible by 2")
            coeffs.append(c // 2)
        return DivisorClass(self.base.lattice, tuple(coeffs))

    # cover-side primitives
    def pullback(self, d: DivisorClass) -> CoverClass:
        if d.lattice != self.base.lattice:
            raise ModelError("pullback of a class from a different base")
        return CoverClass(self.base.lattice, tuple(Fraction(c) for c in d.coeffs))

    def e_curve(self, i: int) -> CoverClass:
        if i not in (1, 2):
            raise ModelError("the cover has exceptional curves e1, e2")
        name = "d1" if i == 1 else "d2"
        return Fraction(1, 2) * self.pullback(self.base.curve_class(name))

    def f_prime(self) -> CoverClass:
        return self.pullback(self.base.curve_class("e"))

    def sigma_tilde(self) -> CoverClass:
        return self.pullback(self.base.curve_class("sigma0"))

    def fiber(self) -> CoverClass:
        return self.pullback(self.base.curve_class("f"))


def build_double_cover(N: int, k: int) -> DoubleCoverModel:
    """F~_N (two-point blowup of the Hirzebruch surface F_N) carrying the
    branch divisor B = B_0 + d_1 + d_2 of the double cover with a
    multiplicity-2 fiber; requires k >= 2N."""
    if N < 1:
        raise BuilderError("N must be at least 1")
    if k < 2 * N:
        raise BuilderError("the branch class needs k >= 2N")
    lat = graph_lattice(
        ("sigma0", "f", "e", "d2"),
        (-N, 0, -1, -2),
        [("sigma0", "f"), ("sigma0", "d2"), ("e", "d2")],
    )
    sigma0 = basis_class(lat, "sigma0")
    f = basis_class(lat, "f")
    e = basis_class(lat, "e")
    d2 = basis_class(lat, "d2")
    d1 = f - 2 * e - d2
    K = -2 * sigma0 - (N + 2) * f + d1 + 2 * e
    curves = (
        Curve("sigma0", sigma0, "section"),
        Curve("f", f, "fiber-component"),
        Curve("e", e, "exceptional"),
        Curve("d2", d2, "fiber-component"),
        Curve("d1", d1, "fiber-component"),
    )
    base = SurfaceModel(lat, K, 1, curves)
    B = 4 * sigma0 + (2 * k) * f - 2 * e + 2 * d2
    B0 = B - d1 - d2
    model = DoubleCoverModel(N, k, base, B, B0)
    assert model.B == model.B0 + d1 + d2
    model.half_branch()  # raises if B were not 2-divisible
    return model


def cover_pairing(a: CoverClass, b: CoverClass, dc: DoubleCoverModel) -> int:
    """Intersection number on the double cover: nu*x . nu*y = 2 x.y."""
    a._same(b)
    if a.base != dc.base.lattice:
        raise ModelError("cover classes do not belong to this double cover")
    gram = a.base.gram
    total = Fraction(0)
    for i, ai in enumerate(a.half):
        if ai:
            total += ai * sum(
                bj * gram[i][j] for j, bj in enumerate(b.half) if bj
            )
    total *= 2
    if total.denominator != 1:
        raise ModelError("expression mixes undeclared primitives")
    return int(total)


# ---------------------------------------------------------------------------
# Vanishing-theorem bound replication
# ---------------------------------------------------------------------------


def _thm43_bound() -> dict[str, object]:
    dc = build_double_cover(1, 3)
    v = pair(dc.B0, combo(dc.base.lattice, sigma0=1, f=3, e=-1))
    lz1, _ = c2_length_counts(1)
    return {"thm4.3.pairing": v, "thm4.3.bound": v < lz1}


def _thm45_bound() -> dict[str, object]:
    dc = build_double_cover(2, 4)
    # the reducible-cycle bound lives on a further embedded resolution;
    # the combination used there weights B0.e by 2
    v = (
        pair(dc.B0, dc.base.curve_class("sigma0"))
        + 3 * pair(dc.B0, dc.base.curve_class("f"))
        - 2 * pair(dc.B0, dc.base.curve_class("e"))
    )
    out: dict[str, object] = {"thm4.5.pairing": v}
    for r in (14, 15):
        _, lw = c2_length_counts(1, r)
        out[f"thm4.5.bound.r{r}"] = v < lw - 1
    return out


def _prop69_bound() -> dict[str, object]:
    dc = build_double_cover(1, 2)
    v = pair(dc.B0, combo(dc.base.lattice, sigma0=1, f=2, e=-1))
    lz0, _ = c2_length_counts(0)
    return {"prop6.9.pairing": v, "prop6.9.bound": v < lz0}


def _prop617_bound() -> dict[str, object]:
    dc = build_double_cover(1, 2)
    v = pair(dc.B0, combo(dc.base.lattice, sigma0=1, f=3, e=-1))
    lz0, _ = c2_length_counts(0)
    return {"prop6.17.pairing": v, "prop6.17.bound": v < lz0}


# (check id, source, expected, statement). A statement recomputes its
# pairing straight from the declared Gram data and returns the computed
# value of each of its check ids.
VANISHING_BOUNDS = (
    ("thm4.3.pairing", "Thm 4.3: B0.(sigma0+3f-e)", 13, _thm43_bound),
    ("thm4.3.bound", "Thm 4.3: pairing < l(Z) = 24", True, _thm43_bound),
    ("thm4.5.pairing", "Thm 4.5: B0.sigma0 + 3 B0.f - 2 B0.e", 9, _thm45_bound),
    ("thm4.5.bound.r14", "Thm 4.5: pairing < #(W) >= 24 - r", True, _thm45_bound),
    ("thm4.5.bound.r15", "Thm 4.5: pairing < #(W) >= 24 - r", False, _thm45_bound),
    ("prop6.9.pairing", "Prop 6.9: B0.(sigma0+2f-e)", 7, _prop69_bound),
    ("prop6.9.bound", "Prop 6.9: pairing < l(Z) = 12", True, _prop69_bound),
    ("prop6.17.pairing", "Prop 6.17: B0.(sigma0+3f-e)", 11, _prop617_bound),
    ("prop6.17.bound", "Prop 6.17: pairing < l(Z) = 12", True, _prop617_bound),
)


def vanishing_bound_checks() -> Report:
    """Recompute the four pairing values that drive the vanishing bounds
    (13, 9, 7, 11), each statement once, then compare them against the
    singular-point counts they must stay below."""
    computed: dict[str, object] = {}
    for statement in dict.fromkeys(row[3] for row in VANISHING_BOUNDS):
        computed.update(statement())
    rep = Report()
    for check_id, source, expected, _ in VANISHING_BOUNDS:
        rep.add(check_id, source, expected, computed[check_id])
    return rep
