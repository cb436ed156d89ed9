"""Replication catalog: every numeric identity the engine certifies,
keyed by the statement label it reproduces.

Each entry recomputes its value from scratch through the public
operations; nothing is cached between entries, so an entry's value does
not depend on which other entries run or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import builders
from .adjacency import build_strata_graph, direct_adjacencies, is_adjacent
from .builders import (
    VANISHING_BOUNDS,
    FibrationData,
    all_builder_variants,
    build_double_cover,
    build_stratum,
    c2_length_counts,
    canonical_bundle_coeffs,
    cover_pairing,
    verify_I_surface,
)
from .divisors import (
    Curve,
    adjunction_genus,
    basis_class,
    blowup,
    class_expressions_agree,
    combo,
    nef_check,
    pair,
    riemann_roch_chi,
)
from .errors import BuilderError
from .germs import (
    cusp,
    enumerate_types,
    multiplicity,
    normalize_cusp,
    parse_germ,
    rdp,
    resolution_lattice,
    simple_elliptic,
    smooth,
)
from .lattice import is_negative_definite, make_named_lattice, signature
from .report import CheckEntry, Report


@dataclass(frozen=True)
class CatalogCheck:
    check_id: str
    source: str
    run: Callable[[], tuple[Any, Any]]


def _sig(family, n, m=None, scale=1):
    return signature(make_named_lattice(family, n, m, scale)).as_tuple()


def build_catalog() -> list[CatalogCheck]:
    checks: list[CatalogCheck] = []

    def add(check_id: str, source: str, fn: Callable[[], tuple[Any, Any]]):
        checks.append(CatalogCheck(check_id, source, fn))

    # -- lattice signatures -------------------------------------------------
    for n in (1, 2, 3, 5, 8, 13, 20):
        add(
            f"lem5.2.lambda0.n{n}",
            "Lem 5.2: Lambda0(n) has signature (1, n)",
            lambda n=n: ((1, n, 0), _sig("Lambda0", n)),
        )
    for n, m in ((1, 1), (2, 3), (4, 2)):
        add(
            f"lem5.2.lambda1.n{n}m{m}",
            "Lem 5.2: Lambda1(n,m) has signature (1, n+m+1)",
            lambda n=n, m=m: ((1, n + m + 1, 0), _sig("Lambda1", n, m)),
        )
    for n, m in ((1, 1), (2, 2), (3, 4)):
        add(
            f"lem5.2.lambda2.n{n}m{m}",
            "Lem 5.2: Lambda2(n,m) has signature (1, n+m+1)",
            lambda n=n, m=m: ((1, n + m + 1, 0), _sig("Lambda2", n, m)),
        )
    add(
        "sec5.5.lambda2.scaled",
        "Lambda2(n,m)(2) spans the anti-invariant classes; same signature",
        lambda: ((1, 5, 0), _sig("Lambda2", 2, 2, scale=2)),
    )
    add(
        "def5.1.lambda0.gram",
        "Def 5.1: e0^2 = 0, e_i^2 = -2, cyclic pairing 1",
        lambda: (
            ((0, 1, 1), (1, -2, 1), (1, 1, -2)),
            make_named_lattice("Lambda0", 2).gram,
        ),
    )
    add(
        "rem2.11.negdef.cusp",
        "Rem 2.11: a contractible cusp cycle is negative definite",
        lambda: (True, is_negative_definite(resolution_lattice(cusp(3, 2, 3, 2)))),
    )
    add(
        "lem5.2.lambda0.indefinite",
        "Lem 5.2: Lambda0(3) is not negative definite",
        lambda: (False, is_negative_definite(make_named_lattice("Lambda0", 3))),
    )

    # -- divisor arithmetic --------------------------------------------------
    add(
        "thm2.11ii.L.square",
        "Thm 2.11(ii): L = F + D has L^2 = 1",
        lambda: (1, build_stratum("1").L.square),
    )

    def _k3_cd():
        surf = build_stratum("2")
        return 2, pair(surf.K, surf.group_class(0))

    add("thm2.11iii.C.D", "Thm 2.11(iii): C.D = 2 on the blown-up K3", _k3_cd)

    def _pair13():
        dc = build_double_cover(1, 3)
        probe = combo(dc.base.lattice, sigma0=1, f=3, e=-1)
        return 13, pair(dc.B0, probe)

    add("thm4.3.pair13", "Thm 4.3: -4 + 12 + 5 + 2 - 2 = 13", _pair13)

    def _genus2():
        base = builders.rational_elliptic_surface()
        gamma = combo(base.lattice, E=1, F=2)
        return 2, adjunction_genus(gamma, base)

    add("lem6.12iv.genus2", "Lem 6.12(iv): Gamma^2 = 3 gives genus 2", _genus2)

    def _adj_di():
        surf = build_stratum("2")
        return 1, adjunction_genus(surf.group_class(0), surf)

    add("def2.6.adjunction", "Def 2.6: K.D_i + D_i^2 = 0, so p_a(D_i) = 1", _adj_di)

    def _adj_exc():
        surf = build_stratum("2")
        return 0, adjunction_genus(surf.curve_class("C"), surf)

    add("adjunction.exceptional", "exceptional curve has genus 0", _adj_exc)

    def _rr_nmi():
        surf = build_stratum("1")  # k = 1, M_1 = K, chi(O) = 2
        return Fraction(2), riemann_roch_chi(3 * surf.M(0), surf)

    add("thm2.13.rr.nM", "Thm 2.13 proof: chi(n M_i) = 2 for all n", _rr_nmi)

    def _rr_ex610():
        base = builders.rational_elliptic_surface()
        return Fraction(2), riemann_roch_chi(combo(base.lattice, E=1, F=1), base)

    add("ex6.10.rr", "Ex 6.10: chi(E + F) = (1+1)/2 + 1 = 2", _rr_ex610)

    def _sextic():
        surf = builders.projective_plane()
        surf = builders.add_curves(
            surf,
            Curve("Gam", 6 * basis_class(surf.lattice, "H"), "other"),
            Curve("Fib", 3 * basis_class(surf.lattice, "H"), "other"),
        )
        for i in range(1, 10):
            mult = 1 if i == 1 else 2
            surf = blowup(surf, {"Gam": mult, "Fib": 1}, f"E{i}")
        gam, fib = surf.curve_class("Gam"), surf.curve_class("Fib")
        return (36 - 1 - 32, 18 - 1 - 16), (gam.square, pair(gam, fib))

    add("ex6.18.sextic", "Ex 6.18: d = 6 with 36-1-32 = 3 and 18-1-16 = 1", _sextic)

    def _ksq_drop():
        surf = builders.projective_plane()
        before = surf.K.square
        after = blowup(surf, {}, "E1").K.square
        return before - 1, after

    add("lem2.1.blowup.ksq", "one blowup drops K^2 by 1", _ksq_drop)

    def _prop61_transform():
        surf = build_stratum("2,2")  # blows up the node of the genus-2 curve
        d1 = surf.group_class(0)
        gamma_sq = 2
        return (gamma_sq - 4, 2), (d1.square, pair(surf.curve_class("C1"), d1))

    add(
        "prop6.1.blowup",
        "Prop 6.1: D_1 = Gamma - 2C has D_1^2 = Gamma^2 - 4 and C.D_1 = 2",
        _prop61_transform,
    )

    def _prop63_agree():
        surf = build_stratum("2,2")
        c1, c2 = surf.curve_class("C1"), surf.curve_class("C2")
        d1, d2 = surf.group_class(0), surf.group_class(1)
        return (True, False), (
            class_expressions_agree(c1 + d1, c2 + d2, surf),
            class_expressions_agree(c1, c2, surf),
        )

    add(
        "prop6.3.L.expressions",
        "Prop 6.3: L = C1 + D1 = C2 + D2 numerically (and C1 != C2)",
        _prop63_agree,
    )

    def _nef_m2():
        surf = build_stratum("2,1")
        res = nef_check(surf.M(1), surf)
        return (True, ()), (res.nef, res.violated_by)

    add("ex6.10.nef.M2", "Ex 6.10: K + D_1 = F is nef", _nef_m2)

    def _nef_m1_ruled():
        surf = build_stratum("2,1,1")
        res = nef_check(surf.M(0), surf)
        return (False, ("fp1",)), (res.nef, res.violated_by)

    add(
        "sec8.1.M1.notnef",
        "sec 8.1: M_1 = f - C_1 meets its own class negatively",
        _nef_m1_ruled,
    )

    # -- germs ---------------------------------------------------------------
    add(
        "lem1.3ii.mult.422",
        "Def 1.1: m = sum(e_i - 2) = 2 for (4,2,2)",
        lambda: (2, multiplicity(cusp(4, 2, 2))),
    )
    add(
        "thm1.6ivb.mult.33",
        "type (3,3) has multiplicity 2",
        lambda: (2, multiplicity(cusp(3, 3))),
    )
    add(
        "thm1.6ii.mult.len1",
        "Thm 1.6(ii): the length-one cusp of type (-1) has multiplicity 1",
        lambda: (1, multiplicity(cusp(1))),
    )
    add(
        "def1.1.se.mult",
        "simple elliptic multiplicity is -D^2",
        lambda: (2, multiplicity(simple_elliptic(2))),
    )
    add(
        "def1.1.normalform",
        "dihedral normal form of (2,3,2,4)",
        lambda: ((2, 3, 2, 4), normalize_cusp((2, 3, 2, 4)).data),
    )
    add(
        "def1.1.orbit.constant",
        "(3,2,2), (2,2,3), (2,3,2) share one normal form",
        lambda: (
            (True, True),
            (
                normalize_cusp((3, 2, 2)) == normalize_cusp((2, 2, 3)),
                normalize_cusp((3, 2, 2)) == normalize_cusp((2, 3, 2)),
            ),
        ),
    )
    add(
        "def1.1.res.33",
        "2-cycle resolution: [[-3,2],[2,-3]]",
        lambda: (((-3, 2), (2, -3)), resolution_lattice(cusp(3, 3)).gram),
    )
    add(
        "def1.1.res.322.negdef",
        "(3,2,2) cycle is negative definite",
        lambda: (True, is_negative_definite(resolution_lattice(cusp(3, 2, 2)))),
    )
    add(
        "lem1.3i.enumerate.m1",
        "Lem 1.3(i): one multiplicity-1 type per length",
        lambda: (
            ["se:1", "c:1", "c:2,3", "c:2,2,3", "c:2,2,2,3"],
            [str(g) for g in enumerate_types(1, 4)],
        ),
    )
    add(
        "lem1.3ii.enumerate.m2",
        "Lem 1.3(ii): multiplicity-2 types of length <= 2",
        lambda: (
            ["se:1", "se:2", "c:1", "c:2", "c:2,3", "c:2,4", "c:3,3"],
            [str(g) for g in enumerate_types(2, 2)],
        ),
    )
    add(
        "lem1.3ii.count.r6",
        "Lem 1.3(ii): 1 + (floor((r-2)/2) + 1) types of length r = 6",
        lambda: (
            1 + ((6 - 2) // 2 + 1),
            sum(
                1
                for g in enumerate_types(2, 6)
                if g.kind == "cusp" and len(g.data) == 6 and multiplicity(g) == 2
            ),
        ),
    )

    # -- adjacency -----------------------------------------------------------
    add(
        "thm1.6iiib.42.se1",
        "Thm 1.6(iii)(b): (4,2) deforms to a simple elliptic of mult 1",
        lambda: (True, is_adjacent(cusp(4, 2), simple_elliptic(1))),
    )
    add(
        "thm1.6ivb.33.c2",
        "Thm 1.6(iv)(b): (3,3) deforms to the type (-2)",
        lambda: (True, is_adjacent(cusp(3, 3), cusp(2))),
    )
    add(
        "thm1.6ivb.33.se2",
        "Thm 1.6(iv)(b): (3,3) deforms to a simple elliptic of mult 2",
        lambda: (True, is_adjacent(cusp(3, 3), simple_elliptic(2))),
    )
    add(
        "thm1.6i.se2.not.se1",
        "Thm 1.6(i): multiplicity never drops for simple elliptic germs",
        lambda: (False, is_adjacent(simple_elliptic(2), simple_elliptic(1))),
    )
    add(
        "thm1.6iiib.chain",
        "Thm 1.6(iii)(b) then (ii): (4,2,2,2,2) reaches (3,2)",
        lambda: (True, is_adjacent(cusp(4, 2, 2, 2, 2), cusp(3, 2))),
    )
    add(
        "thm1.6i.se2.targets",
        "Thm 1.6(i): SE(2) only reaches SE(2), RDPs, smooth germs",
        lambda: (
            {"se:2", "rdp", "smooth"},
            {str(t[0]) for t in direct_adjacencies(simple_elliptic(2))},
        ),
    )
    add(
        "def1.4.reflexive",
        "Def 1.4: the trivial deformation is an adjacency",
        lambda: (True, is_adjacent(cusp(4, 2), cusp(4, 2))),
    )

    def _monotone():
        ok = True
        for g in enumerate_types(2, 6):
            src = multiplicity(g)
            for target in direct_adjacencies(g):
                for member in target:
                    if member.kind in ("rdp", "smooth"):
                        continue
                    ok = ok and multiplicity(member) <= src
        return True, ok

    add("thm1.6.mult.monotone", "multiplicity never increases", _monotone)

    # -- strata graph ----------------------------------------------------------
    def _edge(src, dst, want_source):
        def run():
            e = build_strata_graph().edge(src, dst)
            return (want_source,), (None if e is None else e.source,)

        return run

    add("intro.closure.1.2", "closure of N_1 meets N_2", _edge("1", "2", "exotic"))
    add("rem6.8.closure.21.22", "closure of N_21 meets N_22", _edge("2,1", "2,2", "exotic"))
    add("prop6.16.closure.11R.21", "closure of N_11^R meets N_21", _edge("1,1R", "2,1", "exotic"))
    add("thm8.3iv.smooth.m2", "smoothing the mult-2 point of (2,1,1)", _edge("1,1E", "2,1,1", "paper"))
    add("thm8.3iv.smooth.m1", "smoothing a mult-1 point of (2,1,1)", _edge("2,1", "2,1,1", "paper"))
    add("thm8.3v.section", "smoothing the section point of (1,1,1)", _edge("1,1R", "1,1,1", "paper"))
    add("thm8.3v.bisection", "smoothing a bisection point of (1,1,1)", _edge("1,1E", "1,1,1", "paper"))
    add(
        "strata.paper.derivable",
        "every curated edge is rule-derivable",
        lambda: (True, all(e.derivable for e in build_strata_graph().paper_edges())),
    )

    def _strata_shape():
        graph = build_strata_graph()
        return (9, 0), (
            len(graph.nodes),
            sum(1 for e in graph.edges if e.src == e.dst),
        )

    add("strata.shape", "nine strata, no self-loops", _strata_shape)

    # -- stratum models --------------------------------------------------------
    for key, opts in all_builder_variants():
        opt_id = ".".join(
            f"{k}-{v if isinstance(v, str) else ','.join(map(str, v))}"
            for k, v in sorted(opts.items())
        )
        check_id = f"thm1.3.verify.{key}" + (f".{opt_id}" if opt_id else "")
        add(
            check_id,
            "Thm 1.3 stratum model satisfies every numerical identity",
            lambda key=key, opts=opts: (
                True,
                verify_I_surface(build_stratum(key, **opts)).ok,
            ),
        )

    def _sec82_lsq():
        surf = build_stratum("1,1,1")
        return 9 - 6 - 1 - 1, surf.L.square

    add("sec8.2.L.square", "sec 8.2: L^2 = 9 - 6 - 2 = 1", _sec82_lsq)

    def _sec81_m1():
        surf = build_stratum("2,1,1")
        return (
            tuple(combo(surf.lattice, f=1, C1=-1).coeffs),
            tuple(surf.M(0).coeffs),
        )

    add("sec8.1.M1.class", "sec 8.1: M_1 = f - C_1", _sec81_m1)

    def _sec81_m1d1():
        surf = build_stratum("2,1,1")
        return 2, pair(surf.M(0), surf.group_class(0))

    add("sec8.1.M1.D1", "sec 8.1: D_1.C_1' = Gamma.f = 2", _sec81_m1d1)

    def _ex618_d2():
        surf = build_stratum("1,1R")
        return (-1, 1), (surf.group_class(1).square, surf.L.square)

    add("ex6.18.model", "Ex 6.18: D_2^2 = -1 and L = 3F + E - 2C has L^2 = 1", _ex618_d2)

    def _ex610_m2():
        surf = build_stratum("2,1")
        return (
            tuple(combo(surf.lattice, F=1).coeffs),
            tuple(surf.M(1).coeffs),
        )

    add("ex6.10.M2.class", "Ex 6.10: M_2 = K + D_1 = F", _ex610_m2)

    add(
        "lem2.3.chi.ruled",
        "Lem 2.3: chi = 3 - k = 0 for k = 3",
        lambda: (0, build_stratum("2,1,1").chiO),
    )
    add(
        "lem2.12.chi.rational",
        "Lem 2.12: rational resolution forces k = 2, chi = 1",
        lambda: (1, build_stratum("2,2").chiO),
    )

    def _prop214():
        try:
            build_stratum("2,1,1", mults=(2, 2, 1))
        except BuilderError:
            return True, True
        return True, False

    add("prop2.14.exclusion", "Prop 2.14: m_1 = 2 forces m_2 = m_3 = 1", _prop214)

    # -- elliptic ruled surfaces with multiple fibers ---------------------------
    def _x1_numerology():
        x1 = builders.elliptic_ruled_surface()
        sig = x1.curve_class("sig")
        f = x1.curve_class("f")
        gam = 2 * sig - f  # reduction of a multiple fiber of the pencil
        return (
            (0, 1, 1, 1, tuple((-2 * sig + f).coeffs)),
            (
                gam.square,
                pair(gam, sig),
                adjunction_genus(gam, x1),
                adjunction_genus(sig, x1),
                tuple(x1.K.coeffs),
            ),
        )

    add(
        "sec7.2.X1.numerology",
        "P(W): Gam^2 = 0, Gam.sigma = 1, both elliptic, K = -2 sigma + f",
        _x1_numerology,
    )

    def _x0_numerology():
        x0 = builders.two_double_fiber_ruled_surface()
        s = x0.curve_class("s")
        phi = 2 * s  # general fiber of the elliptic pencil
        return (
            (0, 0, 1, 2),
            (
                s.square,
                pair(x0.K, s),
                adjunction_genus(phi, x0),
                pair(phi, x0.curve_class("f")),
            ),
        )

    add(
        "sec7.1.X0.numerology",
        "two double fibers: sections of square 0, elliptic pencil phi = 2s",
        _x0_numerology,
    )

    def _kformula_matches_ruling(mult_count):
        # the multiple-fiber formula must reproduce the ruled-surface K
        if mult_count == 2:
            surf = builders.two_double_fiber_ruled_surface()
            reduced = surf.curve_class("s")
        else:
            surf = builders.elliptic_ruled_surface()
            reduced = 2 * surf.curve_class("sig") - surf.curve_class("f")
        cb = canonical_bundle_coeffs(FibrationData(0, 0, (2,) * mult_count))
        computed = cb.fiber_coeff * (2 * reduced)
        for coeff in cb.multiple_fiber_coeffs:
            computed = computed + coeff * reduced
        return tuple(surf.K.coeffs), tuple(computed.coeffs)

    add(
        "sec7.1.kformula.X0",
        "K = -2 phi + F_1 + F_2 equals the ruled-surface canonical class",
        lambda: _kformula_matches_ruling(2),
    )
    add(
        "sec7.2.kformula.X1",
        "K = -2 phi + F_1 + F_2 + F_3 equals the ruled-surface canonical class",
        lambda: _kformula_matches_ruling(3),
    )

    # -- canonical bundle formula ----------------------------------------------
    def _kappa1_coeffs():
        cb = canonical_bundle_coeffs(FibrationData(0, 2, (2,)))
        return (0, (1,)), (cb.fiber_coeff, cb.multiple_fiber_coeffs)

    add("thm2.11ii.kformula", "K = (2g - 2 + chi)G + (m-1)F gives K = F", _kappa1_coeffs)

    add(
        "thm2.13.indicator",
        "chi - 2 + #(alpha)/2 = -1/2 < 0 for three double fibers",
        lambda: (
            Fraction(-1, 2),
            canonical_bundle_coeffs(FibrationData(0, 0, (2, 2, 2))).kodaira_indicator,
        ),
    )
    def _kformula_trivial():
        cb = canonical_bundle_coeffs(FibrationData(1, 0))
        return (0, ()), (cb.fiber_coeff, cb.multiple_fiber_coeffs)

    add(
        "kformula.trivial",
        "g = 1, chi = 0, no multiple fibers: K trivial on fibers",
        _kformula_trivial,
    )

    # -- c2 length counts --------------------------------------------------------
    add("thm3.1.lz.pg1", "Thm 3.1: l(Z) = 12(1 + p_g) = 24", lambda: (24, c2_length_counts(1)[0]))
    add("thm3.1.lz.pg0", "Thm 3.1: l(Z) = 12 for p_g = 0", lambda: (12, c2_length_counts(0)[0]))
    add("thm3.2.lw.pg1.r4", "Thm 3.2: l(W) = 25 - r = 21 at r = 4", lambda: (21, c2_length_counts(1, 4)[1]))

    # -- double cover numerology ---------------------------------------------
    def _b_f_e():
        dc = build_double_cover(1, 3)
        return (4, 4), (
            pair(dc.B, dc.base.curve_class("f")),
            pair(dc.B, dc.base.curve_class("e")),
        )

    add("sec3.2.B.f.e", "sec 3.2: B.f = B.e = 4", _b_f_e)

    def _b_sigma0():
        dc = build_double_cover(1, 3)
        return 4, pair(dc.B, dc.base.curve_class("sigma0"))

    add("sec3.2.B.sigma0", "sec 3.2: B.sigma0 = -4N + 2k + 2", _b_sigma0)

    def _b0_n1k3():
        dc = build_double_cover(1, 3)
        return (
            tuple(combo(dc.base.lattice, sigma0=4, f=5, d2=2).coeffs),
            tuple(dc.B0.coeffs),
        )

    add("sec3.2.B0.n1k3", "sec 3.2: B0 = 4 sigma0 + 5f + 2 d2 at N = 1, k = 3", _b0_n1k3)
    add("sec3.2.pg.n1k3", "sec 3.2: p_g = k - N - 1 = 1", lambda: (1, build_double_cover(1, 3).p_g))
    add("sec3.2.sigma.n1k3", "sec 3.2: Sigma^2 = -1", lambda: (-1, build_double_cover(1, 3).sigma_sq))

    def _sigma_n2k4():
        dc = build_double_cover(2, 4)
        return (-3, 0), (dc.sigma_sq, dc.pa_sigma)

    add("sec3.2.sigma.n2k4", "sec 3.2: N = 2, k = 4: Sigma^2 = -3, p_a = 0", _sigma_n2k4)

    def _d1_derived():
        dc = build_double_cover(1, 3)
        d1 = dc.base.curve_class("d1")
        d2 = dc.base.curve_class("d2")
        e = dc.base.curve_class("e")
        return (-2, 0, 1), (d1.square, pair(d1, d2), pair(d1, e))

    add("sec3.2.d1.derived", "d1 = f - 2e - d2: squares and pairings", _d1_derived)

    def _k_plus_half(n, k):
        dc = build_double_cover(n, k)
        want = combo(dc.base.lattice, f=k - n - 1, e=-1)
        return tuple(want.coeffs), tuple((dc.base.K + dc.half_branch()).coeffs)

    add("sec3.2.K.halfB.n1k3", "sec 3.2: K + B/2 = (k-N-1)f - e", lambda: _k_plus_half(1, 3))
    add("sec3.2.K.halfB.n3k7", "sec 3.2: K + B/2 = (k-N-1)f - e", lambda: _k_plus_half(3, 7))

    def _cover_rules():
        dc = build_double_cover(2, 5)
        return (-1, -1, -4, 0), (
            cover_pairing(dc.e_curve(1), dc.e_curve(1), dc),
            cover_pairing(dc.e_curve(2), dc.e_curve(2), dc),
            cover_pairing(dc.sigma_tilde(), dc.sigma_tilde(), dc),
            cover_pairing(dc.fiber(), dc.fiber(), dc),
        )

    add("sec3.2.cover.rules", "nu* doubles pairings: e_i^2 = -1, Sigma~^2 = -2N", _cover_rules)

    # -- vanishing bounds --------------------------------------------------------
    for check_id, source, expected, statement in VANISHING_BOUNDS:
        add(
            check_id,
            source,
            lambda c=check_id, e=expected, s=statement: (e, s()[c]),
        )

    return checks


def select_checks(only: str | None = None) -> list[CatalogCheck]:
    """The catalog entries whose id contains `only` (all when None), in
    catalog order."""
    return [c for c in build_catalog() if only is None or only in c.check_id]


def run_catalog(only: str | None = None) -> Report:
    """Execute the catalog (optionally the subset whose id contains
    `only`) and assemble a report ordered by check id."""
    entries = []
    for check in select_checks(only):
        try:
            expected, computed = check.run()
        except Exception as exc:  # a crash is a failed check, not a crash
            expected, computed = "no error", f"{type(exc).__name__}: {exc}"
        entries.append(CheckEntry(check.check_id, check.source, expected, computed))
    return Report(entries).sorted()
