import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from isurf import builders
from isurf.builders import build_double_cover, build_stratum
from isurf.divisors import (
    Curve,
    DivisorClass,
    SurfaceModel,
    adjunction_genus,
    basis_class,
    blowup,
    class_expressions_agree,
    combo,
    nef_check,
    pair,
    riemann_roch_chi,
    zero_class,
)
from isurf.errors import ModelError
from isurf.germs import cusp, simple_elliptic
from isurf.lattice import IntersectionLattice, from_rows


def small_model(gram, K_coeffs, chiO=1):
    lat = from_rows([f"v{i}" for i in range(len(gram))], gram)
    return SurfaceModel(lat, DivisorClass(lat, tuple(K_coeffs)), chiO, ())


class TestPair:
    def test_kappa1_L_square(self):
        surf = build_stratum("1")
        assert surf.L.square == 1

    def test_zero_class(self):
        surf = build_stratum("1")
        assert pair(surf.L, zero_class(surf.lattice)) == 0

    def test_hirzebruch_13(self):
        dc = build_double_cover(1, 3)
        lat = dc.base.lattice
        a = combo(lat, sigma0=4, f=5, d2=2)
        b = combo(lat, sigma0=1, f=3, e=-1)
        assert pair(a, b) == 13

    def test_lattice_mismatch(self):
        a = build_stratum("1").L
        b = build_stratum("2").L
        with pytest.raises(ModelError):
            pair(a, b)

    def test_arithmetic(self):
        lat = from_rows(["a", "b"], [[2, 1], [1, 0]])
        a, b = basis_class(lat, "a"), basis_class(lat, "b")
        assert (a + b - 2 * a).coeffs == (-1, 1)
        assert (-a).square == 2
        assert pair(3 * a, b) == 3


class TestAdjunction:
    def test_exceptional_curve(self):
        surf = build_stratum("2")
        assert adjunction_genus(surf.curve_class("C"), surf) == 0

    def test_marked_divisor_genus_one(self):
        surf = build_stratum("2")
        assert adjunction_genus(surf.group_class(0), surf) == 1

    def test_genus_two_bisection(self):
        base = builders.rational_elliptic_surface()
        gamma = combo(base.lattice, E=1, F=2)
        assert gamma.square == 3
        assert adjunction_genus(gamma, base) == 2

    def test_parity_violation(self):
        surf = small_model([[-1]], [0])
        with pytest.raises(ModelError):
            adjunction_genus(basis_class(surf.lattice, "v0"), surf)

    def test_parity_violation_reported_by_model_checks(self):
        lat = from_rows(["v0"], [[-1]])
        surf = SurfaceModel(
            lat,
            zero_class(lat),
            2,
            (Curve("D", basis_class(lat, "v0"), "other"),),
            (("D",),),
            (simple_elliptic(1),),
        )
        assert surf.validate() == ["adjunction parity fails for D"]
        (entry,) = [
            e for e in builders.verify_I_surface(surf).entries if e.check_id == "pa.D"
        ]
        assert (entry.expected, entry.computed) == (1, None)


class TestRiemannRoch:
    def test_chi_of_zero(self):
        surf = build_stratum("2,1")
        assert riemann_roch_chi(zero_class(surf.lattice), surf) == surf.chiO

    def test_chi_nM_constant(self):
        surf = build_stratum("1")
        for n in range(-3, 6):
            assert riemann_roch_chi(n * surf.M(0), surf) == 2

    def test_example_6_10(self):
        base = builders.rational_elliptic_surface()
        assert riemann_roch_chi(combo(base.lattice, E=1, F=1), base) == 2

    def test_half_integral_value_is_exact(self):
        surf = small_model([[1]], [0], chiO=0)
        v = basis_class(surf.lattice, "v0")
        assert riemann_roch_chi(v, surf) == Fraction(1, 2)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_serre_symmetry(self, a, b, k):
        lat = from_rows(["x", "y"], [[2, 1], [1, -2]])
        surf = SurfaceModel(lat, DivisorClass(lat, (k, 1)), 2, ())
        d = DivisorClass(lat, (a, b))
        assert riemann_roch_chi(d, surf) == riemann_roch_chi(surf.K - d, surf)


class TestBlowup:
    def setup_method(self):
        self.surf = builders.projective_plane()

    def test_pullback_pairings_preserved(self):
        rng = random.Random(4)
        surf = build_stratum("2,1")
        before = [
            DivisorClass(surf.lattice, tuple(rng.randint(-3, 3) for _ in range(surf.lattice.rank)))
            for _ in range(4)
        ]
        after = blowup(surf, {}, "Z")

        def ext(d):
            return DivisorClass(after.lattice, d.coeffs + (0,))

        for a in before:
            for b in before:
                assert pair(ext(a), ext(b)) == pair(a, b)
            assert pair(ext(a), after.curve_class("Z")) == 0

    def test_K_square_drops_chi_fixed(self):
        after = blowup(self.surf, {}, "E1")
        assert after.K.square == self.surf.K.square - 1
        assert after.chiO == self.surf.chiO
        assert after.curve("E1").tag == "exceptional"
        assert after.curve_class("E1").square == -1

    def test_proper_transform(self):
        surf = builders.add_curves(
            self.surf, Curve("Gam", 6 * basis_class(self.surf.lattice, "H"), "other")
        )
        after = blowup(surf, {"Gam": 2}, "E1")
        assert after.curve_class("Gam").coeffs == (6, -2)
        assert after.curve_class("Gam").square == 36 - 4

    def test_genus_drop(self):
        # blowing up a point of multiplicity mu drops p_a by mu(mu-1)/2
        surf = builders.add_curves(
            self.surf, Curve("Gam", 6 * basis_class(self.surf.lattice, "H"), "other")
        )
        g0 = adjunction_genus(surf.curve_class("Gam"), surf)
        for mu in range(4):
            after = blowup(surf, {"Gam": mu}, "E1")
            g1 = adjunction_genus(after.curve_class("Gam"), after)
            assert g1 == g0 - mu * (mu - 1) // 2

    def test_nine_point_sextic(self):
        surf = builders.add_curves(
            self.surf,
            Curve("Gam", 6 * basis_class(self.surf.lattice, "H"), "other"),
            Curve("Fib", 3 * basis_class(self.surf.lattice, "H"), "other"),
        )
        for i in range(1, 10):
            surf = blowup(surf, {"Gam": 1 if i == 1 else 2, "Fib": 1}, f"E{i}")
        gam, fib = surf.curve_class("Gam"), surf.curve_class("Fib")
        assert gam.square == 36 - 1 - 32 == 3
        assert pair(gam, fib) == 18 - 1 - 16 == 1
        assert surf.K.square == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(ModelError):
            blowup(self.surf, {}, "H")

    def test_unknown_curve_rejected(self):
        with pytest.raises(ModelError):
            blowup(self.surf, {"nope": 1}, "E1")

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ModelError):
            blowup(self.surf, {"H": -1}, "E1")


class TestNef:
    def test_multiple_fiber_class_nef(self):
        surf = build_stratum("2,1")
        res = nef_check(surf.M(1), surf)
        assert res.nef and res.violated_by == ()

    def test_zero_class_nef(self):
        surf = build_stratum("2,1")
        assert nef_check(zero_class(surf.lattice), surf).nef

    def test_violation_reported_by_name(self):
        surf = build_stratum("2,1,1")
        res = nef_check(surf.M(0), surf)
        assert not res.nef
        assert res.violated_by == ("fp1",)
        assert pair(surf.M(0), surf.group_class(0)) == 2


class TestAgree:
    def test_prop_6_3(self):
        surf = build_stratum("2,2")
        c1, c2 = surf.curve_class("C1"), surf.curve_class("C2")
        d1, d2 = surf.group_class(0), surf.group_class(1)
        assert (c1 + d1).coeffs != (c2 + d2).coeffs
        assert class_expressions_agree(c1 + d1, c2 + d2, surf)
        assert not class_expressions_agree(c1, c2, surf)
        assert pair(c1, d1) == 2 and pair(c2, d1) == 0

    def test_reflexive(self):
        surf = build_stratum("2,2")
        assert class_expressions_agree(surf.L, surf.L, surf)


class TestSurfaceModel:
    def test_json_round_trip(self):
        for key in ("1", "2", "2,2", "2,1,1"):
            surf = build_stratum(key)
            again = SurfaceModel.from_json(surf.to_json())
            assert again == surf

    def test_validate_clean_models(self):
        for key in ("1", "2", "1,1E", "2,2", "2,1", "1,1R", "2,1,1", "1,1,1"):
            assert build_stratum(key).validate() == []

    def test_validate_catches_meeting_groups(self):
        lat = from_rows(["a", "b"], [[-1, 1], [1, -1]])
        surf = SurfaceModel(
            lat,
            DivisorClass(lat, (1, 1)),
            1,
            (Curve("a", basis_class(lat, "a"), "other"),
             Curve("b", basis_class(lat, "b"), "other")),
            (("a",), ("b",)),
            (simple_elliptic(1), simple_elliptic(1)),
        )
        assert any("meet" in p for p in surf.validate())

    def test_group_must_use_known_curves(self):
        lat = from_rows(["a"], [[-1]])
        with pytest.raises(ModelError):
            SurfaceModel(
                lat,
                DivisorClass(lat, (1,)),
                1,
                (),
                (("ghost",),),
                (cusp(1),),
            )

    def test_germ_alignment_required(self):
        lat = from_rows(["a"], [[-1]])
        with pytest.raises(ModelError):
            SurfaceModel(
                lat,
                DivisorClass(lat, (1,)),
                1,
                (Curve("a", basis_class(lat, "a"), "other"),),
                (("a",),),
                (),
            )

    def test_bad_curve_tag(self):
        lat = from_rows(["a"], [[-1]])
        with pytest.raises(ModelError):
            Curve("a", DivisorClass(lat, (1,)), "not-a-tag")


class TestCoverClasses:
    def test_cover_rules(self):
        dc = build_double_cover(2, 4)
        from isurf.builders import cover_pairing

        assert cover_pairing(dc.e_curve(1), dc.e_curve(1), dc) == -1
        assert cover_pairing(dc.e_curve(2), dc.e_curve(2), dc) == -1
        assert cover_pairing(dc.sigma_tilde(), dc.sigma_tilde(), dc) == -4
        assert cover_pairing(dc.fiber(), dc.fiber(), dc) == 0
        assert cover_pairing(dc.f_prime(), dc.f_prime(), dc) == -2
        # sigma~ meets e2 once and misses e1
        assert cover_pairing(dc.sigma_tilde(), dc.e_curve(2), dc) == 1
        assert cover_pairing(dc.sigma_tilde(), dc.e_curve(1), dc) == 0

    def test_pullback_doubles(self):
        dc = build_double_cover(1, 3)
        from isurf.builders import cover_pairing

        a = dc.pullback(dc.base.curve_class("sigma0"))
        b = dc.pullback(dc.base.curve_class("f"))
        assert cover_pairing(a, b, dc) == 2

    def test_mixing_models_rejected(self):
        from isurf.builders import cover_pairing

        dc1 = build_double_cover(1, 3)
        dc2 = build_double_cover(2, 4)
        with pytest.raises(ModelError):
            cover_pairing(dc1.fiber(), dc2.fiber(), dc1)
