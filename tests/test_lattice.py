import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isurf.errors import LatticeError
from isurf.lattice import (
    EMPTY_LATTICE,
    IntersectionLattice,
    Signature,
    cycle_edges,
    from_rows,
    graph_lattice,
    is_negative_definite,
    make_named_lattice,
    signature,
)


def charpoly_inertia(gram):
    """Independent oracle: Descartes sign analysis of the characteristic
    polynomial (exact for polynomials with all real roots)."""
    n = len(gram)
    if n == 0:
        return (0, 0, 0)
    coeffs = sympy.Matrix(gram).charpoly().all_coeffs()
    null = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        null += 1
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (pos, n - pos - null, null)


def random_symmetric(rng, n, bound=4):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in g)


def lattice_of(gram):
    return from_rows([f"v{i}" for i in range(len(gram))], gram)


def congruent(gram, P):
    """P^T G P, which has the inertia of G when P is unimodular."""
    n = len(gram)
    GP = [[sum(gram[i][k] * P[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(P[k][i] * GP[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def unitriangular(rng, n, lower):
    return [
        [1 if i == j else (rng.choice((-1, 0, 0, 1)) if (j < i) == lower else 0)
         for j in range(n)]
        for i in range(n)
    ]


def sylvester_form(rng, d, tail):
    """P^T (diag(d) + tail) P, whose inertia is that of diag(d) plus that
    of `tail` (Sylvester's law of inertia).

    `tail` has an all-zero diagonal. P = [[U, X], [0, Q]] with U upper
    unitriangular and Q a signed permutation, so det P = +-1. The leading
    minors of U^T diag(d) U are partial products of the d_i, so
    elimination pivots down the definite part first and is left with
    Q^T tail Q, whose diagonal is all zero: the hyperbolic steps start
    from the pivot minor prod(d), of absolute value above 1 when some
    |d_i| > 1.
    """
    r, n = len(d), len(d) + len(tail)
    D = [[0] * n for _ in range(n)]
    for i, x in enumerate(d):
        D[i][i] = x
    for i, row in enumerate(tail):
        D[r + i][r:] = row
    P = [[0] * n for _ in range(n)]
    for i in range(r):
        P[i][i] = 1
        for j in range(i + 1, n):
            P[i][j] = rng.choice((-1, 0, 0, 1))
    perm = list(range(r, n))
    rng.shuffle(perm)
    for i, j in zip(range(r, n), perm):
        P[i][j] = rng.choice((-1, 1))
    return congruent(D, P)


def definite_part(rng, r):
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
    pos = sum(1 for x in d if x > 0)
    return d, (pos, r - pos, 0)


def hyperbolic_tail(rng, h, z):
    """[[0, B], [B^T, 0]] plus z zeros, with B a product of unitriangular
    factors (det B = 1): diag(I, B^-1) takes it to h hyperbolic planes,
    but B couples every row of one half to the other."""
    B = congruent(unitriangular(rng, h, lower=False), unitriangular(rng, h, lower=True))
    n = 2 * h + z
    tail = [[0] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            tail[i][h + j] = tail[h + j][i] = B[i][j]
    return tail, (h, h, z)


def add_inertia(a, b):
    return tuple(x + y for x, y in zip(a, b))


@st.composite
def form_and_unimodular(draw):
    """A random symmetric G and a matrix P of determinant +-1: a signed
    row permutation of a lower times an upper unitriangular factor."""
    n = draw(st.integers(1, 8))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = draw(st.integers(-3, 3))
    off = st.integers(-2, 2)
    L = [[1 if i == j else (draw(off) if j < i else 0) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (draw(off) if j > i else 0) for j in range(n)] for i in range(n)]
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    P = [
        [s * sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)]
        for i, s in zip(order, signs)
    ]
    return tuple(tuple(r) for r in G), P


class TestSignature:
    def test_lambda0_3(self):
        assert signature(make_named_lattice("Lambda0", 3)).as_tuple() == (1, 3, 0)

    def test_single_negative_vector(self):
        assert signature(lattice_of([[-2]])).as_tuple() == (0, 1, 0)

    def test_lambda2_22(self):
        assert signature(make_named_lattice("Lambda2", 2, 2)).as_tuple() == (1, 5, 0)

    def test_rank_zero(self):
        assert signature(EMPTY_LATTICE).as_tuple() == (0, 0, 0)
        assert is_negative_definite(EMPTY_LATTICE)

    def test_hyperbolic_block(self):
        assert signature(lattice_of([[0, 1], [1, 0]])).as_tuple() == (1, 1, 0)

    def test_hyperbolic_plus_radical(self):
        gram = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        assert signature(lattice_of(gram)).as_tuple() == (1, 1, 1)

    def test_zero_matrix(self):
        gram = [[0] * 3 for _ in range(3)]
        assert signature(lattice_of(gram)).as_tuple() == (0, 0, 3)

    def test_signature_rank(self):
        assert Signature(1, 3, 2).rank == 6

    def test_against_charpoly_oracle(self):
        rng = random.Random(20240517)
        for _ in range(200):
            gram = random_symmetric(rng, 5)
            assert signature(lattice_of(gram)).as_tuple() == charpoly_inertia(gram)

    def test_zero_diagonal_stress_against_oracle(self):
        # forces the hyperbolic-block path repeatedly
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(2, 6)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            gram = tuple(tuple(row) for row in g)
            assert signature(lattice_of(gram)).as_tuple() == charpoly_inertia(gram)

    def test_pivot_order_independent(self):
        rng = random.Random(99)
        strategies = [random.Random(1), random.Random(2)]
        for _ in range(1000):
            n = rng.randint(1, 8)
            gram = random_symmetric(rng, n)
            lat = lattice_of(gram)
            results = {signature(lat).as_tuple()}
            for strat in strategies:
                results.add(signature(lat, rng=strat).as_tuple())
            assert len(results) == 1

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 6)
            lat = lattice_of(random_symmetric(rng, n))
            order = list(range(n))
            rng.shuffle(order)
            assert signature(lat.permuted(order)) == signature(lat)

    def test_scale_invariance(self):
        rng = random.Random(8)
        for _ in range(50):
            lat = lattice_of(random_symmetric(rng, rng.randint(1, 6)))
            assert signature(lat.scaled(3)) == signature(lat)

    @pytest.mark.parametrize("n", [20, 40])
    def test_sylvester_forms_with_hyperbolic_remainder(self, n):
        rng = random.Random(n)
        for h, z in ((n // 10, 1), (n // 5, n // 10), (n // 4, 0)):
            d, want_d = definite_part(rng, n - 2 * h - z)
            tail, want_tail = hyperbolic_tail(rng, h, z)
            lat = lattice_of(sylvester_form(rng, d, tail))
            want = add_inertia(want_d, want_tail)
            assert signature(lat).as_tuple() == want
            assert signature(lat, rng=random.Random(h + z)).as_tuple() == want

    @pytest.mark.parametrize("n", [20, 40])
    def test_sylvester_forms_with_zero_diagonal_tail(self, n):
        # a hyperbolic step here leaves nonzero diagonals behind, so
        # diagonal pivots follow it with the pivot minor it produced
        rng = random.Random(100 + n)
        for _ in range(4):
            k = rng.randint(3, 7)
            tail = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    tail[i][j] = tail[j][i] = rng.randint(-2, 2)
            d, want_d = definite_part(rng, n - k)
            lat = lattice_of(sylvester_form(rng, d, tail))
            want = add_inertia(want_d, charpoly_inertia(tail))
            assert signature(lat).as_tuple() == want
            assert signature(lat, rng=random.Random(k)).as_tuple() == want

    def test_large_named_families(self):
        assert signature(make_named_lattice("Lambda0", 100)).as_tuple() == (1, 100, 0)
        lat = make_named_lattice("Lambda2", 80, 80, scale=2)
        assert signature(lat).as_tuple() == (1, 161, 0)

    @settings(max_examples=80, deadline=None)
    @given(form_and_unimodular())
    def test_congruence_invariance(self, case):
        gram, P = case
        assert signature(lattice_of(congruent(gram, P))) == signature(lattice_of(gram))


class TestNegativeDefinite:
    def test_cusp_resolution_cycle(self):
        gram = [
            [-3, 1, 0, 1],
            [1, -2, 1, 0],
            [0, 1, -3, 1],
            [1, 0, 1, -2],
        ]
        assert is_negative_definite(lattice_of(gram))

    def test_lambda0_is_not(self):
        assert not is_negative_definite(make_named_lattice("Lambda0", 3))

    def test_degenerate_is_not(self):
        assert not is_negative_definite(lattice_of([[0]]))


class TestNamedLattices:
    def test_lambda0_gram(self):
        lat = make_named_lattice("Lambda0", 2)
        assert lat.labels == ("e0", "e1", "e2")
        assert lat.gram == ((0, 1, 1), (1, -2, 1), (1, 1, -2))

    def test_lambda0_two_cycle_merges(self):
        # a cycle of length 2 meets itself twice
        assert make_named_lattice("Lambda0", 1).gram == ((0, 2), (2, -2))

    def test_lambda2_scaled(self):
        lat = make_named_lattice("Lambda2", 2, 2, scale=2)
        plain = make_named_lattice("Lambda2", 2, 2)
        assert lat.gram == tuple(tuple(2 * x for x in r) for r in plain.gram)
        assert signature(lat).as_tuple() == (1, 5, 0)

    def test_lambda1_small(self):
        lat = make_named_lattice("Lambda1", 1, 1)
        assert lat.rank == 4
        assert signature(lat).as_tuple() == (1, 3, 0)

    def test_lambda1_structure(self):
        lat = make_named_lattice("Lambda1", 3, 2)
        assert lat.entry("e1", "g1") == 1
        assert lat.entry("e3", "g2") == 1
        assert lat.entry("f1", "g1") == 1
        assert lat.entry("f2", "g2") == 1
        assert lat.entry("g1", "g2") == 1
        assert lat.entry("e1", "f1") == 0

    def test_family_signatures_sampled(self):
        for n in range(1, 9):
            assert signature(make_named_lattice("Lambda0", n)).as_tuple() == (1, n, 0)
        for n in range(1, 5):
            for m in range(1, 5):
                want = (1, n + m + 1, 0)
                assert signature(make_named_lattice("Lambda1", n, m)).as_tuple() == want
                assert signature(make_named_lattice("Lambda2", n, m)).as_tuple() == want

    @pytest.mark.parametrize(
        "family,n,m",
        [("Lambda0", 0, None), ("Lambda1", 2, None), ("Lambda2", 2, 0),
         ("Lambda0", 2, 3), ("Nope", 2, 2)],
    )
    def test_bad_requests(self, family, n, m):
        with pytest.raises(LatticeError):
            make_named_lattice(family, n, m)


class TestGraphLattice:
    def test_repeated_edges_accumulate(self):
        lat = graph_lattice(["a", "b"], [-3, -3], [("a", "b"), ("b", "a"), ("a", "b")])
        assert lat.gram == ((-3, 3), (3, -3))

    def test_two_cycle_pairs_with_two(self):
        assert cycle_edges(["a", "b"]) == [("a", "b"), ("b", "a")]
        assert graph_lattice(["a", "b"], [-3, -3], cycle_edges(["a", "b"])).gram == (
            (-3, 2),
            (2, -3),
        )
        assert cycle_edges(["a"]) == []

    def test_unknown_label_rejected(self):
        with pytest.raises(LatticeError, match="unknown label"):
            graph_lattice(["a", "b"], [0, 0], [("a", "c")])

    def test_self_edge_rejected(self):
        with pytest.raises(LatticeError, match="self-edge"):
            graph_lattice(["a", "b"], [0, 0], [("a", "a")])

    def test_diagonal_length_mismatch(self):
        with pytest.raises(LatticeError):
            graph_lattice(["a", "b"], [0], [])


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(LatticeError):
            lattice_of([[0, 1], [2, 0]])

    def test_duplicate_labels(self):
        with pytest.raises(LatticeError):
            from_rows(["a", "a"], [[0, 0], [0, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            from_rows(["a"], [[0, 0], [0, 0]])

    def test_json_round_trip(self):
        lat = make_named_lattice("Lambda1", 2, 3)
        assert IntersectionLattice.from_json(lat.to_json()) == lat

    def test_sublattice(self):
        lat = make_named_lattice("Lambda2", 2, 2)
        sub = lat.sublattice(["e0", "f0"])
        assert sub.gram == ((-2, 1), (1, -2))
