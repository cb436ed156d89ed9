"""Seeded input generators and the oracles that need no isurf code.

Everything here is plain Python integer arithmetic, so the expected
values it produces are independent of the engine they check. The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# inertia: congruence-scrambled dense forms and the named sparse families
# ---------------------------------------------------------------------------

# Seven size classes in equal counts, ordered by cost. p50 falls in the
# middle of the middle class, Lambda0(100), whose neighbours cost about
# half and 1.5 times as much, so p50 stays inside one class; p90 falls
# inside the slowest class, dense n=60.
INERTIA_CLASSES = (
    ("dense", 20),
    ("Lambda0", 60, None, 1),
    ("Lambda1", 30, 30, 1),
    ("Lambda0", 100, None, 1),
    ("dense", 40),
    ("Lambda2", 80, 80, 2),
    ("dense", 60),
)
INERTIA_FORMS_PER_CLASS = 14


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


def dense_form(rng: random.Random, n: int, h: int, z: int) -> tuple[list[list[int]], list[int]]:
    """Gram P^T D P of rank-n form and its inertia, fixed by Sylvester's law.

    D = diag(+-1) + h hyperbolic blocks [[0,1],[1,0]] + z zeros. P is
    block upper triangular with a unimodular L*U block over the definite
    part and a signed permutation over the rest, so once the definite
    part is eliminated the remainder has an all-zero diagonal.
    """
    n1 = n - 2 * h - z
    npos = rng.randint(n1 // 3, 2 * n1 // 3)
    signs = [1] * npos + [-1] * (n1 - npos)
    rng.shuffle(signs)
    small = (-1, 0, 0, 1)
    lower = [[1 if i == j else (rng.choice(small) if j < i else 0) for j in range(n1)] for i in range(n1)]
    upper = [[1 if i == j else (rng.choice(small) if j > i else 0) for j in range(n1)] for i in range(n1)]
    p1 = _matmul(lower, upper)
    n2 = n - n1
    perm = list(range(n2))
    rng.shuffle(perm)
    P = [[0] * n for _ in range(n)]
    for i in range(n1):
        P[i][:n1] = p1[i]
        P[i][n1:] = [rng.choice(small) for _ in range(n2)]
    for i in range(n2):
        P[n1 + i][n1 + perm[i]] = rng.choice((-1, 1))
    D = [[0] * n for _ in range(n)]
    for i, s in enumerate(signs):
        D[i][i] = s
    for b in range(h):
        a = n1 + 2 * b
        D[a][a + 1] = D[a + 1][a] = 1
    Pt = [list(col) for col in zip(*P)]
    gram = _matmul(Pt, _matmul(D, P))
    return gram, [npos + h, n1 - npos + h, z]


def named_inertia(family: str, n: int, m: int | None) -> list[int]:
    """Lem 5.2: Lambda0(n) is (1, n, 0); Lambda1 and Lambda2 are (1, n+m+1, 0)."""
    return [1, n, 0] if family == "Lambda0" else [1, n + m + 1, 0]


def dense_shapes(n: int) -> list[tuple[int, int]]:
    """The (hyperbolic blocks, zeros) of each dense form of size n.

    The definite part, n - 2h - z, sets most of a form's cost. So the
    shapes are a fixed sweep, h over n/10..n/5 and z over 1..n/10, the
    same for every seed; the seed decides only the entries.
    """
    hs = range(n // 10, n // 5 + 1)
    zs = range(1, max(1, n // 10) + 1)
    return [(hs[k % len(hs)], zs[k % len(zs)]) for k in range(INERTIA_FORMS_PER_CLASS)]


def inertia_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    forms = []
    for cls in INERTIA_CLASSES:
        for k in range(INERTIA_FORMS_PER_CLASS):
            if cls[0] == "dense":
                h, z = dense_shapes(cls[1])[k]
                gram, expect = dense_form(rng, cls[1], h, z)
                forms.append({"class": f"dense{cls[1]}", "gram": gram, "expect": expect})
            else:
                family, n, m, scale = cls
                forms.append(
                    {
                        "class": family,
                        "family": family,
                        "n": n,
                        "m": m,
                        "scale": scale,
                        "expect": named_inertia(family, n, m),
                    }
                )
    rng.shuffle(forms)
    return {"forms": forms}


# ---------------------------------------------------------------------------
# closure: enumeration, Zipf-skewed adjacency queries, long cusp cycles
# ---------------------------------------------------------------------------

CLOSURE_LENGTHS = tuple(range(10, 19))
CLOSURE_ROUNDS = 22  # each length appears this many times in the op list
CLOSURE_QUERIES = 50
CLOSURE_ZIPF_S = 1.1
CLOSURE_LONG_CYCLES = 8
CLOSURE_LONG_MAX = 200


def dihedral_min(es: tuple[int, ...]) -> tuple[int, ...]:
    """Brute-force minimum over the 2r rotations and reflected rotations."""
    r = len(es)
    best = es
    for seq in (es, es[::-1]):
        for k in range(r):
            img = seq[k:] + seq[:k]
            if img < best:
                best = img
    return best


def germ_pool(max_length: int) -> list[str]:
    """The multiplicity <= 2 types of length <= max_length, in the order
    `isurf enumerate` prints them: se:1, se:2, then cusps by (length, type)."""
    cusps = {(1,), (2,)}
    for r in range(2, max_length + 1):
        base = [2] * r
        for i in range(r):
            for e in (3, 4):
                seq = list(base)
                seq[i] = e
                cusps.add(dihedral_min(tuple(seq)))
            for j in range(i + 1, r):
                seq = list(base)
                seq[i] = seq[j] = 3
                cusps.add(dihedral_min(tuple(seq)))
    ordered = sorted(cusps, key=lambda s: (len(s), s))
    return ["se:1", "se:2"] + ["c:" + ",".join(map(str, s)) for s in ordered]


def closure_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    lengths = list(CLOSURE_LENGTHS) * CLOSURE_ROUNDS
    rng.shuffle(lengths)
    sizes = {L: len(germ_pool(L)) for L in CLOSURE_LENGTHS}
    ops = []
    for L in lengths:
        size = sizes[L]
        ranked = list(range(size))
        rng.shuffle(ranked)
        weights = [1 / (i + 1) ** CLOSURE_ZIPF_S for i in range(size)]
        sources = rng.choices(ranked, weights=weights, k=CLOSURE_QUERIES)
        queries = [[s, rng.randrange(size)] for s in sources]
        cycles = []
        for _ in range(CLOSURE_LONG_CYCLES):
            r = rng.randint(CLOSURE_LONG_MAX // 2, CLOSURE_LONG_MAX)
            es = tuple(rng.choice((2, 2, 2, 3, 4)) for _ in range(r))
            if all(e == 2 for e in es):
                es = (3,) + es[1:]
            cycles.append(
                {
                    "text": "c:" + ",".join(map(str, es)),
                    "expect": "c:" + ",".join(map(str, dihedral_min(es))),
                }
            )
        ops.append({"L": L, "queries": queries, "cycles": cycles})
    return {"ops": ops}

