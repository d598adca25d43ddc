"""numfield's exact linear algebra against the hand-written eliminations in
oracles, and the integral bases of the Hecke fields the pipeline meets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import discriminant, factorint, Poly, symbols

import oracles
from ssforms import lift, mestre, numfield

KINDS = ("generic", "singular", "rank-deficient", "zero", "identity")


def _matrix(rng, n: int, kind: str, rational: bool) -> list:
    """An n x n matrix of ints or Fractions of the given kind: rank n
    (almost surely), at most n - 1, a random rank below n - 1 when n > 2, 0,
    or the identity."""
    if kind == "zero":
        return [[Fraction(0)] * n for _ in range(n)]
    if kind == "identity":
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rank = {"generic": n, "singular": n - 1,
            "rank-deficient": int(rng.integers(0, max(n - 2, 0) + 1))}[kind]

    def entry():
        num = int(rng.integers(-4, 5))
        return Fraction(num, int(rng.integers(1, 6))) if rational else Fraction(num)

    left = [[entry() for _ in range(rank)] for _ in range(n)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    # a few zero columns anywhere, so that non-pivot columns are not all last
    zero_cols = set(rng.choice(n, size=int(rng.integers(0, n - rank + 1)), replace=False))
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             if j not in zero_cols else Fraction(0) for j in range(n)] for i in range(n)]


def _cases(seed: int, rational: bool):
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for kind in KINDS:
            for _ in range(4):
                yield kind, _matrix(rng, n, kind, rational)


@pytest.mark.parametrize("rational", [False, True])
def test_kernel_basis_matches_gauss_jordan(rational):
    # vector by vector: the orbit bases, and so the output bytes, rest on it
    for kind, mat in _cases(1, rational):
        want = oracles.kernel_basis_gauss_jordan(mat, len(mat))
        got = numfield.kernel_basis(mat)
        assert got == want, (kind, mat)
        if kind == "zero":
            assert len(got) == len(mat)
        elif kind == "identity":
            assert got == []
        elif kind != "generic":
            assert got


def test_charpoly_matches_faddeev_leverrier():
    for kind, mat in _cases(2, False):
        ints = [[int(x) for x in row] for row in mat]
        assert numfield.charpoly(ints) == oracles.faddeev_leverrier_charpoly(ints), kind
        assert numfield.charpoly(np.array(ints, dtype=np.int64)) == \
            oracles.faddeev_leverrier_charpoly(ints)


@pytest.mark.parametrize("rational", [False, True])
def test_det_matches_gaussian_elimination(rational):
    for kind, mat in _cases(3, rational):
        got = numfield.det(mat)
        assert got == oracles.det_gauss(mat), (kind, mat)
        if kind == "identity":
            assert got == 1
        elif kind != "generic":
            assert got == 0


@pytest.mark.parametrize("rational", [False, True])
def test_solve_matches_gauss_jordan(rational):
    rng = np.random.default_rng(4)
    for kind, mat in _cases(4, rational):
        n = len(mat)
        k = int(rng.integers(1, 4))
        rhs = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                for _ in range(k)] for _ in range(n)]
        if oracles.det_gauss(mat):
            got = numfield.solve(mat, rhs)
            for c in range(k):
                want = oracles.solve_gauss_jordan(mat, [row[c] for row in rhs])
                assert [row[c] for row in got] == want
        else:
            with pytest.raises(ZeroDivisionError):
                numfield.solve(mat, rhs)


def test_hnf_basis_spans_the_lattice_of_the_row_reduction():
    rng = np.random.default_rng(5)
    for m in range(1, 7):
        for _ in range(6):
            n = int(rng.integers(m, 3 * m + 3))
            # 2m vectors in the lattice of m independent ones, the shape of
            # the stacked basis L and T(L) in lift's saturation
            gens = rng.integers(-5, 6, size=(m, n))
            mix = rng.integers(-3, 4, size=(2 * m, m))
            if not (oracles.det_gauss((gens @ gens.T).tolist())
                    and oracles.det_gauss((mix.T @ mix).tolist())):
                continue  # the vectors must span a lattice of rank m
            vectors = list(mix @ gens)
            got = lift._hnf_basis(vectors, m)
            assert len(got) == m
            assert oracles.same_lattice(got, oracles.hnf_reduce_rows(vectors, m))
            coords = oracles.lattice_coords(got, vectors)
            assert all(x.denominator == 1 for xs in coords for x in xs)
            with pytest.raises(ArithmeticError):
                lift._hnf_basis(vectors, m + 1)
            with pytest.raises(ArithmeticError):
                oracles.hnf_reduce_rows(vectors, m + 1)


# The Hecke fields met at levels 11, 23, 41, 47, 59 and 83, lowest
# coefficient first
HECKE_FIELDS = [
    (11, (2, 1)),
    (23, (-1, 1, 1)),
    (41, (-1, -5, 1, 1)),
    (47, (-1, 5, -5, -1, 1)),
    (59, (-8, 16, 2, -9, 0, 1)),
    (83, (-8, -12, 20, 7, -9, -1, 1)),
]


@pytest.mark.parametrize("level, h", HECKE_FIELDS)
def test_integral_basis_and_basis_coordinates(level, h, rng):
    hecke = mestre.HeckeField.build(h, level, rng)
    fld, basis, d = hecke.field, hecke.basis, len(h) - 1
    assert basis[0] == fld.one
    mat = [[b[i] for b in basis] for i in range(d)]  # power-basis rows
    # disc(h) = [O_K : Z[t]]^2 disc(K), and the index is 1/det of the basis
    index_inv = oracles.det_gauss(mat)
    assert discriminant(Poly(list(h)[::-1], symbols("t"))) * index_inv**2 == hecke.disc
    for j, bj in enumerate(basis):
        assert hecke.to_basis_coords(bj) == [int(i == j) for i in range(d)]
        for bk in basis:
            # the order is closed under multiplication
            prod = fld.mul(bj, bk)
            coords = hecke.to_basis_coords(prod)
            assert coords == oracles.solve_gauss_jordan(mat, list(prod))
            assert hecke.from_basis_coords(coords) == prod
    for _ in range(20):
        coords = [int(c) for c in rng.integers(-50, 51, size=d)]
        assert hecke.to_basis_coords(hecke.from_basis_coords(coords)) == coords
    with pytest.raises(mestre.MestreError):
        hecke.to_basis_coords(fld.elt([Fraction(1, 2)]))


# ---------------------------------------------------------------------------
# Maximal orders by Round 2
# ---------------------------------------------------------------------------

# Every Hecke field of dimension > 1 met at the prime levels 5..1000 (seed 0),
# lowest coefficient first
HECKE_FIELDS_5_1000 = [
    (-9, -1, 1), (-8, 0, 1), (-7, 1, 1), (-5, 0, 1), (-3, -1, 1), (-3, 1, 1),
    (-2, -2, 1), (-2, 0, 1), (-1, -3, 1), (-1, -2, 1), (-1, -1, 1), (-1, 1, 1),
    (-1, 2, 1), (1, -3, 1), (1, 3, 1), (-9, -5, 2, 1), (-7, -4, 2, 1), (-3, -4, 1, 1),
    (-3, 0, 3, 1), (-2, -4, 0, 1), (-2, -2, 2, 1), (-1, -5, 1, 1), (-1, -3, 1, 1),
    (-1, -2, 1, 1), (-1, -1, 2, 1), (-1, 3, 4, 1), (1, -5, 0, 1), (1, -4, 0, 1),
    (1, -3, -1, 1), (2, -4, 0, 1), (3, -5, 0, 1), (3, -4, -1, 1), (4, -8, 0, 1),
    (4, -6, -1, 1), (-3, -5, 2, 4, 1), (-1, -4, 0, 3, 1), (-1, 5, -5, -1, 1),
    (-1, 6, -1, -3, 1), (1, -5, -5, 1, 1), (1, -5, -3, 2, 1), (1, -3, -2, 2, 1),
    (1, -1, -3, 1, 1), (1, 0, -4, -1, 1), (2, 6, -4, -2, 1), (3, -4, -5, 1, 1),
    (-8, 14, 2, -8, 0, 1), (-8, 16, 2, -9, 0, 1), (-1, -16, -18, -1, 4, 1),
    (-1, 3, 1, -5, 0, 1), (-1, 7, 1, -6, 0, 1), (-1, 8, 0, -6, 0, 1),
    (1, -7, -6, 5, 5, 1), (1, -5, -9, 1, 4, 1), (1, -2, -9, -4, 2, 1),
    (1, -2, -7, -1, 3, 1), (1, 0, -6, -3, 2, 1), (1, 0, -5, -1, 3, 1),
    (1, 7, -7, -5, 2, 1), (3, -16, -15, 3, 5, 1), (3, 5, -4, -5, 1, 1),
    (9, 2, -11, -3, 3, 1), (17, 21, -10, -10, 1, 1), (-8, -12, 20, 7, -9, -1, 1),
    (-1, 3, 13, 3, -7, -1, 1), (-1, 4, 2, -8, -2, 3, 1), (-1, 9, -3, -12, 0, 4, 1),
    (1, 5, -4, -9, 1, 4, 1), (1, 25, 22, -11, -10, 1, 1), (3, 8, -1, -12, -3, 3, 1),
    (11, -16, -9, 17, -1, -4, 1),
]


def _order(h):
    """numfield.maximal_order's basis as Fraction columns, its index
    [O : Z[t]] and its discriminant."""
    cols, denom, disc = numfield.maximal_order(h)
    index = Fraction(denom ** len(cols), math.prod(c[i] for i, c in enumerate(cols)))
    assert index.denominator == 1
    return [[Fraction(x, denom) for x in c] for c in cols], int(index), disc


def _disc(h) -> int:
    return int(discriminant(Poly(list(h)[::-1], symbols("t"))))


def test_maximal_order_equals_round_two_on_the_hecke_fields():
    assert len(set(HECKE_FIELDS_5_1000)) == 70
    for h in HECKE_FIELDS_5_1000:
        cols, denom, disc = numfield.maximal_order(h)
        want, want_disc = oracles.round_two_order(h)
        assert [[Fraction(x, denom) for x in c] for c in cols] == want, h
        assert disc == want_disc, h
        # a column Hermite normal form with the denominator reduced
        assert all(c[i] > 0 and not any(c[i + 1:]) for i, c in enumerate(cols))
        assert all(0 <= cols[j][i] < cols[i][i] for i in range(len(cols))
                   for j in range(i + 1, len(cols)))
        assert math.gcd(denom, *(x for c in cols for x in c)) == 1


@pytest.mark.parametrize("h, disc, index", [
    ((3, 0, 1), -3, 2),
    ((-54, 0, 0, 1), -108, 27),
    ((-8, -2, -1, 1), -503, 2),  # Dedekind's example
    ((-19, 0, 0, 1), -1083, 3),
    ((1, 0, 0, 0, 1), 256, 1),
    ((1, 1, 1, 1, 1, 1, 1), -16807, 1),
    # the kernel of x -> x^2 mod 2 is smaller than the radical here, which
    # needs x -> x^4 (q = 4 >= deg h); with x^2, Round 2 stops at index 256
    ((64, 32, 0, 4, 1), -400, 512),
])
def test_maximal_order_of_known_fields(h, disc, index):
    _, got_index, got_disc = _order(h)
    assert (got_disc, got_index) == (disc, index)
    assert _disc(h) == disc * index**2


def _closed_order_containing_z_t(h, basis):
    """Is the Z-span of basis (Fraction power-basis columns) a ring that
    contains Z[t]?"""
    fld = numfield.NumberField(list(h))
    n = fld.deg
    mat = [[b[i] for b in basis] for i in range(n)]
    in_span = [fld.elt([0] * k + [1]) for k in range(n)]
    in_span += [fld.mul(a, b) for a in basis for b in basis]
    return all(x.denominator == 1 for v in in_span
               for x in oracles.solve_gauss_jordan(mat, list(v)))


def _random_fields(seed: int, count: int):
    """Irreducible monic polynomials of degree 2..6 with small coefficients
    and roots scaled by 2, 3, 5 or 7, which makes disc(h) divisible by high
    powers of small primes."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(2, 7))
        s = int(rng.choice([2, 3, 5, 7]))
        h = [int(c) * s ** (n - k) for k, c in enumerate(rng.integers(-4, 5, size=n))] + [1]
        if Poly(h[::-1], symbols("t")).is_irreducible:
            count -= 1
            yield tuple(h)


def test_maximal_order_of_random_fields_is_a_p_maximal_order():
    checked = 0
    for h in _random_fields(8, 24):
        basis, index, disc = _order(h)
        n = len(h) - 1
        assert _closed_order_containing_z_t(h, basis), h
        assert _disc(h) % index**2 == 0 and _disc(h) == disc * index**2, h
        for p, e in factorint(abs(_disc(h))).items():
            if e >= 2 and (p**n - 1) // (p - 1) <= 400:
                assert oracles.is_p_maximal(h, basis, p), (h, p)
                checked += 1
    assert checked >= 20


def test_maximal_order_where_round_two_is_not_an_order():
    # sympy's round_two returns index 12 and a floored dK = -13181890, but
    # disc(h) = -2^2 3^3 31 566963 allows at most index 6
    h = (12, 10, -3, -27, 1)
    basis, index, disc = _order(h)
    assert (index, disc) == (6, -52727559)
    assert _closed_order_containing_z_t(h, basis)
    assert all(oracles.is_p_maximal(h, basis, p) for p in (2, 3))
    want, _ = oracles.round_two_order(h)
    assert not all(oracles.is_algebraic_integer(h, b) for b in want)


def test_maximal_order_of_the_degree_9_field_of_level_1223():
    # round_two raises ClosureFailure on it
    h = (72, 252, 68, -375, -130, 146, 32, -21, -2, 1)
    basis, index, disc = _order(h)
    assert _closed_order_containing_z_t(h, basis)
    assert _disc(h) == disc * index**2


def test_maximal_order_rejects_reducible_polynomials_and_non_orders(monkeypatch):
    with pytest.raises(ValueError):
        numfield.maximal_order((-4, 0, 1))
    # a step that returns a lattice which is not a ring must not get through:
    # Z + Z t/2 in Q(sqrt(-3)), whose discriminant -12 / 2^2 is an integer
    # but which does not hold (t/2)^2 = -3/4, and (1/2) Z[t]
    for bogus in (([[2, 0], [0, 1]], 2), ([[1, 0], [0, 1]], 2)):
        monkeypatch.setattr(numfield, "_enlarge",
                            lambda table, cols, denom, p: bogus if denom == 1 else None)
        with pytest.raises(ArithmeticError):
            numfield.maximal_order((3, 0, 1))
