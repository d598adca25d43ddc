"""numfield's exact linear algebra against the hand-written eliminations in
oracles, and the integral bases of the Hecke fields the pipeline meets."""

from fractions import Fraction

import numpy as np
import pytest
from sympy import Poly, discriminant, symbols

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
