"""Small exact number-field arithmetic: elements of Q[t]/(h) as Fraction
coefficient tuples, linear algebra over Q (kernels, solves, incremental
rank, the characteristic polynomial, the determinant), real embeddings, and
integral bases.

Degrees here never exceed the orbit-dimension cap, so everything is dense
and exact.  Kernels, solves, charpolys and determinants are sympy's
DomainMatrix over QQ or ZZ, taking and returning ints and Fractions; only
the incremental rank test is hand-written, because it stops at the first d
independent rows of a matrix with as many rows as the level has vertices.
The integral basis comes from sympy's round_two with a light lattice
reduction pass on the real-embedding Gram matrix to keep the basis short
(unimodularity of the reduction is verified exactly).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from sympy import Poly, QQ, symbols, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.numberfields.basis import round_two

_t = symbols("t")


class NumberField:
    """Q[t]/(h) for a monic irreducible integer polynomial h (lowest-first)."""

    def __init__(self, h):
        h = [int(x) for x in h]
        if h[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        self.h = h
        self.deg = len(h) - 1

    # elements are tuples of Fractions of length deg
    def elt(self, coeffs) -> tuple:
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.deg:
            c = self._reduce(c)
        return tuple(c + [Fraction(0)] * (self.deg - len(c)))

    @property
    def zero(self):
        return self.elt([])

    @property
    def one(self):
        return self.elt([1])

    def _reduce(self, c):
        c = [Fraction(x) for x in c]
        for i in range(len(c) - 1, self.deg - 1, -1):
            top = c[i]
            if top:
                for j in range(self.deg):
                    c[i - self.deg + j] -= top * self.h[j]
            c.pop()
        return c

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, a, s):
        s = Fraction(s)
        return tuple(x * s for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return tuple(self._reduce(out) + [Fraction(0)] * 0)[: self.deg] or self.zero

    def pow(self, a, e: int):
        out = self.one
        b = a
        while e:
            if e & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            e >>= 1
        return out

    def real_embeddings(self) -> np.ndarray:
        """Real roots of h (all roots are real for the fields built here)."""
        roots = np.roots(np.array(self.h[::-1], dtype=float))
        if np.abs(roots.imag).max(initial=0.0) >= 1e-6:
            raise ArithmeticError("non-real embedding")
        return np.sort(roots.real)

    def embed_matrix(self, basis) -> np.ndarray:
        """Rows: real embeddings; columns: the given field elements."""
        roots = self.real_embeddings()
        out = np.zeros((self.deg, len(basis)))
        for c, b in enumerate(basis):
            vals = np.zeros(self.deg)
            for i, x in enumerate(b):
                vals += float(x) * roots**i
            out[:, c] = vals
        return out


def _qq(mat) -> DomainMatrix:
    """A matrix of ints or Fractions as a DomainMatrix over QQ."""
    return DomainMatrix.from_list(
        [[x if isinstance(x, Fraction) else int(x) for x in row] for row in mat], QQ)


def _fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _fractions(mat: DomainMatrix) -> list[list[Fraction]]:
    return [[_fraction(x) for x in row] for row in mat.to_list()]


def kernel_basis(mat) -> list[list[Fraction]]:
    """Nullspace basis of a matrix over Q, read off its reduced row echelon
    form: one vector per non-pivot column c, with 1 at c and 0 at the other
    non-pivot columns."""
    return _fractions(_qq(mat).nullspace())


def fraction_rank_add(rref_rows: list, w) -> bool:
    """Incremental exact RREF; returns True when w enlarges the span."""
    row = [Fraction(int(x)) for x in w]
    for pivot_col, prow in rref_rows:
        c = row[pivot_col]
        if c:
            row = [x - c * y for x, y in zip(row, prow)]
    for i, x in enumerate(row):
        if x != 0:
            inv = Fraction(1) / x
            row = [y * inv for y in row]
            rref_rows.append((i, row))
            return True
    return False


def charpoly(mat) -> list[int]:
    """Characteristic polynomial (lowest-first ints) of an integer matrix."""
    m = DomainMatrix.from_list([[int(x) for x in row] for row in mat], ZZ)
    return [int(c) for c in reversed(m.charpoly())]


def solve(mat, rhs) -> list[list[Fraction]]:
    """The solution X of mat X = rhs over Q, for a nonsingular square matrix
    and a matrix of right-hand sides (one column each); ZeroDivisionError
    when mat is singular."""
    try:
        return _fractions(_qq(mat).lu_solve(_qq(rhs)))
    except DMNonInvertibleMatrixError as e:
        raise ZeroDivisionError("singular matrix") from e


def det(mat) -> Fraction:
    """Determinant of a square matrix over Q."""
    return _fraction(_qq(mat).det())


def integral_basis(h) -> tuple[list[tuple], int]:
    """(basis, disc) of the maximal order of Q[t]/(h): each basis element is a
    tuple of Fractions in the power basis, the first element is 1, and the
    basis is length-reduced under the real-embedding quadratic form."""
    deg = len(h) - 1
    if deg == 1:
        return [(Fraction(1),)], 1
    T = Poly([int(c) for c in h[::-1]], _t, domain=ZZ)
    module, disc = round_two(T)
    cols = [tuple(c) for c in _fractions(module.QQ_matrix.transpose())]
    field = NumberField(h)
    cols = _lll_reduce(field, cols)
    cols = _put_one_first(cols)
    return cols, int(disc)


def _put_one_first(basis):
    """The basis with 1 first, in place of a basis element b_j whose
    coordinate c_j in the expansion of 1 is +-1.  Replacing b_j by 1
    multiplies the determinant of the basis by c_j (Cramer's rule), so the
    swap is unimodular exactly when c_j = +-1.  1 is a primitive vector of
    the maximal order, so its coordinates have gcd 1, but none of them need
    be +-1: then ArithmeticError."""
    deg = len(basis)
    one = tuple([Fraction(1)] + [Fraction(0)] * (deg - 1))
    mat = [[basis[j][i] for j in range(deg)] for i in range(deg)]  # power-basis rows
    coords = solve(mat, [[c] for c in one])
    for j, (c,) in enumerate(coords):
        if abs(c) == 1:
            return [one] + basis[:j] + basis[j + 1:]
    raise ArithmeticError("could not normalize 1 into the integral basis")


def _lll_reduce(field: NumberField, basis):
    """Floating LLL on the real-embedding lattice; the transformation is
    accumulated over Z and unimodularity is checked exactly, so the result is
    still an exact basis of the same order (just shorter)."""
    deg = field.deg
    if deg == 1:
        return basis
    emb = field.embed_matrix(basis)  # deg x deg, columns = basis vectors
    vecs = [emb[:, i].copy() for i in range(deg)]
    trans = np.eye(deg, dtype=object)

    def mu_gram():
        ortho = []
        mus = np.zeros((deg, deg))
        for i in range(deg):
            v = vecs[i].copy()
            for j in range(len(ortho)):
                denom = ortho[j] @ ortho[j]
                mus[i, j] = 0.0 if denom < 1e-14 else (vecs[i] @ ortho[j]) / denom
                v = v - mus[i, j] * ortho[j]
            ortho.append(v)
        return ortho, mus

    k = 1
    loops = 0
    while k < deg and loops < 200:
        loops += 1
        ortho, mus = mu_gram()
        for j in range(k - 1, -1, -1):
            q = round(mus[k, j])
            if q:
                vecs[k] = vecs[k] - q * vecs[j]
                trans[:, k] = trans[:, k] - q * trans[:, j]
                ortho, mus = mu_gram()
        if (ortho[k] @ ortho[k]) >= (0.75 - mus[k, k - 1] ** 2) * (ortho[k - 1] @ ortho[k - 1]):
            k += 1
        else:
            vecs[k], vecs[k - 1] = vecs[k - 1], vecs[k]
            tmp = trans[:, k].copy()
            trans[:, k] = trans[:, k - 1]
            trans[:, k - 1] = tmp
            k = max(k - 1, 1)
    if abs(det(trans)) != 1:
        return basis  # keep the verified-correct round_two basis
    out = []
    for j in range(deg):
        v = [Fraction(0)] * deg
        for i in range(deg):
            if trans[i, j]:
                for c in range(deg):
                    v[c] += Fraction(int(trans[i, j])) * basis[i][c]
        out.append(tuple(v))
    return out
