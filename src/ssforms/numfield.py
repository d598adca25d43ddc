"""Small exact number-field arithmetic: elements of Q[t]/(h) as Fraction
coefficient tuples, linear algebra over Q (kernels, solves, incremental
rank, the characteristic polynomial), real embeddings, and integral bases.

Degrees here never exceed the orbit-dimension cap, so everything is dense
and exact; the integral basis comes from sympy's round_two with a light
lattice reduction pass on the real-embedding Gram matrix to keep the basis
short (unimodularity of the reduction is verified exactly).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from sympy import Poly, symbols, ZZ
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


def kernel_basis(mat, dim: int):
    """Nullspace basis of a square matrix over Q, by Gauss-Jordan
    elimination.  Returns a list of Fraction coordinate vectors."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = dim
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = a[r][c]
        a[r] = [x / s for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for pc, pr in pivots.items():
            v[pc] = -a[pr][c]
        basis.append(v)
    return basis


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


def rational_charpoly(mat) -> list:
    """Exact characteristic polynomial (lowest-first ints) of an integer
    matrix, by Faddeev-LeVerrier over Q."""
    m = len(mat)
    a = [[Fraction(int(x)) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    ak = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        for i in range(m):
            ak[i][i] += coeffs[-1]
        nxt = [[sum(a[i][l] * ak[l][j] for l in range(m)) for j in range(m)] for i in range(m)]
        tr = sum(nxt[i][i] for i in range(m))
        coeffs.append(-tr / k)
        ak = nxt
    out = []
    for c in reversed(coeffs):
        if c.denominator != 1:
            raise ArithmeticError(f"characteristic polynomial coefficient {c} is not integral")
        out.append(int(c))
    return out


def integral_basis(h) -> tuple[list[tuple], int]:
    """(basis, disc) of the maximal order of Q[t]/(h): each basis element is a
    tuple of Fractions in the power basis, the first element is 1, and the
    basis is length-reduced under the real-embedding quadratic form."""
    deg = len(h) - 1
    if deg == 1:
        return [(Fraction(1),)], 1
    T = Poly([int(c) for c in h[::-1]], _t, domain=ZZ)
    module, disc = round_two(T)
    qq = module.QQ_matrix.to_Matrix()
    cols = [tuple(Fraction(qq[i, c].p, qq[i, c].q) for i in range(deg)) for c in range(deg)]
    field = NumberField(h)
    cols = _lll_reduce(field, cols)
    cols = _put_one_first(cols)
    return cols, int(disc)


def _put_one_first(basis):
    deg = len(basis)
    one = tuple([Fraction(1)] + [Fraction(0)] * (deg - 1))
    # 1 is always a primitive vector of the maximal order; make it the first
    # basis element by a unimodular change (swap with any basis vector whose
    # coordinate on it is +-1 after expressing 1 in the basis)
    mat = [[basis[j][i] for j in range(deg)] for i in range(deg)]  # power-basis rows
    target = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    sol = solve_fraction(mat, target)
    for j, c in enumerate(sol):
        if abs(c) == 1:
            out = list(basis)
            out[j] = one
            # re-verify unimodularity: determinant of coordinates of out in basis
            return [one] + [b for k, b in enumerate(out) if k != j]
    # fall back: prepend 1 and drop a column keeping determinant +-1
    for j in range(deg):
        out = [one] + [b for k, b in enumerate(basis) if k != j]
        coords = [solve_fraction(mat, list(v)) for v in out]
        det = _det_fraction(coords)
        if abs(det) == 1:
            return out
    raise ArithmeticError("could not normalize 1 into the integral basis")


def solve_fraction(mat, rhs):
    """The solution x of mat x = rhs for a nonsingular square matrix of
    Fractions, by Gauss-Jordan elimination."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        s = a[c][c]
        a[c] = [x / s for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def _det_fraction(mat):
    n = len(mat)
    a = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        s = a[c][c]
        a[c] = [x / s for x in a[c]]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


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
    coords = [[Fraction(int(trans[i, j])) for j in range(deg)] for i in range(deg)]
    det = _det_fraction(coords)
    if abs(det) != 1:
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
