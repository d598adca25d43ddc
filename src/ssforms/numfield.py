"""Small exact number-field arithmetic: elements of Q[t]/(h) as Fraction
coefficient tuples, linear algebra over Q (kernels, solves, incremental
rank, the characteristic polynomial, the determinant), real embeddings, and
integral bases.

Degrees here never exceed the orbit-dimension cap, so everything is dense
and exact.  Kernels, solves, charpolys and determinants are sympy's
DomainMatrix over QQ or ZZ, taking and returning ints and Fractions; only
the incremental rank test is hand-written, because it stops at the first d
independent rows of a matrix with as many rows as the level has vertices.
The maximal order comes from Zassenhaus's Round 2 on small integer
matrices (exact Python ints; the radicals and kernels mod p by hand, the
Hermite normal form from sympy), and is checked to be closed under
multiplication with an integral discriminant.  The integral basis is that
order after a light lattice reduction pass on the real-embedding Gram
matrix to keep the basis short (unimodularity of the reduction is verified
exactly).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

import numpy as np
from sympy import factorint, Poly, QQ, symbols, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.matrices.normalforms import hermite_normal_form

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
        return tuple(Fraction(x) for x in _mul_mod_h(a, b, self.h))

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
    cols, denom, disc = maximal_order(h)
    cols = [tuple(Fraction(x, denom) for x in c) for c in cols]
    field = NumberField(h)
    cols = _lll_reduce(field, cols)
    cols = _put_one_first(cols)
    return cols, disc


def maximal_order(h) -> tuple[list[list[int]], int, int]:
    """(cols, denom, disc) for the maximal order O of Q[t]/(h), h a monic
    irreducible integer polynomial (lowest-first): O is spanned by the
    columns cols[j] / denom in the power basis of t, the columns form a
    column Hermite normal form (upper triangular, positive diagonal, each
    row reduced modulo its diagonal entry), denom is as small as possible,
    and disc is the discriminant of O.

    Zassenhaus's Round 2 (Cohen, A Course in Computational Algebraic Number
    Theory, 6.1): starting from Z[t], for each prime p with p^2 | disc(h),
    O is replaced by (1/p) {x in O : x I_p in p I_p} until that adds
    nothing, where I_p / pO is the radical of O/pO; O is then p-maximal.
    ValueError when h is reducible; ArithmeticError when the result is not
    closed under multiplication or its discriminant is not an integer."""
    h = [int(c) for c in h]
    n = len(h) - 1
    poly = Poly(h[::-1], _t, domain=ZZ)
    if h[-1] != 1 or not poly.is_irreducible:
        raise ValueError("defining polynomial must be monic and irreducible")
    disc_h = int(poly.discriminant())
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    denom = 1
    table = _mult_table(h, cols, denom)
    for p, e in factorint(abs(disc_h)).items():
        if e < 2:
            continue
        while (grown := _enlarge(table, cols, denom, p)) is not None:
            cols, denom = grown
            # raises unless the new basis is closed under multiplication, so
            # the order returned, the last one built, has passed that check
            table = _mult_table(h, cols, denom)
    diag = prod(c[i] for i, c in enumerate(cols))
    disc, rem = divmod(disc_h * diag**2, denom ** (2 * n))
    if rem:
        raise ArithmeticError("maximal order has a non-integral discriminant")
    return cols, denom, disc


def _mult_table(h, cols, denom) -> list[list[list[int]]]:
    """table[i][j]: the integer coordinates of w_i w_j in the basis
    w_k = cols[k] / denom of an order of Q[t]/(h), cols upper triangular;
    ArithmeticError when a product has no integer coordinates."""
    n = len(cols)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # w_i w_j = prod / denom^2 = sum_k c_k cols[k] / denom, so the
            # triangular system is denom * sum_k c_k cols[k] = prod
            prod = _mul_mod_h(cols[i], cols[j], h)
            c = [0] * n
            for k in range(n - 1, -1, -1):
                r = prod[k] - denom * sum(cols[m][k] * c[m] for m in range(k + 1, n))
                c[k], rem = divmod(r, denom * cols[k][k])
                if rem:
                    raise ArithmeticError("basis is not closed under multiplication")
            table[i][j] = table[j][i] = c
    return table


def _mul_mod_h(a, b, h) -> list:
    """a * b mod the monic integer polynomial h, for coefficient lists (ints
    or Fractions, lowest-first) of length at most deg h."""
    n = len(h) - 1
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        top = out.pop()
        if top:
            for j in range(n):
                out[i - n + j] -= top * h[j]
    return out


def _mul_coords(table, x, y, p: int) -> list[int]:
    """x * y mod p, for elements given by coordinates in the basis of table."""
    out = [0] * len(x)
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, t in enumerate(row[j]):
                        out[k] += c * t
    return [v % p for v in out]


def _enlarge(table, cols, denom, p: int):
    """One Round 2 step at p: the (cols, denom) of the order
    (1/p) {x in O : x I_p in p I_p} for the order O = (cols, denom) with
    multiplication table table, or None when that order is O itself, that
    is when O is p-maximal."""
    n = len(cols)
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    # x -> x^p is F_p-linear on O/pO; its matrix frob (by columns), raised to
    # the power log_p q, maps x to x^q, whose kernel is the radical I_p / pO
    frob = []
    for x in unit:
        acc = x
        for bit in bin(p)[3:]:  # left-to-right binary powering
            acc = _mul_coords(table, acc, acc, p)
            if bit == "1":
                acc = _mul_coords(table, acc, x, p)
        frob.append(acc)
    phi, q = frob, p
    while q < n:
        phi = [[sum(frob[m][k] * c[m] for m in range(n)) % p for k in range(n)]
               for c in phi]
        q *= p
    radical, free = _nullspace_mod([[c[k] for c in phi] for k in range(n)], n, p)
    if not radical:
        return None  # O/pO is reduced, so O is p-maximal
    pivots = [k for k in range(n) if k not in free]
    # a Z-basis of I_p: the radical's vectors, which are 1 at their own free
    # column and 0 at the others, and p e_k at the pivot columns k
    ideal = radical + [[p * int(m == k) for m in range(n)] for k in pivots]

    def ideal_coords(v):
        y = [v[f] for f in free]
        z = []
        for k in pivots:
            r = v[k] - sum(yf * r_f[k] for yf, r_f in zip(y, radical))
            if r % p:
                raise ArithmeticError("radical is not an ideal")
            z.append(r // p)
        return [c % p for c in y + z]

    # column i: multiplication by w_i on I_p / p I_p, flattened
    action = []
    for i in range(n):
        col = []
        for b in ideal:
            # mod p^2 is enough: p^2 O lies in p I_p
            col.extend(ideal_coords(_mul_coords(table, unit[i], b, p * p)))
        action.append(col)
    kernel, _ = _nullspace_mod([[c[r] for c in action] for r in range(n * n)], n, p)
    if not kernel:
        return None
    gens = [[sum(cols[m][k] * u[m] for m in range(n)) for k in range(n)] for u in kernel]
    gens += [[p * x for x in c] for c in cols]
    hnf = hermite_normal_form(DomainMatrix.from_list(
        [[g[k] for g in gens] for k in range(n)], ZZ)).to_list()
    new_cols = [[int(hnf[k][j]) for k in range(n)] for j in range(n)]
    g = gcd(denom * p, *(x for c in new_cols for x in c))
    return [[x // g for x in c] for c in new_cols], denom * p // g


def _nullspace_mod(rows, ncols: int, p: int):
    """(basis, free) for the kernel of a matrix over F_p given by its rows:
    one basis vector per non-pivot column f of its reduced row echelon form,
    1 at f and 0 at the other non-pivot columns, entries in [0, p)."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f] % p
        basis.append(v)
    return basis, free


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
        return basis  # keep the Hermite normal form basis
    out = []
    for j in range(deg):
        v = [Fraction(0)] * deg
        for i in range(deg):
            if trans[i, j]:
                for c in range(deg):
                    v[c] += Fraction(int(trans[i, j])) * basis[i][c]
        out.append(tuple(v))
    return out
