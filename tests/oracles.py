"""Independent oracles shared by the test suite.

Everything here is deliberately naive: brute-force point counts, dense
characteristic polynomials, per-term series arithmetic over F_{p^2}, and
Fraction-based Sturm counting.  None of it shares code paths with the
package implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from sympy import nextprime, Poly, symbols, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.numberfields.basis import round_two

from ssforms import gf, series, ssgraph

# (a1, a2, a3, a4, a6) minimal models of the elliptic curves of prime
# conductor for the golden levels; discriminants are verified to be
# +-p^k by the tests that use them.
GOLDEN_CURVES = {
    11: [(0, -1, 1, -10, -20)],
    17: [(1, -1, 1, -1, -14)],
    19: [(0, 1, 1, -9, -15)],
    37: [(0, 0, 1, -1, 0), (0, 1, 1, -23, -50)],
    43: [(0, 1, 1, 0, 0)],
    53: [(1, -1, 1, 0, 0)],
    61: [(1, 0, 0, -2, 1)],
    67: [(0, 1, 1, -12, -21)],
    79: [(1, 1, 1, -2, 0)],
    89: [(1, 1, 1, -1, 0), (1, 1, 0, -1, 0)],
}


def curve_disc(a1, a2, a3, a4, a6) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def is_prime_power_of(n: int, p: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def curve_ap(curve, ell: int, conductor: int) -> int:
    """a_ell by brute-force point count; at ell = conductor the reduction is
    multiplicative and a_p = +1 (split) or -1 (nonsplit) by the tangent test."""
    a1, a2, a3, a4, a6 = curve
    if ell != conductor:
        cnt = 1
        for x in range(ell):
            rhs = (x**3 + a2 * x * x + a4 * x + a6) % ell
            for y in range(ell):
                if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                    cnt += 1
        return ell + 1 - cnt
    return _ap_multiplicative(curve, ell)


def _ap_multiplicative(curve, p: int) -> int:
    a1, a2, a3, a4, a6 = curve
    b2 = (a1 * a1 + 4 * a2) % p
    b4 = (2 * a4 + a1 * a3) % p
    b6 = (a3 * a3 + 4 * a6) % p
    g = [b6, 2 * b4 % p, b2, 4]
    gp = [2 * b4 % p, 2 * b2 % p, 12 % p]

    def val(poly, x):
        return sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p

    common = [x for x in range(p) if val(g, x) == 0 and val(gp, x) == 0]
    assert len(common) == 1, "expected a single node"
    x0 = common[0]
    num = [c % p for c in g]
    for _ in range(2):
        q = [0] * (len(num) - 1)
        carry = 0
        for i in range(len(num) - 1, 0, -1):
            carry = (num[i] + carry * x0) % p
            q[i - 1] = carry
        assert (num[0] + carry * x0) % p == 0
        num = q
    e = (-num[0] * pow(4, -1, p)) % p
    slope_sq = 4 * (x0 - e) % p
    return 1 if pow(slope_sq, (p - 1) // 2, p) == 1 else -1


def brute_supersingular_js(p: int) -> list[int]:
    """F_p-rational supersingular j-invariants by naive point counting."""
    chi = -np.ones(p, dtype=np.int64)
    chi[np.arange(p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    out = []
    for j in range(p):
        if j == 0:
            a, b = 0, 1
        elif j == 1728 % p:
            a, b = 1, 0
        else:
            k = j * pow((1728 - j) % p, -1, p) % p
            a, b = 3 * k % p, 2 * k % p
        x = np.arange(p, dtype=np.int64)
        vals = (x * x % p * x + a * x + b) % p
        if int(p + 1 + chi[vals].sum()) == p + 1:
            out.append(j)
    return out


# ---------------------------------------------------------------------------
# Dense characteristic polynomials
# ---------------------------------------------------------------------------


def hessenberg_charpoly_mod(A: np.ndarray, nu: int) -> np.ndarray:
    """Monic charpoly mod nu (lowest-first) by Hessenberg reduction."""
    A = A.copy().astype(np.int64) % nu
    n = A.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if A[r, c] % nu:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            A[[c + 1, piv]] = A[[piv, c + 1]]
            A[:, [c + 1, piv]] = A[:, [piv, c + 1]]
        inv = pow(int(A[c + 1, c]), -1, nu)
        for r in range(c + 2, n):
            if A[r, c]:
                f = A[r, c] * inv % nu
                A[r] = (A[r] - f * A[c + 1]) % nu
                A[:, c + 1] = (A[:, c + 1] + f * A[:, r]) % nu
    polys = [np.array([1], dtype=np.int64)]
    for k in range(1, n + 1):
        t_pk = np.zeros(k + 1, dtype=np.int64)
        t_pk[1:] = polys[k - 1]
        t_pk[:-1] = (t_pk[:-1] - A[k - 1, k - 1] * polys[k - 1]) % nu
        beta = 1
        for i in range(k - 2, -1, -1):
            beta = beta * A[i + 1, i] % nu
            coef = A[i, k - 1] * beta % nu
            if coef:
                t_pk[: i + 1] = (t_pk[: i + 1] - coef * polys[i]) % nu
        polys.append(t_pk % nu)
    return polys[n]


def berlekamp_massey_py(seq, nu: int) -> list[int]:
    """Monic minimal recurrence of a sequence mod nu, lowest coefficient
    first, by the textbook Berlekamp-Massey loop over Python lists.  A
    recurrence with zero constant term is returned as it is (the package
    raises SingularRecurrenceError for it)."""
    s = [int(x) % nu for x in seq]
    C = [1]
    B = [1]
    L, m, b = 0, 1, 1
    for n_ in range(len(s)):
        d = s[n_]
        for i in range(1, L + 1):
            d = (d + C[i] * s[n_ - i]) % nu
        if d == 0:
            m += 1
            continue
        if 2 * L <= n_:
            T = list(C)
            coef = d * pow(b, -1, nu) % nu
            C = C + [0] * (len(B) + m - len(C))
            for i, x in enumerate(B):
                C[i + m] = (C[i + m] - coef * x) % nu
            B = T
            L = n_ + 1 - L
            b = d
            m = 1
        else:
            coef = d * pow(b, -1, nu) % nu
            C = C + [0] * max(0, len(B) + m - len(C))
            for i, x in enumerate(B):
                C[i + m] = (C[i + m] - coef * x) % nu
            m += 1
    # connection poly C(x) = 1 + c_1 x + ... ; monic recurrence = reversal
    mu = C[L::-1] if L + 1 <= len(C) else C[::-1]
    return [0] * (L + 1 - len(mu)) + mu


def wiedemann_all_columns(m, rng, nu: int, budget: int):
    """The probing schedule of linalg.wiedemann_minpoly without its residual
    skip: every probe runs berlekamp_massey_py on the main coordinate and on
    every extra column and takes the lcm of all of them.  It draws from rng
    exactly as the package does, so the same seed must give the same
    (best, traces) or the same CharpolyFailure."""
    from ssforms import gf, linalg

    traces = []
    best = None
    k = linalg.SHIFT0
    singular = 0
    attempts = 0
    while attempts < budget:
        u = linalg._random_start_vector(m.n, linalg.DENSITY, rng, nu)
        i = int(rng.integers(0, m.n))
        cols = rng.choice(m.n, size=min(m.n, linalg.EXTRA_PROBE_COLUMNS), replace=False)
        seq, window, extra = linalg.krylov_probe(m, nu, k, u, i, linalg.WINDOW_SIZE, cols)
        mu_sh = berlekamp_massey_py(seq, nu)
        if mu_sh[0] == 0:
            k += 1
            singular += 1
            if singular > linalg.MAX_SINGULAR_RETRIES:
                raise linalg.CharpolyFailure(f"shift increments exhausted at nu={nu}")
            continue
        mu = linalg.taylor_shift(np.array(mu_sh, dtype=np.int64), k, nu)
        traces.append(linalg.KrylovTrace(k, seq, window))
        best = mu if best is None else gf.npoly_lcm(best, mu, nu)
        for c in range(extra.shape[1]):
            mu_c = berlekamp_massey_py(extra[:, c], nu)
            if mu_c[0] != 0:
                mu_c = linalg.taylor_shift(np.array(mu_c, dtype=np.int64), k, nu)
                best = gf.npoly_lcm(best, mu_c, nu)
        attempts += 1
        if len(best) - 1 == m.n:
            break
    if best is None:
        raise linalg.CharpolyFailure(f"no probe ran at nu={nu}")
    if not linalg.annihilates(best, m, nu, rng, linalg.VERIFY_VECTORS):
        raise linalg.CharpolyFailure(f"candidate is not the minimal polynomial at nu={nu}")
    return best, traces


def dense_charpoly_int(A: np.ndarray) -> list[int]:
    """Exact integer charpoly by CRT over 31-bit primes; the coefficient
    bound C(n, k) rho^k with rho the max absolute row sum is rigorous."""
    n = A.shape[0]
    if n == 0:
        return [1]
    rho = max(2, int(np.abs(A).sum(axis=1).max()))
    logbound = n * math.log2(2) + n * math.log2(rho) + 4
    primes = []
    q = 2**30
    acc = 0.0
    while acc < logbound:
        q = int(nextprime(q))
        primes.append(q)
        acc += math.log2(q)
    residues = [hessenberg_charpoly_mod(A, q) for q in primes]
    M = 1
    for q in primes:
        M *= q
    out = []
    for k in range(n + 1):
        x = 0
        for q, res in zip(primes, residues):
            Mi = M // q
            x = (x + int(res[k]) * Mi * pow(Mi, -1, q)) % M
        out.append(x if x <= M // 2 else x - M)
    return out


def int_poly_divide_out(chi: list[int], g, max_mult: int = 64):
    """(multiplicity, quotient) of the monic integer divisor g in chi."""
    mult = 0
    cur = list(chi)
    while mult < max_mult:
        f = list(cur)
        gg = [int(x) for x in g]
        q = [0] * (len(f) - len(gg) + 1)
        ok = len(f) >= len(gg)
        while len(f) >= len(gg):
            c = f[-1]
            k = len(f) - len(gg)
            q[k] = c
            for i in range(len(gg)):
                f[k + i] -= c * gg[i]
            f.pop()
        if not ok or any(f):
            break
        mult += 1
        cur = q
    return mult, cur


def small_factor_profile(chi: list[int], candidates_by_degree) -> tuple[list, int]:
    """[(candidate, multiplicity)] over the degree <= 6 candidate lists plus
    the leftover degree."""
    found = []
    cur = list(chi)
    for d in sorted(candidates_by_degree):
        for cand in candidates_by_degree[d]:
            m, cur2 = int_poly_divide_out(cur, cand)
            if m:
                found.append((tuple(cand), m))
                cur = cur2
    return found, len(cur) - 1


# ---------------------------------------------------------------------------
# Dense Atkin-Lehner split
# ---------------------------------------------------------------------------


def dense_split_atkin_lehner(B: np.ndarray, sset):
    """The Atkin-Lehner blocks of the dense matrix B, orbit pair by orbit
    pair: row sums over each orbit read at its first vertex, with the
    conjugate row subtracted in the plus block."""
    from ssforms.ssgraph import ALSplitMatrices

    conj = sset.conj
    n = len(sset)
    minus_orbits = [(i, int(conj[i])) for i in range(n) if i <= conj[i]]
    plus_orbits = [(i, int(conj[i])) for i in range(n) if i < conj[i]]
    mi = {o[0]: t for t, o in enumerate(minus_orbits)}
    pi = {o[0]: t for t, o in enumerate(plus_orbits)}

    minus = np.zeros((len(minus_orbits), len(minus_orbits)), dtype=np.int64)
    for (j1, j1c) in minus_orbits:
        r = mi[j1]
        row = B[j1] if j1 == j1c else B[j1] + B[j1c]
        for (j2, j2c) in minus_orbits:
            minus[r][mi[j2]] = row[j2]
    plus = np.zeros((len(plus_orbits), len(plus_orbits)), dtype=np.int64)
    for (j1, j1c) in plus_orbits:
        r = pi[j1]
        row = B[j1] - B[j1c]
        for (j2, j2c) in plus_orbits:
            plus[r][pi[j2]] = row[j2]
    return ALSplitMatrices(
        plus=_scipy_compressed(plus),
        minus=_scipy_compressed(minus),
        plus_orbits=plus_orbits,
        minus_orbits=minus_orbits,
    )


def _scipy_compressed(arr: np.ndarray):
    """The SparseSignedMatrix of arr, compressed by scipy rather than by the
    package's own constructors."""
    import scipy.sparse as sp
    from ssforms.linalg import SparseSignedMatrix

    csr = sp.csr_matrix(arr)
    csr.sort_indices()
    return SparseSignedMatrix(arr.shape[0], csr.indptr, csr.indices, csr.data)


def shell_columns(m: int, bound: int) -> list[list[tuple]]:
    """Column tuples in {-bound..bound}^m grouped by sum of squares,
    ascending, each group in itertools.product order; no zero tuple."""
    by_size: dict[int, list] = {}
    for tup in itertools.product(range(-bound, bound + 1), repeat=m):
        s = sum(x * x for x in tup)
        if s:
            by_size.setdefault(s, []).append(tup)
    return [by_size[s] for s in sorted(by_size)]


# ---------------------------------------------------------------------------
# Naive Mestre sum over F_{p^2}
# ---------------------------------------------------------------------------


def naive_mestre_psi(p: int, sset, vertex_values, terms: int) -> list[int]:
    """psi = q * j'(q) * sum_s v_s / (j(q) - j_s) by per-term series division
    over F_{p^2}; asserts every coefficient lands in F_p and returns the
    first `terms` coefficients of q^1..q^terms."""
    from ssforms import series

    ctx = sset.ctx
    n = terms + 4
    j, jp = series.j_series(p, n + 2)
    # dense coefficient lists over exponents [-1, n]
    jc = [(int(j.coeff(e)), 0) for e in range(-1, n)]
    jpc = [(int(jp.coeff(e)), 0) for e in range(-2, n)]

    def sub_const(c, s):
        out = list(c)
        out[1] = ctx.sub(out[1], s)  # constant sits at exponent 0 = index 1
        return out

    def inv_series(c):
        # c has valuation -1 (leading coefficient 1): 1/c has valuation 1.
        # write c = q^-1 * u with u a unit; invert u as a unit power series.
        u = c[:]  # u[i] = coeff of q^i in u
        inv0 = ctx.inv(u[0])
        inv = [inv0]
        for k in range(1, len(u)):
            s = ctx.zero
            for i in range(1, k + 1):
                if i < len(u):
                    s = ctx.add(s, ctx.mul(u[i], inv[k - i]))
            inv.append(ctx.neg(ctx.mul(inv0, s)))
        return inv  # coeff of q^(k+1) in 1/c is inv[k]

    acc = [ctx.zero] * (terms + 3)  # coeff of q^e for e in [-1, terms+1]
    for j_s, v in vertex_values.items():
        if v == (0, 0):
            continue
        inv = inv_series(sub_const(jc, j_s))
        # multiply j' (exponents from -2) by 1/(j - j_s) (exponents from +1)
        for e in range(-1, terms + 2):
            s = ctx.zero
            for a in range(-2, e):
                b = e - a  # exponent in the inverse, >= 1
                ia = a + 2
                ib = b - 1
                if ia < len(jpc) and 0 <= ib < len(inv):
                    s = ctx.add(s, ctx.mul(jpc[ia], inv[ib]))
            acc[e + 1] = ctx.add(acc[e + 1], ctx.mul(v, s))
    # psi = q * acc
    out = []
    for e in range(1, terms + 1):
        c = acc[e]  # coeff of q^(e-1) in acc = coeff of q^e in psi
        assert c[1] % p == 0, "naive Mestre sum left F_p"
        out.append(c[0] % p)
    return out


# ---------------------------------------------------------------------------
# Fraction-based Sturm count (independent of the package implementation)
# ---------------------------------------------------------------------------


def fraction_sturm_count_in_bound(poly: list[int]) -> int:
    """Distinct real roots of poly in [-2*sqrt(2), 2*sqrt(2)] via a Fraction
    Sturm chain evaluated exactly at the quadratic-surd endpoints."""
    def eval_surd(f, sign):
        a = Fraction(0)
        b = Fraction(0)
        for k, c in enumerate(f):
            c = Fraction(c)
            term = c * Fraction(8) ** (k // 2) * sign**k
            if k % 2 == 0:
                a += term
            else:
                b += term
        return a, b

    def surd_sign(a, b):
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        return (1 if a > 0 else -1) if a * a > 8 * b * b else (1 if b > 0 else -1)

    f = [Fraction(c) for c in poly]
    a, b = eval_surd(f, 1)
    assert surd_sign(a, b) != 0, "boundary root; caller handles t^2-8"
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        x = list(chain[-2])
        y = chain[-1]
        while len(x) >= len(y) and any(x):
            if x[-1] == 0:
                x.pop()
                continue
            c = x[-1] / y[-1]
            k = len(x) - len(y)
            for i in range(len(y)):
                x[k + i] -= c * y[i]
            while x and x[-1] == 0:
                x.pop()
        r = [-t for t in x]
        if not r:
            break
        chain.append(r)

    def variations(sign):
        signs = []
        for g in chain:
            a, b = eval_surd(g, sign)
            s = surd_sign(a, b)
            if s:
                signs.append(s)
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(-1) - variations(1)


# ---------------------------------------------------------------------------
# Factor detection against the whole candidate table
# ---------------------------------------------------------------------------


def table_detect_factors(chi: np.ndarray, nu: int, g_max: int,
                         candidates_by_degree) -> list[tuple[tuple, int]]:
    """[(candidate, multiplicity mod nu)] for every table candidate of degree
    <= g_max that divides chi mod nu, in table order: batch synthetic
    division of chi by each degree's whole candidate list at once."""
    chi = [int(c) % nu for c in chi]
    found = []
    for d in range(1, g_max + 1):
        cands = candidates_by_degree[d]
        if not cands:
            continue
        mat = np.array(cands, dtype=np.int64) % nu  # (m, d+1), monic
        for idx in np.nonzero(_batch_divides(chi, mat, nu))[0]:
            cand = cands[int(idx)]
            mult, cur = 0, chi
            while True:
                cur, divides = _divide_monic_mod(cur, [c % nu for c in cand], nu)
                if not divides:
                    break
                mult += 1
            found.append((tuple(cand), mult))
    return found


def _batch_divides(chi: list[int], cands: np.ndarray, nu: int) -> np.ndarray:
    """Boolean mask: which monic rows of cands divide chi mod nu."""
    m, dp1 = cands.shape
    d = dp1 - 1
    if len(chi) - 1 < d:
        return np.zeros(m, dtype=bool)
    low = cands[:, :d]  # the non-leading coefficients
    state = np.zeros((m, d), dtype=np.int64)
    for c in chi[::-1]:
        top = state[:, d - 1].copy()
        state[:, 1:] = state[:, :-1]
        state[:, 0] = c
        state -= top[:, None] * low
        state %= nu
    return ~state.any(axis=1)


def _divide_monic_mod(f: list[int], g: list[int], nu: int) -> tuple[list[int], bool]:
    """(quotient, whether the remainder is zero) of f by the monic g mod nu."""
    f = list(f)
    if len(f) < len(g):
        return f, False
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = f[k + len(g) - 1] % nu
        q[k] = c
        for i, gi in enumerate(g):
            f[k + i] = (f[k + i] - c * gi) % nu
    return q, not any(f[: len(g) - 1])


def field_sqrt_ref(ctx, a, rng):
    """Tonelli-Shanks with every residuosity test by Euler's criterion in the
    full field and b = a^t by its own pow: gf.field_sqrt as it was before it
    took Legendre symbols of norms."""
    if ctx.is_zero(a):
        return ctx.zero
    q = ctx.order
    if ctx.pow(a, (q - 1) // 2) != ctx.one:
        return None
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    while True:
        z = ctx.random(rng)
        if not ctx.is_zero(z) and ctx.pow(z, (q - 1) // 2) != ctx.one:
            break
    c = ctx.pow(z, t)
    x = ctx.pow(a, (t + 1) // 2)
    b = ctx.pow(a, t)
    m = s
    while b != ctx.one:
        i, b2 = 0, b
        while b2 != ctx.one:
            b2 = ctx.mul(b2, b2)
            i += 1
        e = ctx.pow(c, 1 << (m - i - 1))
        x = ctx.mul(x, e)
        c = ctx.mul(e, e)
        b = ctx.mul(b, c)
        m = i
    return x


def npoly_mul_kronecker(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact product mod m by Kronecker substitution: pack the entries, taken
    in [0, m), into Python integers at x = 2^k with k wide enough for every
    coefficient of the product, multiply once, and unpack."""
    a, b = np.asarray(a, dtype=np.int64) % m, np.asarray(b, dtype=np.int64) % m
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    nbytes = (min(len(a), len(b)) * (m - 1) ** 2).bit_length() // 8 + 1

    def pack(v):
        return int.from_bytes(b"".join(int(c).to_bytes(nbytes, "little") for c in v), "little")

    out_len = len(a) + len(b) - 1
    raw = (pack(a) * pack(b)).to_bytes(out_len * nbytes, "little")
    return np.array([int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") % m
                     for i in range(out_len)], dtype=np.int64)


def dilate(s: "series.PowerSeries", m: int) -> "series.PowerSeries":
    """s(q^m) for m >= 1."""
    out = np.zeros(len(s.coeffs) * m - m + 1 if len(s.coeffs) else 0, dtype=np.int64)
    if len(s.coeffs):
        out[::m] = s.coeffs
    return series.PowerSeries(s.p, s.val * m, out, s.absprec * m)


def j_series_e4_route(p: int, n: int) -> "series.PowerSeries":
    """j = E4^3 / Delta mod p to absolute precision n - 1, with
    E4 = 1 + 240 sum sigma_3(k) q^k from plain divisor sums and
    Delta = q eta^24: a route to j that shares neither the weight-12
    Eisenstein series nor the 744 normalization with series.j_series."""
    sigma3 = [0] + [sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(1, n + 2)]
    e4 = series.PowerSeries(p, 0, [1] + [240 * x % p for x in sigma3[1:]], n + 2)
    eta3 = series.eta_cubed(p, n + 2)
    e8 = eta3
    for _ in range(7):
        e8 = series.series_mul(e8, eta3)
    num = series.series_mul(series.series_mul(e4, e4), e4)
    return series.series_mul(num, series.series_inv(e8, n + 1)).shift(-1).truncate(n - 1)


def partial_fraction_tree(terms, p: int) -> "series.RationalFunction":
    """P/Q = sum gamma_i / (x - j_i) for (gamma_i, j_i) over F_p."""
    leaves = [series.RationalFunction(p, [g % p], [(-j) % p, 1]) for g, j in terms]
    return series.rational_sum_tree(leaves)


def horner_compose(gcoeffs: np.ndarray, u: "series.PowerSeries", absprec: int):
    """sum_k g[k] u(q)^k by Horner's rule, one series product per term: the
    slow oracle for series.brent_kung_compose."""
    p = u.p
    absprec = min(absprec, u.absprec)
    L = min(len(gcoeffs), absprec)
    acc = series.PowerSeries.zero(p, absprec)
    one = series.PowerSeries.one(p, absprec)
    for k in range(L - 1, -1, -1):
        acc = series.series_mul(acc, u, absprec)
        acc = acc + one.scale(int(gcoeffs[k]))
    return acc


def horner_reciprocal_j(r: "series.RationalFunction", j: "series.PowerSeries", n: int):
    """series.compose_with_reciprocal_j(r, j, n) with the composition by
    Horner's rule: the expansion of r in 1/x, composed with u = 1/j(q)."""
    g = series.reciprocal_expansion(r, n + 2)
    return horner_compose(np.concatenate([[0], g]), series.series_inv(j, n), n)


# ---------------------------------------------------------------------------
# Factoring over F_m with one full powmod per Frobenius step: the
# distinct-degree, equal-degree and Rabin routines gf had before its
# Frobenius matrix, on the schoolbook division and Euclid they used.  Only
# NPolyModCtx.powmod is shared with the package.
# ---------------------------------------------------------------------------


def npoly_eval(a: np.ndarray, x: int, m: int) -> int:
    """a(x) mod m by Horner's rule."""
    acc = 0
    for c in a[::-1]:
        acc = (acc * x + int(c)) % m
    return acc


def npoly_divrem_ref(a: np.ndarray, b: np.ndarray, m: int):
    """Schoolbook division mod m, one quotient term at a time."""
    b = gf.npoly_trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = gf.npoly_trim(a.copy())
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return np.zeros(0, dtype=np.int64), a
    inv_lead = pow(int(b[-1]), -1, m)
    q = np.zeros(da - db + 1, dtype=np.int64)
    for k in range(da - db, -1, -1):
        c = a[k + db] * inv_lead % m
        if c:
            q[k] = c
            a[k : k + db + 1] = (a[k : k + db + 1] - c * b) % m
    return q, gf.npoly_trim(a[:db])


def npoly_gcd_ref(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Monic gcd by Euclid on npoly_divrem_ref."""
    a, b = gf.npoly_trim(a.copy()), gf.npoly_trim(b.copy())
    while len(b):
        a, b = b, npoly_divrem_ref(a, b, m)[1]
    return _monic_ref(a, m)


def _monic_ref(a: np.ndarray, m: int) -> np.ndarray:
    a = gf.npoly_trim(a)
    if len(a) and int(a[-1]) != 1:
        a = a * pow(int(a[-1]), -1, m) % m
    return a


def distinct_degree_ref(f: np.ndarray, m: int, max_degree: int | None = None):
    """Distinct-degree factorization with a new context and one
    powmod(h, m) per degree, h reduced mod each shrunken f."""
    f = _monic_ref(np.asarray(f, dtype=np.int64) % m, m)
    out = []
    d = 0
    x = np.array([0, 1], dtype=np.int64)
    h = x.copy()
    while len(f) - 1 > 0:
        d += 1
        if max_degree is not None and d > max_degree:
            break
        if len(f) - 1 < 2 * d:
            if max_degree is None or len(f) - 1 <= max_degree:
                out.append((f, len(f) - 1))
            break
        ctx = gf.NPolyModCtx(f, m)
        h = ctx.powmod(h, m)
        diff = gf.npoly_trim((h - ctx.reduce(x)) % m)
        g = npoly_gcd_ref(diff, f, m)
        if len(g) > 1:
            out.append((g, d))
            f = npoly_divrem_ref(f, g, m)[0]
            h = npoly_divrem_ref(h, f, m)[1] if len(f) > 1 else h
    return out


def equal_degree_split_ref(f: np.ndarray, d: int, m: int, rng,
                           attempt_cap: int = 64) -> list[np.ndarray]:
    """Cantor-Zassenhaus with one powmod(a, (m^d - 1)/2) per attempt."""
    f = _monic_ref(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n == d:
        return [f]
    e = (pow(m, d) - 1) // 2
    for _ in range(attempt_cap):
        a = np.array(rng.integers(0, m, n), dtype=np.int64)
        if not a.any():
            continue
        t = gf.npoly_trim(gf.NPolyModCtx(f, m).powmod(a, e))
        if len(t) == 0:
            continue
        t = t.copy()
        t[0] = (t[0] - 1) % m
        g = npoly_gcd_ref(gf.npoly_trim(t), f, m)
        if 0 < len(g) - 1 < n:
            rest = npoly_divrem_ref(f, g, m)[0]
            return equal_degree_split_ref(g, d, m, rng, attempt_cap) + \
                equal_degree_split_ref(rest, d, m, rng, attempt_cap)
    raise ArithmeticError(f"equal-degree splitting stalled after {attempt_cap} attempts")


def rabin_irreducible_ref(f: np.ndarray, m: int) -> bool:
    """Rabin's test with x^(m^k) for every k <= n, each by a powmod."""
    f = _monic_ref(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    ctx = gf.NPolyModCtx(f, m)
    x = ctx.reduce(np.array([0, 1], dtype=np.int64))
    frob = [x]
    for _ in range(n):
        frob.append(ctx.powmod(frob[-1], m))
    if gf.npoly_trim((frob[n] - x) % m).size:
        return False
    primes = [q for q in range(2, n + 1) if n % q == 0
              and all(q % r for r in range(2, q))]
    return all(len(npoly_gcd_ref(gf.npoly_trim((frob[n // q] - x) % m), f, m)) == 1
               for q in primes)


# ---------------------------------------------------------------------------
# Generic tuple polynomials over any field context, and the ell-general
# isogeny-graph BFS built on them
# ---------------------------------------------------------------------------


def poly_trim(f, ctx):
    while f and ctx.is_zero(f[-1]):
        f = f[:-1]
    return f


def poly_sub(f, g, ctx):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ctx.zero
        b = g[i] if i < len(g) else ctx.zero
        out.append(ctx.sub(a, b))
    return poly_trim(out, ctx)


def poly_scale(f, c, ctx):
    return poly_trim([ctx.mul(a, c) for a in f], ctx)


def poly_mul(f, g, ctx):
    if not f or not g:
        return []
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if ctx.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return poly_trim(out, ctx)


def poly_divrem(f, g, ctx):
    """Euclidean division over a field: f = q*g + r with deg r < deg g."""
    g = poly_trim(g, ctx)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = poly_trim(list(f), ctx)
    lead_inv = ctx.inv(g[-1])
    q = [ctx.zero] * max(0, len(f) - len(g) + 1)
    r = f
    while len(r) >= len(g):
        c = ctx.mul(r[-1], lead_inv)
        k = len(r) - len(g)
        q[k] = c
        for i in range(len(g)):
            r[k + i] = ctx.sub(r[k + i], ctx.mul(c, g[i]))
        r = poly_trim(r, ctx)
    return poly_trim(q, ctx), r


def poly_monic(f, ctx):
    f = poly_trim(f, ctx)
    if not f:
        return f
    return poly_scale(f, ctx.inv(f[-1]), ctx)


def poly_gcd(f, g, ctx):
    """Monic gcd."""
    f = poly_trim(list(f), ctx)
    g = poly_trim(list(g), ctx)
    while g:
        f, g = g, poly_divrem(f, g, ctx)[1]
    return poly_monic(f, ctx)


def poly_mulmod(f, g, m, ctx):
    return poly_divrem(poly_mul(f, g, ctx), m, ctx)[1]


def poly_powmod(f, e: int, m, ctx):
    r = [ctx.one]
    f = poly_divrem(f, m, ctx)[1]
    while e:
        if e & 1:
            r = poly_mulmod(r, f, m, ctx)
        f = poly_mulmod(f, f, m, ctx)
        e >>= 1
    return r


def poly_roots(f, ctx, rng, attempt_cap: int = 64):
    """All roots of f in ctx's field, with multiplicity, for any degree.

    gcd with x^q - x (computed by repeated squaring of Frobenius mod f)
    isolates the part splitting into distinct linear factors; equal-degree
    splitting then walks it down to linears.  Multiplicities are recovered by
    exact division.  Returns a list; empty when f has no roots.
    """
    f = poly_monic(f, ctx)
    if not f:
        raise ZeroDivisionError("roots of the zero polynomial")
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [ctx.neg(f[0])]
    if len(f) == 3:
        b, c = f[1], f[0]
        disc = ctx.sub(ctx.mul(b, b), ctx.mul(ctx.add(c, c), ctx.add(ctx.one, ctx.one)))
        inv2 = ctx.inv(ctx.add(ctx.one, ctx.one))
        if ctx.is_zero(disc):
            r = ctx.mul(ctx.neg(b), inv2)
            return [r, r]
        s = gf.field_sqrt(ctx, disc, rng)
        if s is None:
            return []
        return [ctx.mul(ctx.sub(s, b), inv2), ctx.mul(ctx.sub(ctx.neg(b), s), inv2)]
    xq = poly_powmod([ctx.zero, ctx.one], ctx.order, f, ctx)
    lin = poly_gcd(poly_sub(xq, [ctx.zero, ctx.one], ctx), f, ctx)
    roots = []
    for r in _split_linear(lin, ctx, rng, attempt_cap):
        g = [ctx.neg(r), ctx.one]
        rem = f
        while True:
            quo, rr = poly_divrem(rem, g, ctx)
            if rr:
                break
            roots.append(r)
            rem = quo
    return roots


def _split_linear(f, ctx, rng, attempt_cap):
    """Cantor-Zassenhaus on a squarefree product of linear factors."""
    f = poly_monic(f, ctx)
    d = len(f) - 1
    if d <= 0:
        return []
    if d == 1:
        return [ctx.neg(f[0])]
    if d == 2:
        # quadratic formula; the field has odd characteristic
        b, a = f[1], f[0]
        two_inv = ctx.inv(ctx.add(ctx.one, ctx.one))
        disc = ctx.sub(ctx.mul(b, b), ctx.mul(ctx.add(a, a), ctx.add(ctx.one, ctx.one)))
        s = gf.field_sqrt(ctx, disc, rng)
        if s is None:
            raise ArithmeticError("squarefree split part must split")
        return [ctx.mul(ctx.sub(s, b), two_inv), ctx.mul(ctx.sub(ctx.neg(b), s), two_inv)]
    e = (ctx.order - 1) // 2
    for _ in range(attempt_cap):
        a = ctx.random(rng)
        probe = poly_powmod([a, ctx.one], e, f, ctx)
        g = poly_gcd(poly_sub(probe, [ctx.one], ctx), f, ctx)
        if 0 < len(g) - 1 < d:
            other = poly_divrem(f, g, ctx)[0]
            return (_split_linear(g, ctx, rng, attempt_cap)
                    + _split_linear(other, ctx, rng, attempt_cap))
    raise ArithmeticError(f"equal-degree splitting stalled after {attempt_cap} attempts")


def bfs_adjacency(p: int, ell: int, rng, start_j: int | None = None):
    """(SupersingularSet, dense T_ell) by breadth-first search of the
    ell-isogeny graph, finding every root of Phi_ell(j, y) with the generic
    tuple layer above; the known backward root is divided out first.
    Vertices are ordered by discovery, each followed by its conjugate."""
    if ell == p:
        raise ValueError("ell must differ from p")
    count = ssgraph.supersingular_count(p)
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    grid = ssgraph.bundled_modular_polynomials()[ell]
    deg = ell + 1
    # rows[k][i] = coefficient of y^k x^i, reduced mod p
    rows = [[grid.get((i, k), 0) % p for i in range(deg + 1)] for k in range(deg + 1)]

    def phi_at(j):
        powers = [ctx.one]
        for _ in range(deg):
            powers.append(ctx.mul(powers[-1], j))
        out = []
        for row in rows:
            acc = ctx.zero
            for c, x in zip(row, powers):
                if c:
                    acc = ctx.add(acc, ctx.mul(ctx.embed(c), x))
            out.append(acc)
        return poly_trim(out, ctx)

    j0 = ctx.embed(ssgraph.find_starting_j(p) if start_j is None else start_j)
    vertices, index, conj = [], {}, []

    def add_vertex(j) -> int:
        i = len(vertices)
        vertices.append(j)
        index[j] = i
        js = ctx.conj(j)
        if js == j:
            conj.append(i)
        else:
            vertices.append(js)
            index[js] = i + 1
            conj.extend([i + 1, i])
        return i

    add_vertex(j0)
    edges = []
    queue = [(0, None)]  # (vertex index, known backward root or None)
    head = 0
    while head < len(queue):
        vi, back = queue[head]
        head += 1
        j = vertices[vi]
        f = phi_at(j)
        if back is not None:
            f, rem = poly_divrem(f, [ctx.neg(back), ctx.one], ctx)
            if rem:
                raise ssgraph.GraphError("backward root is not a root")
        roots = poly_roots(f, ctx, rng)
        if back is not None:
            roots.append(back)
        if len(roots) != ell + 1:
            raise ssgraph.GraphError(f"vertex {j} has {len(roots)} of {ell + 1} isogenies")
        for r in roots:
            k = index.get(r)
            if k is None:
                if len(vertices) >= count:
                    raise ssgraph.GraphError("graph exceeded the supersingular count")
                k = add_vertex(r)
                queue.append((k, j))
                if conj[k] != k:
                    queue.append((conj[k], ctx.conj(j)))
            edges.append((vi, k))
    if len(vertices) != count:
        raise ssgraph.GraphError(f"BFS found {len(vertices)} of {count} vertices")
    B = np.zeros((count, count), dtype=np.int64)
    for i, k in edges:
        B[i, k] += 1
    sset = ssgraph.SupersingularSet(p, ctx, vertices, np.array(conj, dtype=np.int64))
    return sset, B


def permuted_to(B: np.ndarray, sset_from, sset_to) -> np.ndarray:
    """The dense matrix B, indexed by the vertices of sset_from, re-indexed
    to the vertex order of sset_to (the same vertex set)."""
    pos = {v: i for i, v in enumerate(sset_from.vertices)}
    perm = np.array([pos[v] for v in sset_to.vertices], dtype=np.int64)
    return B[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# Hecke eigenvalues from one eigenvector over the Hecke field: the route the
# package took before it read a_ell off the orbit's integer basis
# ---------------------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def field_inv(fld, a):
    """1/a in the number field fld = Q[t]/(h), by extended Euclid against h."""
    r0 = [Fraction(x) for x in fld.h]
    r1 = _trim(a)
    if not r1:
        raise ZeroDivisionError("inverse of zero field element")
    s0, s1 = [], [Fraction(1)]
    while r1:
        # divide r0 by r1
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        r = [Fraction(x) for x in r0]
        while len(r) >= len(r1) and _trim(r):
            c = r[-1] / r1[-1]
            k = len(r) - len(r1)
            q[k] = c
            for i in range(len(r1)):
                r[k + i] -= c * r1[i]
            r = _trim(r)
        # s_new = s0 - q*s1
        qs = [Fraction(0)] * (len(q) + len(s1))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    qs[i + j] += x * y
        snew = [Fraction(0)] * max(len(s0), len(qs))
        for i, x in enumerate(s0):
            snew[i] += x
        for i, x in enumerate(qs):
            snew[i] -= x
        r0, r1 = _trim(r1), _trim(r)
        s0, s1 = s1, _trim(snew)
    # r0 is the gcd (a constant for irreducible h)
    if len(r0) != 1:
        raise ValueError("defining polynomial is not irreducible")
    return fld.elt([x / r0[0] for x in s0])


def field_kernel_basis(fld, mat, dim: int):
    """Nullspace basis of a square matrix with entries in the number field."""
    is_zero = lambda a: all(x == 0 for x in a)
    a = [list(row) for row in mat]
    pivots = {}
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, dim) if not is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = field_inv(fld, a[r][c])
        a[r] = [fld.mul(x, s) for x in a[r]]
        for i in range(dim):
            if i != r and not is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(dim):
        if c in pivots:
            continue
        v = [fld.zero] * dim
        v[c] = fld.one
        for pc, pr in pivots.items():
            v[pc] = fld.sub(fld.zero, a[pr][c])
        basis.append(v)
    return basis


def clear_field_vector(e: list) -> list:
    """The field vector e (power-basis coordinates per vertex) scaled to
    primitive integer coordinates."""
    den = 1
    for comp in e:
        for x in comp:
            den = math.lcm(den, Fraction(x).denominator)
    out = [[Fraction(x) * den for x in comp] for comp in e]
    g = 0
    for comp in out:
        for x in comp:
            g = math.gcd(g, abs(int(x)))
    if g > 1:
        out = [[x / g for x in comp] for comp in out]
    return out


def hecke_field_eigenvector(lift_basis: np.ndarray, s_matrix: list, fld) -> list:
    """One eigenvector over fld = Q[theta]/(h) of a lifted kernel: the
    coordinates x with S x = theta x for the integer action S of the
    separating operator on the n x m kernel basis, unfolded to the vertices
    as lift_basis x and cleared of denominators."""
    mdim = len(s_matrix)
    theta = fld.elt([0, 1])
    mat = [[fld.elt([s_matrix[i][j]]) for j in range(mdim)] for i in range(mdim)]
    for i in range(mdim):
        mat[i][i] = fld.sub(mat[i][i], theta)
    xs = field_kernel_basis(fld, mat, mdim)
    if not xs:
        raise ArithmeticError("no eigenvector over the Hecke field")
    e = []
    for i in range(lift_basis.shape[0]):
        acc = fld.zero
        for j in range(mdim):
            acc = fld.add(acc, fld.scale(xs[0][j], int(lift_basis[i, j])))
        e.append(list(acc))
    return clear_field_vector(e)


def eigenvalue_ratio(evec, t_mat, fld):
    """a_ell with T_ell v = a_ell v for an exact eigenvector v over fld (one
    power-basis coordinate list per vertex), checked at every coordinate."""
    d = fld.deg
    cols = [np.array([int(x[comp]) for x in evec], dtype=object) for comp in range(d)]
    image = [t_mat.matvec_exact(c) for c in cols]
    at = lambda vecs, i: fld.elt([Fraction(int(vecs[c][i])) for c in range(d)])
    pivot = next((i for i in range(len(evec)) if any(cols[c][i] for c in range(d))), None)
    if pivot is None:
        raise ValueError("zero eigenvector")
    a = fld.mul(at(image, pivot), field_inv(fld, at(cols, pivot)))
    for i in range(len(evec)):
        if fld.mul(a, at(cols, i)) != at(image, i):
            raise ValueError("inconsistent eigenvalue ratios across coordinates")
    return a


# ---------------------------------------------------------------------------
# Hand-written exact linear algebra over Q and Z, the references for
# numfield's DomainMatrix routines and lift's Hermite-normal-form saturation
# ---------------------------------------------------------------------------


def kernel_basis_gauss_jordan(mat, dim: int):
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


def faddeev_leverrier_charpoly(mat) -> list:
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


def solve_gauss_jordan(mat, rhs):
    """The solution x of mat x = rhs for a nonsingular square matrix of
    Fractions, by Gauss-Jordan elimination."""
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
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


def det_gauss(mat):
    """Determinant of a square matrix over Q by Gaussian elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
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


def hnf_reduce_rows(rows: list, want: int) -> list:
    """Row-style HNF of integer vectors by repeated Euclidean reduction of
    each column; returns `want` basis vectors of the lattice they span."""
    work = [[int(x) for x in r] for r in rows]
    n = len(work[0])
    basis = []
    col = 0
    while work and col < n and len(basis) < want:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            a = nz[0]
            cleared = []
            for r in nz[1:]:
                q = r[col] // a[col]
                for i in range(n):
                    r[i] -= q * a[i]
                if r[col] == 0:
                    if any(r):
                        rest.append(r)
                else:
                    cleared.append(r)
            nz = [a] + cleared
        pivot = nz[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
        col += 1
    if len(basis) != want:
        raise ArithmeticError("lattice rank dropped during reduction")
    return [np.array(b, dtype=np.int64) for b in basis]


def lattice_coords(basis: list, vecs: list):
    """Exact coordinates (Fractions, one list per vector) of each integer
    vector in vecs in the independent integer vectors of basis, or None when
    some vector is outside their span over Q."""
    m = len(basis)
    rows, pivots = [], []
    for i in range(len(basis[0])):
        cand = rows + [[int(b[i]) for b in basis]]
        # the rows are independent iff their Gram matrix is nonsingular
        if det_gauss([[sum(x * y for x, y in zip(r, t)) for t in cand] for r in cand]):
            rows, pivots = cand, pivots + [i]
            if len(rows) == m:
                break
    out = []
    for v in vecs:
        x = solve_gauss_jordan(rows, [int(v[i]) for i in pivots])
        if any(sum(xk * int(b[i]) for xk, b in zip(x, basis)) != int(v[i])
               for i in range(len(v))):
            return None
        out.append(x)
    return out


def same_lattice(a: list, b: list) -> bool:
    """Do the integer vectors a and the integer vectors b (each independent)
    span the same lattice?"""
    ab, ba = lattice_coords(b, a), lattice_coords(a, b)
    return (len(a) == len(b) and ab is not None and ba is not None
            and all(x.denominator == 1 for xs in ab + ba for x in xs))


# ---------------------------------------------------------------------------
# Maximal orders: sympy's round_two, the reference for numfield's Round 2 on
# the Hecke fields, and a brute-force p-maximality test
# ---------------------------------------------------------------------------


def round_two_order(h) -> tuple[list[list[Fraction]], int]:
    """sympy's round_two on the monic integer polynomial h (lowest-first):
    (its module's basis as Fraction columns in the power basis, its dK).
    It is wrong on some inputs with large indices: it raises ClosureFailure
    or returns a module that is not an order."""
    module, disc = round_two(Poly([int(c) for c in h[::-1]], symbols("t"), domain=ZZ))
    cols = module.QQ_matrix.transpose().to_list()
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in c] for c in cols], int(disc)


def _companion_powers(h) -> list:
    """The matrices of multiplication by t^0 .. t^(n-1) on the power basis
    of Q[t]/(h), as integer lists of rows."""
    n = len(h) - 1
    comp = [[0] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = 1
    for i in range(n):
        comp[i][n - 1] = -int(h[i])
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(1, n):
        last = powers[-1]
        powers.append([[sum(comp[i][m] * last[m][j] for m in range(n)) for j in range(n)]
                       for i in range(n)])
    return powers


def is_algebraic_integer(h, elt, powers=None) -> bool:
    """Is the element with Fraction power-basis coordinates elt integral,
    that is, is its characteristic polynomial in Z[t]?"""
    n = len(h) - 1
    powers = powers or _companion_powers(h)
    den = math.lcm(*(Fraction(x).denominator for x in elt))
    num = [int(Fraction(x) * den) for x in elt]
    # den * elt acts by an integer matrix a; the charpoly of a / den has
    # integer coefficients iff den^(n-k) divides the t^k coefficient of a's
    mat = [[sum(num[k] * powers[k][i][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    coeffs = DomainMatrix.from_list(mat, ZZ).charpoly()  # highest first
    return all(int(c) % den ** k == 0 for k, c in enumerate(coeffs))


def is_p_maximal(h, basis, p: int) -> bool:
    """Brute force: is the order spanned by basis (Fraction power-basis
    vectors) p-maximal?  It is unless some class of (1/p)O/O other than 0
    holds an algebraic integer x / p.  x runs over O/pO up to the units of
    F_p (x / p is integral iff c x / p is, for c prime to p): (p^n - 1) /
    (p - 1) classes."""
    n = len(basis)
    powers = _companion_powers(h)
    for lead in range(n):
        # the classes whose first nonzero coordinate is a 1 at lead
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            coords = [0] * lead + [1] + list(tail)
            elt = [sum(c * b[i] for c, b in zip(coords, basis)) / p for i in range(n)]
            if is_algebraic_integer(h, elt, powers):
                return False
    return True
