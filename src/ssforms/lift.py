"""Factor detection, integer eigenbases and orbit separation for the
low-dimension factors of a Hecke charpoly.

The eigenvalue candidates are the monic integer irreducible polynomials of
degree <= 6 whose roots are all real with absolute value <= 2*sqrt(2) (every
minimal polynomial of a weight-2 level-p a_2 is one).  ``detect_factors``
finds the candidates dividing chi mod nu without listing them: it factors
chi mod nu into irreducibles of degree <= 6, lifts every product of total
degree <= 6 whose coefficients fit the Weil box, and keeps the lifts that an
exact Sturm count and a factorization over Z certify.

``enumerate_candidates`` lists all candidates instead (derivative chain with
floating sign conditions, exact Sturm certificate, trial-division
irreducibility).  It is a reference enumerator that no production path
calls.

Lifting follows the small-entries heuristic: candidate integer lifts of
F_nu-kernel data are checked exactly over Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import gf, numfield
from .linalg import SparseSignedMatrix

BOUND_SQ = 8  # (2*sqrt(2))^2


class LiftFailure(RuntimeError):
    """Recoverable: the caller switches the auxiliary prime."""


@dataclass
class LiftSearchConfig:
    max_1dim_lifts: int = 50
    column_entry_bound: int = 3
    highdim_attempt_cap: int = 4000
    refresh_every: int = 5
    row_pool_extra: int = 4
    separating_primes: tuple = (3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _surd_sign(a: int, b: int) -> int:
    """Sign of a + b*2*sqrt(2)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs = a * a
    rhs = 8 * b * b
    if lhs == rhs:
        return 0
    bigger_abs_a = lhs > rhs
    return (1 if a > 0 else -1) if bigger_abs_a else (1 if b > 0 else -1)


def _eval_at_bound(poly, sign: int) -> tuple[int, int]:
    """(a, b) with poly(sign * 2*sqrt(2)) = a + b*2*sqrt(2), integer exact."""
    a = 0
    b = 0
    for k, c in enumerate(poly):
        if c == 0:
            continue
        scale = c * (BOUND_SQ ** (k // 2)) * (sign**k)
        if k % 2 == 0:
            a += scale
        else:
            b += scale
    return a, b


def _int_content_strip(p: list[int]) -> list[int]:
    g = 0
    for x in p:
        g = math.gcd(g, abs(x))
    return [x // g for x in p] if g > 1 else p


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b up to a positive scalar (sign pattern preserved)."""
    a = list(a)
    m = b[-1]
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1]
        a = [m * x for x in a]
        k = len(a) - len(b)
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        if m < 0:
            a = [-x for x in a]
        while a and a[-1] == 0:
            a.pop()
        a = _int_content_strip(a)
    return a


def _sturm_chain(poly: list[int]) -> list[list[int]]:
    chain = [_int_content_strip(list(poly))]
    d = [i * c for i, c in enumerate(poly)][1:]
    if d:
        chain.append(_int_content_strip(d))
    while len(chain[-1]) > 1:
        r = _int_pseudo_rem(chain[-2], chain[-1])
        r = [-x for x in r]
        if not r:
            break
        chain.append(r)
    return chain


def count_real_roots_in_bound(poly) -> int:
    """Distinct real roots of an integer polynomial in [-2*sqrt(2), 2*sqrt(2)],
    exact via Sturm with surd-sign evaluation; boundary roots (only possible
    through the factor t^2 - 8) are counted separately."""
    poly = [int(c) for c in poly]
    extra = 0
    while True:
        a, b = _eval_at_bound(poly, 1)
        if _surd_sign(a, b) != 0:
            break
        q, r = _poly_divmod_int([-8, 0, 1], poly)
        if any(r):
            raise ArithmeticError(f"{poly} vanishes at 2*sqrt(2) but t^2 - 8 does not divide it")
        poly = _fractions_to_int(q)
        extra += 2
        if len(poly) == 1:
            return extra
    chain = _sturm_chain(poly)

    def variations(sign):
        signs = []
        for f in chain:
            a, b = _eval_at_bound(f, sign)
            s = _surd_sign(a, b)
            if s != 0:
                signs.append(s)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return variations(-1) - variations(1) + extra


def _poly_divmod_int(g, f):
    """f divided by g over Q, returned as (quotient, remainder) lists."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        q[k] = c
        for i in range(len(g)):
            f[k + i] -= c * g[i]
        while f and f[-1] == 0:
            f.pop()
    return q, f


def _exact_divides(g, f) -> bool:
    """Does the monic integer polynomial g divide f over Z?"""
    f = [int(x) for x in f]
    g = [int(x) for x in g]
    while len(f) >= len(g):
        c = f[-1]
        if c:
            k = len(f) - len(g)
            for i in range(len(g)):
                f[k + i] -= c * g[i]
        f.pop()
    return not any(f)


def _real_rooted_monics(d: int) -> list[tuple]:
    """Monic integer degree-d polynomials, all roots real in [-B, B]; floats
    generate (derivative-chain sign conditions), exact Sturm certifies.  The
    bottom level (constant term) is vectorized via batched companion
    eigenvalues of the derivative."""
    B = 2 * math.sqrt(2)
    out = []
    pending: list[tuple] = []  # (a_d..a_1) prefixes, highest-first
    chunk = 65536

    def flush():
        prefixes = np.array(pending, dtype=np.int64)
        pending.clear()
        n_rows = len(prefixes)
        f1 = prefixes * np.arange(d, 0, -1)  # derivative f', highest first
        dd = d - 1
        comp = np.zeros((n_rows, dd, dd))
        comp[:, np.arange(1, dd), np.arange(0, dd - 1)] = 1.0
        comp[:, 0, :] = -f1[:, 1:] / f1[:, 0:1]
        eig = np.linalg.eigvals(comp)
        real_ok = np.abs(eig.imag).max(axis=1) < 1e-6
        crit = np.sort(eig.real, axis=1)
        pts = np.concatenate(
            [np.full((n_rows, 1), -B), crit, np.full((n_rows, 1), B)], axis=1
        )
        # f without constant term evaluated at the d+1 points
        base = np.zeros_like(pts)
        for c in prefixes.T:
            base = base * pts + c[:, None]
        base = base * pts
        want_pos = np.array([(-1) ** (d - idx) > 0 for idx in range(d + 1)])
        lo = np.max(np.where(want_pos, -base, -np.inf), axis=1)
        hi = np.min(np.where(~want_pos, -base, np.inf), axis=1)
        span = 1e-7 * (1 + np.abs(lo) + np.abs(hi))
        lo_i = np.ceil(lo - span - 1e-9).astype(np.int64)
        hi_i = np.floor(hi + span + 1e-9).astype(np.int64)
        for r in range(n_rows):
            if not real_ok[r] or lo_i[r] > hi_i[r]:
                continue
            head = tuple(reversed(prefixes[r].tolist()))  # a_1..a_d lowest-first tail
            for a_0 in range(int(lo_i[r]), int(hi_i[r]) + 1):
                out.append((a_0,) + head)

    def rec(upper, k, crit):
        # F_k(t) = sum_{j>k} a_j (j!/(j-k)!) t^{j-k} + k! * a_k; `fixed` holds
        # the known coefficients of t^{d-k}..t^1, highest first
        fixed = []
        for idx, a in enumerate(upper):
            j = d - idx
            fixed.append(a * math.factorial(j) // math.factorial(j - k))

        def fixed_at(x):
            acc = 0.0
            for c in fixed:
                acc = acc * x + c
            return acc * x

        deg_fk = d - k
        pts = [-B] + crit + [B]
        lo, hi = -math.inf, math.inf
        fk = math.factorial(k)
        for idx, x in enumerate(pts):
            want = (-1) ** (deg_fk - idx)  # sign pattern, +1 at the top end
            base = fixed_at(x)
            if want > 0:
                lo = max(lo, -base / fk - 1e-9)
            else:
                hi = min(hi, -base / fk + 1e-9)
        if lo > hi:
            return
        span = 1e-7 * (1 + abs(lo) + abs(hi))
        for a_k in range(math.ceil(lo - span), math.floor(hi + span) + 1):
            coeffs = upper + (a_k,)
            if k == 0:
                out.append(tuple(reversed(coeffs)))
            elif k == 1:
                pending.append(coeffs)
                if len(pending) >= chunk:
                    flush()
            else:
                arr = fixed + [fk * a_k]
                roots = np.roots(np.array(arr, dtype=float))
                if np.abs(roots.imag).max(initial=0.0) > 1e-6:
                    continue
                rec(coeffs, k - 1, sorted(roots.real.tolist()))

    rec((1,), d - 1, [])
    if pending:
        flush()

    squarefree = []
    repeated = []
    for c in out:
        if count_real_roots_in_bound(list(c)) == d:
            squarefree.append(c)
        elif _boundary_case(list(c), d):
            repeated.append(c)
    return squarefree, repeated


def _boundary_case(poly, d) -> bool:
    """Handle repeated-root polynomials: all roots real in the bound even if
    the distinct count is lower.  Reducible, so they never become candidates,
    but the raw list stays honest for testing."""
    distinct = count_real_roots_in_bound(poly)
    if distinct == d:
        return True
    # squarefree part via gcd with derivative over Q
    der = [i * c for i, c in enumerate(poly)][1:]
    g = _poly_gcd_fraction(poly, der)
    if len(g) == 1:
        return False
    sf, _ = _poly_divmod_int([Fraction(x) / g[-1] for x in g], poly)
    sfl = _fractions_to_int(sf)
    gl = _fractions_to_int([Fraction(x) / g[-1] for x in g])
    if sfl is None or gl is None:
        return False
    return (
        count_real_roots_in_bound(sfl) == len(sfl) - 1
        and (len(gl) == 1 or _boundary_case(gl, len(gl) - 1))
    )


def _fractions_to_int(c):
    out = []
    for x in c:
        x = Fraction(x)
        if x.denominator != 1:
            return None
        out.append(int(x))
    return out


def _poly_mod_fraction(a, b):
    a = [Fraction(x) for x in a]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd_fraction(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while any(b):
        a, b = b, _poly_mod_fraction(a, b)
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


@lru_cache(maxsize=None)
def enumerate_candidates(d: int) -> tuple[tuple, ...]:
    """Monic integer irreducible degree-d polynomials with all roots real in
    [-2*sqrt(2), 2*sqrt(2)], lowest-first coefficient tuples, sorted.

    A reference enumerator: no production path calls it (``detect_factors``
    finds the candidates dividing chi mod nu by factoring).  Degree 6 has
    89,702 entries and takes about a minute."""
    if not 1 <= d <= 6:
        raise ValueError("degree must be between 1 and 6")
    squarefree, _repeated = _real_rooted_monics(d)
    if d == 1:
        return tuple(sorted(squarefree))
    lower = []
    for k in range(1, d // 2 + 1):
        lower.extend(enumerate_candidates(k))
    # a divisor g of f satisfies g(m) | f(m); screen all pairs at a few points
    pts = (0, 1, -1, 2, -2)
    fv = _eval_grid(squarefree, pts)
    gv = _eval_grid(lower, pts)
    mask = np.ones((len(squarefree), len(lower)), dtype=bool)
    for t in range(len(pts)):
        g_col = gv[:, t]
        f_col = fv[:, t]
        safe = np.where(g_col == 0, 1, g_col)
        rem = f_col[:, None] % safe[None, :]
        mask &= np.where(g_col[None, :] == 0, f_col[:, None] == 0, rem == 0)
    out = []
    for i, c in enumerate(squarefree):
        poly = list(c)
        if any(_exact_divides(list(lower[j]), poly) for j in np.nonzero(mask[i])[0]):
            continue
        out.append(c)
    return tuple(sorted(out))


def _eval_grid(polys, pts) -> np.ndarray:
    out = np.zeros((len(polys), len(pts)), dtype=np.int64)
    for r, poly in enumerate(polys):
        for t, m in enumerate(pts):
            out[r, t] = sum(c * m**i for i, c in enumerate(poly))
    return out


# ---------------------------------------------------------------------------
# Factor detection in chi_nu
# ---------------------------------------------------------------------------


def detect_factors(chi: np.ndarray, nu: int, g_max: int = 6) -> list[tuple[tuple, int]]:
    """The eigenvalue candidates (see the module docstring) of degree
    <= g_max that divide chi mod nu, with their multiplicities mod nu,
    sorted by (degree, coefficients).

    Every candidate's coefficients lie in the Weil box, so its reduction is
    a product of irreducible factors of chi mod nu of total degree <= g_max,
    and it is a lift of that product into the box: the only one when
    nu > 2 * 1086, one of several for smaller nu.  The factors come from
    Yun's squarefree decomposition, distinct-degree factorization cut off at
    g_max and equal-degree splitting (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 14).  The splitting draws from a generator seeded
    by nu, so the caller's random stream is left alone."""
    rng = np.random.default_rng(nu)
    factors = []
    for sf, mult in gf.npoly_squarefree_decomposition(chi, nu):
        for prod, d in gf.npoly_distinct_degree(sf, nu, max_degree=g_max):
            factors.extend((g, mult) for g in gf.npoly_equal_degree_split(prod, d, nu, rng))
    # products of every sub-multiset of the factors with degree <= g_max
    products = [np.ones(1, dtype=np.int64)]
    for g, mult in factors:
        grown = []
        for prod in products:
            for _ in range(mult):
                if len(prod) + len(g) - 2 > g_max:
                    break
                prod = np.convolve(prod, g) % nu
                grown.append(prod)
        products += grown
    found = []
    for prod in products[1:]:
        for rho in _weil_box_lifts(prod, nu):
            d = len(rho) - 1
            if count_real_roots_in_bound(rho) != d or len(factor_real_rooted(list(rho))) != 1:
                continue
            g = np.array(rho, dtype=np.int64) % nu
            mult = 0
            rem = chi
            while True:
                q, r = gf.npoly_divrem(rem, g, nu)
                if len(r):
                    break
                mult += 1
                rem = q
            found.append((rho, mult))
    return sorted(found, key=lambda f: (len(f[0]), f[0]))


def _weil_box_lifts(g: np.ndarray, nu: int) -> list[tuple]:
    """Monic integer polynomials congruent to the monic g mod nu whose
    coefficient of t^k is at most C(d, k) * 8^((d-k)/2) in absolute value,
    as every candidate's is; lowest-first coefficient tuples."""
    d = len(g) - 1
    choices = []
    for k in range(d - 1, -1, -1):  # the top coefficients are the tightest
        bound = math.isqrt(math.comb(d, k) ** 2 * BOUND_SQ ** (d - k))
        lifts = range(-bound + (int(g[k]) + bound) % nu, bound + 1, nu)
        if not lifts:
            return []
        choices.append(lifts)
    return [tuple(reversed(c)) + (1,) for c in itertools.product(*choices)]


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


def _poly_of_matrix_times(m: SparseSignedMatrix, poly: np.ndarray, u: np.ndarray,
                          nu: int) -> np.ndarray:
    """poly(M) u mod nu by Horner in M."""
    v = (int(poly[-1]) * u) % nu
    for c in poly[-2::-1].tolist():
        v = (m.matvec_mod(v, nu) + int(c) * u) % nu
    return v


def _lift_smallest(v: np.ndarray, nu: int) -> np.ndarray:
    w = v % nu
    return np.where(w > nu // 2, w - nu, w).astype(np.int64)


def lift_1dim(m: SparseSignedMatrix, lam: int, mu: np.ndarray, nu: int, rng,
              config: LiftSearchConfig) -> np.ndarray:
    """Integer eigenvector for an integer eigenvalue lam of multiplicity one:
    Horner-evaluate mu/(t - lam) against fresh iterates, then try small
    multiples of the F_nu eigenvector lifted coordinate-wise."""
    lin = np.array([(-lam) % nu, 1], dtype=np.int64)
    q, r = gf.npoly_divrem(mu, lin, nu)
    if len(r):
        raise LiftFailure(f"{lam} is not a root of mu mod {nu}")
    for _ in range(8):
        u = np.array(rng.integers(0, nu, m.n), dtype=np.int64)
        v = _poly_of_matrix_times(m, q, u, nu)
        if v.any():
            break
    else:
        raise LiftFailure("eigenvector projection vanished repeatedly")
    vals, counts = np.unique(v[v != 0], return_counts=True)
    alpha = int(vals[np.argmax(counts)])
    alpha_inv = pow(alpha, -1, nu)
    for c in range(1, config.max_1dim_lifts + 1):
        w = _lift_smallest(v * (c * alpha_inv % nu) % nu, nu)
        if not w.any():
            continue
        if (m.matvec_exact(w) == lam * w).all():
            g = int(np.gcd.reduce(np.abs(w[w != 0])))
            if g != 1:
                raise ArithmeticError(f"lifted eigenvector has content {g}")
            return w
    raise LiftFailure(f"no integer lift among {config.max_1dim_lifts} candidates")


@dataclass
class HighDimLift:
    basis: np.ndarray        # n x m integer kernel basis of rho(T_2)
    s_matrix: list           # m x m integer action of T_sep on the basis
    sep_ell: int
    rho: tuple
    multiplicity: int


def _rank_mod_inc(rows: list[np.ndarray], nu: int) -> int:
    if not rows:
        return 0
    a = np.array(rows, dtype=np.int64) % nu
    from .linalg import _rank_mod

    return _rank_mod(a, nu)


def _shell_columns(m: int, bound: int):
    """Candidate column tuples in {-bound..bound}^m grouped by sum of squares,
    ascending; the zero tuple is skipped."""
    by_size: dict[int, list] = {}
    for tup in itertools.product(range(-bound, bound + 1), repeat=m):
        s = sum(x * x for x in tup)
        if s == 0:
            continue
        by_size.setdefault(s, []).append(tup)
    return [by_size[s] for s in sorted(by_size)]


def lift_highdim(m2: SparseSignedMatrix, rho: tuple, r: int, mu: np.ndarray,
                 nu: int, rng, config: LiftSearchConfig, t_ell_provider,
                 level: int) -> HighDimLift:
    """Find r*deg(rho) independent integer vectors in ker rho(T_2) plus the
    integer matrix of a separating Hecke action on them."""
    d_rho = len(rho) - 1
    mdim = r * d_rho
    n = m2.n
    rho_nu = np.array(rho, dtype=np.int64) % nu
    quot, rem = gf.npoly_divrem(mu, rho_nu, nu)
    if len(rem):
        raise LiftFailure("rho does not divide mu mod nu")

    def fresh_v():
        for _ in range(8):
            u = np.array(rng.integers(0, nu, n), dtype=np.int64)
            v = _poly_of_matrix_times(m2, quot, u, nu)
            if v.any():
                return v
        raise LiftFailure("kernel projection vanished repeatedly")

    v = fresh_v()
    cols = None
    sep_matrix = None
    sep_ell = None
    if r == 1:
        kr = [v]
        for _ in range(d_rho - 1):
            kr.append(m2.matvec_mod(kr[-1], nu))
        if _rank_mod_inc(kr, nu) == mdim:
            cols = np.array(kr, dtype=np.int64).T
            sep_matrix = m2
            sep_ell = 2
    if cols is None:
        tried = 0
        for ell in config.separating_primes:
            if ell == level:
                continue
            t_ell = t_ell_provider(ell)
            kr = [v]
            for _ in range(mdim - 1):
                kr.append(t_ell.matvec_mod(kr[-1], nu))
            if _rank_mod_inc(kr, nu) == mdim:
                cols = np.array(kr, dtype=np.int64).T
                sep_matrix = t_ell
                sep_ell = ell
                break
            tried += 1
            if tried % config.refresh_every == 0:
                v = fresh_v()
        else:
            raise LiftFailure("no separating ell among the bundled primes")

    # most-common independent rows of the Krylov matrix
    rows_unique, counts = np.unique(cols, axis=0, return_counts=True)
    order = np.argsort(-counts)
    pool = []
    pool_freq = []
    kept = []
    for idx in order:
        row = rows_unique[idx]
        if not row.any():
            continue
        if _rank_mod_inc(kept + [row], nu) > len(kept):
            kept.append(row)
            pool.append(row)
            pool_freq.append(int(counts[idx]))
        elif len(kept) == mdim and len(pool) < mdim + config.row_pool_extra:
            pool.append(row)
            pool_freq.append(int(counts[idx]))
        if len(pool) >= mdim + config.row_pool_extra:
            break
    if len(kept) < mdim:
        raise LiftFailure("Krylov matrix has deficient row rank")

    combos = []
    for combo in itertools.combinations(range(len(pool)), mdim):
        size = sum((1.0 / pool_freq[i]) ** 2 for i in combo)
        combos.append((size, combo))
    combos.sort()
    shells = _shell_columns(mdim, config.column_entry_bound)
    shell_sizes = [sum(x * x for x in shell[0]) for shell in shells]

    # ordered walk over (row-combo) x (column-shell) by product of sizes
    import heapq

    heap = []
    for ci, (size, _) in enumerate(combos):
        heapq.heappush(heap, (size * shell_sizes[0], ci, 0))
    inv_cache: dict[int, np.ndarray | None] = {}
    found: list[np.ndarray] = []
    found_rref: list = []
    attempts = 0
    rho_int = [int(x) for x in rho]
    while heap and attempts < config.highdim_attempt_cap:
        _, ci, si = heapq.heappop(heap)
        if si + 1 < len(shells):
            heapq.heappush(heap, (combos[ci][0] * shell_sizes[si + 1], ci, si + 1))
        combo = combos[ci][1]
        rinv = inv_cache.get(ci, "missing")
        if isinstance(rinv, str):
            rmat = np.array([pool[i] for i in combo], dtype=np.int64)
            rinv = _inv_mod(rmat, nu)
            inv_cache[ci] = rinv
        if rinv is None:
            continue
        for ctup in shells[si]:
            attempts += 1
            cvec = np.array(ctup, dtype=np.int64) % nu
            lcomb = rinv @ cvec % nu
            w = _lift_smallest(cols @ lcomb % nu, nu)
            if not w.any():
                continue
            if not _in_integer_kernel(m2, rho_int, w):
                continue
            if _fraction_rank_add(found_rref, w):
                found.append(w)
                if len(found) == mdim:
                    basis = np.array(found, dtype=object).T
                    s = _action_matrix(sep_matrix, basis, mdim)
                    return HighDimLift(basis, s, sep_ell, rho, r)
    raise LiftFailure(
        f"kernel search exhausted {attempts} candidates with {len(found)}/{mdim} found"
    )


def _inv_mod(a: np.ndarray, nu: int):
    n = a.shape[0]
    aug = np.concatenate([a % nu, np.eye(n, dtype=np.int64)], axis=1)
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if aug[i, c] % nu:
                piv = i
                break
        if piv is None:
            return None
        aug[[r, piv]] = aug[[piv, r]]
        aug[r] = aug[r] * pow(int(aug[r, c]), -1, nu) % nu
        for i in range(n):
            if i != r and aug[i, c]:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % nu
        r += 1
    return aug[:, n:]


def _in_integer_kernel(m2: SparseSignedMatrix, rho: list, w: np.ndarray) -> bool:
    acc = rho[-1] * w.astype(np.int64)
    for c in rho[-2::-1]:
        acc = m2.matvec_exact(acc) + c * w
    return not np.asarray(acc).any()


def _fraction_rank_add(rref_rows: list, w: np.ndarray) -> bool:
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


def _action_matrix(t_mat: SparseSignedMatrix, basis: np.ndarray, mdim: int) -> list:
    """Integer matrix S with T basis = basis S; saturates the lattice when the
    first solve comes out fractional."""
    basis_cols = [np.array([int(x) for x in basis[:, j]], dtype=np.int64)
                  for j in range(mdim)]
    for _ in range(6):
        s, integral = _solve_action(t_mat, basis_cols)
        if integral:
            for j in range(mdim):
                basis[:, j] = basis_cols[j]
            return s
        # enlarge toward the saturation: L + T(L), reduced by integer HNF
        stacked = [c.copy() for c in basis_cols]
        stacked += [np.asarray(t_mat.matvec_exact(c), dtype=object) for c in basis_cols]
        basis_cols = _hnf_reduce_rows(stacked, mdim)
    raise LiftFailure("lattice saturation did not stabilize")


def _solve_action(t_mat: SparseSignedMatrix, basis_cols: list):
    mdim = len(basis_cols)
    n = len(basis_cols[0])
    bmat = [[Fraction(int(basis_cols[j][i])) for j in range(mdim)] for i in range(n)]
    images = [t_mat.matvec_exact(c) for c in basis_cols]
    # pick mdim independent rows
    sel = []
    rref: list = []
    for i in range(n):
        if _fraction_rank_add(rref, np.array([bmat[i][j] for j in range(mdim)], dtype=object)):
            sel.append(i)
        if len(sel) == mdim:
            break
    a = [[bmat[i][j] for j in range(mdim)] for i in sel]
    s = []
    integral = True
    for j in range(mdim):
        rhs = [Fraction(int(images[j][i])) for i in sel]
        col = numfield._solve_fraction(a, rhs)
        if any(x.denominator != 1 for x in col):
            integral = False
        s.append(col)
    # S[:, j] = coefficients of image j: transpose to row-major S
    smat = [[s[j][i] for j in range(mdim)] for i in range(mdim)]
    if integral:
        smat = [[int(x) for x in row] for row in smat]
    return smat, integral


def _hnf_reduce_rows(rows: list, want: int) -> list:
    """Row-style HNF of integer vectors; returns `want` basis vectors of the
    lattice they span."""
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


# ---------------------------------------------------------------------------
# Orbit separation
# ---------------------------------------------------------------------------


@dataclass
class GaloisOrbit:
    level: int
    block: str                     # "plus" or "minus"
    rho: tuple                     # minimal polynomial of a_2
    multiplicity: int
    dim: int
    field_poly: tuple              # minimal polynomial of the separating a_ell
    basis: list                    # integer eigenbasis vectors (ambient coords)
    eigenvector: list              # one simultaneous eigenvector over the field
    sep_ell: int
    field: object = None           # numfield.NumberField (None for dim 1)


def factor_real_rooted(poly: list) -> list[list[int]]:
    """Irreducible monic integer factors of a squarefree real-rooted monic
    integer polynomial: float root subsets propose factors, exact division
    certifies, recursion completes."""
    d = len(poly) - 1
    if d <= 1:
        return [poly]
    roots = np.roots(np.array(poly[::-1], dtype=float))
    if np.abs(roots.imag).max(initial=0.0) >= 1e-4:
        raise ValueError(f"{poly} is not real-rooted")
    roots = sorted(roots.real.tolist())
    for size in range(1, d // 2 + 1):
        for combo in itertools.combinations(range(d), size):
            sub = [roots[i] for i in combo]
            coeffs = np.poly(sub)  # highest-first floats
            cand = [round(c) for c in coeffs[::-1]]
            if max(abs(c - rc) for c, rc in zip(coeffs[::-1], cand)) > 1e-2:
                continue
            cand[-1] = 1
            if _exact_divides(cand, poly):
                q, _ = _poly_divmod_int(cand, poly)
                qi = _fractions_to_int(q)
                return factor_real_rooted(cand) + factor_real_rooted(qi)
    return [poly]


def separate_orbits(lift: HighDimLift, level: int, block: str) -> list[GaloisOrbit]:
    """Split the integer kernel basis into per-orbit eigenbases using the
    factorization of the separating action's characteristic polynomial."""
    s = lift.s_matrix
    mdim = len(s)
    chi_s = numfield.rational_charpoly(s)
    der = [i * c for i, c in enumerate(chi_s)][1:]
    g = _poly_gcd_fraction(chi_s, der)
    if len(g) != 1:
        raise ArithmeticError("chi_S is not squarefree; separating ell failed")
    factors = factor_real_rooted(chi_s)
    orbits = []
    for h in sorted(factors):
        dh = len(h) - 1
        # integer kernel basis of h(S)
        hs = _int_poly_of_matrix(s, h)
        kb = numfield.kernel_basis(None, [[Fraction(x) for x in row] for row in hs], mdim)
        if len(kb) != dh:
            raise ArithmeticError("kernel dimension mismatch")
        kb_int = [_primitive_int(v) for v in kb]
        basis_vecs = []
        for v in kb_int:
            w = _combine_int(lift.basis, v)
            gcd = int(np.gcd.reduce([abs(int(x)) for x in w if x != 0]))
            basis_vecs.append([int(x) // gcd for x in w])
        if dh == 1:
            a_ell = -h[0]
            eig = [[Fraction(int(x))] for x in basis_vecs[0]]
            orbits.append(GaloisOrbit(level, block, lift.rho, lift.multiplicity,
                                      1, tuple(h), basis_vecs, eig, lift.sep_ell, None))
            continue
        field = numfield.NumberField(h)
        theta = field.gen
        mat = [[field.elt([s[i][j]]) for j in range(mdim)] for i in range(mdim)]
        for i in range(mdim):
            mat[i][i] = field.sub(mat[i][i], theta)
        xs = numfield.kernel_basis(field, mat, mdim)
        if not xs:
            raise ArithmeticError("no eigenvector over the Hecke field")
        x = xs[0]
        # clear denominators to integer-coefficient field elements
        e = []
        for i in range(lift.basis.shape[0]):
            acc = field.zero
            for j in range(mdim):
                acc = field.add(acc, field.scale(x[j], int(lift.basis[i, j])))
            e.append(list(acc))
        e = _clear_field_vector(e)
        orbits.append(GaloisOrbit(level, block, lift.rho, lift.multiplicity,
                                  dh, tuple(h), basis_vecs, e, lift.sep_ell, field))
    return orbits


def _int_poly_of_matrix(s: list, poly: list) -> list:
    mdim = len(s)
    acc = [[0] * mdim for _ in range(mdim)]
    for i in range(mdim):
        acc[i][i] = poly[-1]
    for c in poly[-2::-1]:
        acc = [[sum(s[i][k] * acc[k][j] for k in range(mdim)) for j in range(mdim)]
               for i in range(mdim)]
        for i in range(mdim):
            acc[i][i] += c
    return acc


def _primitive_int(v: list) -> list:
    from math import gcd, lcm

    den = 1
    for x in v:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


def _combine_int(basis: np.ndarray, coeffs: list) -> list:
    n = basis.shape[0]
    return [sum(int(basis[i, j]) * coeffs[j] for j in range(len(coeffs))) for i in range(n)]


def _clear_field_vector(e: list) -> list:
    from math import gcd, lcm

    den = 1
    for comp in e:
        for x in comp:
            den = lcm(den, Fraction(x).denominator)
    out = [[Fraction(x) * den for x in comp] for comp in e]
    g = 0
    for comp in out:
        for x in comp:
            g = gcd(g, abs(int(x)))
    if g > 1:
        out = [[x / g for x in comp] for comp in out]
    return out
