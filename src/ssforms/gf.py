"""Exact arithmetic in F_nu, F_p, F_{p^2}, and univariate polynomials over them.

Two polynomial layers live here:

* a generic dense-list layer that works over any field context, used only
  by the ell=2 graph walk (Phi_2(j, y) has degree 3 in y; T_ell for ell >= 3
  is built by evaluating at known vertices, see `ssgraph.hecke_matrix`), and
* a numpy-backed layer over a single-word prime field with quasi-linear
  multiplication (NTT + 2-prime CRT above a crossover degree), used for the
  long polynomials of the charpoly and sieve stages.

Field elements are plain ints (prime field) or (a, b) tuples (quadratic
extension, meaning a + b*xi with xi^2 = nonresidue).
"""

from __future__ import annotations

import numpy as np

# Single machine-word safety threshold: moduli above this are rejected by the
# pipeline.  The NTT/CRT product bound is checked separately at multiply time.
MAX_MODULUS = 2**30


class ModulusError(ValueError):
    pass


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod the odd prime p."""
    if p < 3:
        raise ModulusError("need an odd prime")
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ModulusError(f"{p} is not an odd prime")


class PrimeFieldCtx:
    """Arithmetic context for F_p with p an odd single-word prime."""

    def __init__(self, p: int, check_prime: bool = True):
        if p > MAX_MODULUS:
            raise ModulusError(f"modulus {p} exceeds word-size threshold {MAX_MODULUS}")
        if check_prime and not _is_probable_prime(p):
            raise ModulusError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def legendre(self, a) -> int:
        """Euler criterion: +1 residue, -1 nonresidue, 0 for a = 0."""
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    @property
    def order(self) -> int:
        return self.p

    def random(self, rng):
        return int(rng.integers(0, self.p))

    def conj(self, a):
        return a % self.p

    def __repr__(self):
        return f"PrimeFieldCtx({self.p})"


class QuadExtCtx:
    """F_{p^2} = F_p(xi) with xi^2 = n a nonresidue, so xi^sigma = -xi.

    Elements are (a, b) tuples meaning a + b*xi; Galois conjugation is
    (a, b) -> (a, -b) and an element is F_p-rational iff b = 0.
    """

    def __init__(self, base: PrimeFieldCtx, nonresidue: int | None = None):
        self.base = base
        self.p = base.p
        n = find_nonresidue(self.p) if nonresidue is None else nonresidue
        if base.legendre(n) != -1:
            raise ModulusError(f"{n} is a square mod {self.p}")
        self.n = n % self.p
        self.zero = (0, 0)
        self.one = (1 % self.p, 0)
        self.xi = (0, 1)

    @property
    def order(self) -> int:
        return self.p * self.p

    def embed(self, a: int):
        return (a % self.p, 0)

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x, y):
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def neg(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def mul(self, x, y):
        p = self.p
        a, b = x
        c, d = y
        return ((a * c + self.n * b * d) % p, (a * d + b * c) % p)

    def is_zero(self, x):
        return x[0] % self.p == 0 and x[1] % self.p == 0

    def conj(self, x):
        return (x[0] % self.p, -x[1] % self.p)

    def is_rational(self, x) -> bool:
        return x[1] % self.p == 0

    def norm(self, x) -> int:
        """x * x^sigma, an element of F_p."""
        a, b = x
        return (a * a - self.n * b * b) % self.p

    def trace(self, x) -> int:
        return 2 * x[0] % self.p

    def inv(self, x):
        nrm = self.norm(x)
        if nrm == 0:
            raise ZeroDivisionError("inverse of 0 in F_{p^2}")
        s = pow(nrm, -1, self.p)
        a, b = x
        return (a * s % self.p, -b * s % self.p)

    def pow(self, x, e: int):
        if e < 0:
            return self.pow(self.inv(x), -e)
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def random(self, rng):
        return (int(rng.integers(0, self.p)), int(rng.integers(0, self.p)))


def field_sqrt(ctx, a, rng):
    """Tonelli-Shanks square root in the field of ctx; None when a is a nonsquare."""
    if ctx.is_zero(a):
        return ctx.zero
    q = ctx.order
    if ctx.pow(a, (q - 1) // 2) != ctx.one:
        return None
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # find a nonresidue of the full field
    while True:
        z = ctx.random(rng)
        if not ctx.is_zero(z) and ctx.pow(z, (q - 1) // 2) != ctx.one:
            break
    c = ctx.pow(z, t)
    x = ctx.pow(a, (t + 1) // 2)
    b = ctx.pow(a, t)
    m = s
    while b != ctx.one:
        # find least i with b^(2^i) = 1
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


# ---------------------------------------------------------------------------
# Generic dense polynomials (small degree). Coefficients lowest-first.
# ---------------------------------------------------------------------------


def poly_trim(f, ctx):
    while f and ctx.is_zero(f[-1]):
        f = f[:-1]
    return f


def poly_deg(f) -> int:
    return len(f) - 1


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
    """All roots of f in ctx's field, with multiplicity.

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
        # direct quadratic formula keeps the graph walk off the Frobenius path
        b, c = f[1], f[0]
        disc = ctx.sub(ctx.mul(b, b), ctx.mul(ctx.add(c, c), ctx.add(ctx.one, ctx.one)))
        inv2 = ctx.inv(ctx.add(ctx.one, ctx.one))
        if ctx.is_zero(disc):
            r = ctx.mul(ctx.neg(b), inv2)
            return [r, r]
        s = field_sqrt(ctx, disc, rng)
        if s is None:
            return []
        return [ctx.mul(ctx.sub(s, b), inv2), ctx.mul(ctx.sub(ctx.neg(b), s), inv2)]
    q = ctx.order
    xq = poly_powmod([ctx.zero, ctx.one], q, f, ctx)
    lin = poly_gcd(poly_sub(xq, [ctx.zero, ctx.one], ctx), f, ctx)
    distinct = _split_linear(lin, ctx, rng, attempt_cap)
    roots = []
    for r in distinct:
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
    d = poly_deg(f)
    if d <= 0:
        return []
    if d == 1:
        return [ctx.neg(f[0])]
    if d == 2:
        # quadratic formula; the field has odd characteristic
        b, a = f[1], f[0]
        two_inv = ctx.inv(ctx.add(ctx.one, ctx.one))
        disc = ctx.sub(ctx.mul(b, b), ctx.mul(ctx.add(a, a), ctx.add(ctx.one, ctx.one)))
        s = field_sqrt(ctx, disc, rng)
        if s is None:
            raise ArithmeticError("squarefree split part must split")
        r1 = ctx.mul(ctx.sub(s, b), two_inv)
        r2 = ctx.mul(ctx.sub(ctx.neg(b), s), two_inv)
        return [r1, r2]
    e = (ctx.order - 1) // 2
    for _ in range(attempt_cap):
        a = ctx.random(rng)
        probe = poly_powmod([a, ctx.one], e, f, ctx)
        g = poly_gcd(poly_sub(probe, [ctx.one], ctx), f, ctx)
        if 0 < poly_deg(g) < d:
            other = poly_divrem(f, g, ctx)[0]
            return _split_linear(g, ctx, rng, attempt_cap) + _split_linear(
                other, ctx, rng, attempt_cap
            )
    raise ArithmeticError(f"equal-degree splitting stalled after {attempt_cap} attempts")


# ---------------------------------------------------------------------------
# numpy-backed polynomials over F_m (single-word prime m), lowest-first int64.
# ---------------------------------------------------------------------------

_NTT_PRIMES = ((998244353, 3), (1004535809, 3))
_CRT_P1, _CRT_P2 = _NTT_PRIMES[0][0], _NTT_PRIMES[1][0]
_CRT_P1_INV = pow(_CRT_P1, -1, _CRT_P2)
# schoolbook np.convolve beats the two-prime NTT up to about 3500 terms at
# nu = 999983 (2-core x86, numpy 2.4: 5.7-8.8 ms against 10.6 ms at 3072
# terms, 10.5-16.1 ms against 9.5-10.9 ms at 4096)
NTT_CROSSOVER = 3072

_root_cache: dict[tuple[int, int], np.ndarray] = {}
_bitrev_cache: dict[int, np.ndarray] = {}


def _ntt_roots(P: int, g: int, length: int, inverse: bool) -> np.ndarray:
    key = (P, length if not inverse else -length)
    got = _root_cache.get(key)
    if got is not None:
        return got
    w = pow(g, (P - 1) // length, P)
    if inverse:
        w = pow(w, -1, P)
    roots = np.empty(length // 2, dtype=np.int64)
    acc = 1
    for i in range(length // 2):
        roots[i] = acc
        acc = acc * w % P
    _root_cache[key] = roots
    return roots


def _bit_reversal(n: int) -> np.ndarray:
    rev = _bitrev_cache.get(n)
    if rev is None:
        idx = np.arange(n)
        rev = np.zeros(n, dtype=np.int64)
        bits = n.bit_length() - 1
        for b in range(bits):
            rev |= ((idx >> b) & 1) << (bits - 1 - b)
        _bitrev_cache[n] = rev
    return rev


def _ntt(a: np.ndarray, P: int, g: int, inverse: bool) -> np.ndarray:
    n = len(a)
    a = a[_bit_reversal(n)]
    size = 2
    while size <= n:
        half = size // 2
        roots = _ntt_roots(P, g, size, inverse)
        blocks = a.reshape(-1, size)
        u = blocks[:, :half].copy()
        v = blocks[:, half:] * roots % P
        blocks[:, :half] = (u + v) % P
        blocks[:, half:] = (u - v) % P
        a = blocks.reshape(-1)
        size *= 2
    if inverse:
        a = a * pow(n, -1, P) % P
    return a


def npoly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def npoly_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Product of two coefficient arrays mod m, quasi-linear above the crossover."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    out_len = len(a) + len(b) - 1
    if min(len(a), len(b)) <= NTT_CROSSOVER:
        if out_len * (m - 1) * (m - 1) < 2**62:
            return np.convolve(a, b) % m
        # rare huge-modulus schoolbook: fall through to NTT
    size = 1
    while size < out_len:
        size *= 2
    if size * (m - 1) * (m - 1) >= _CRT_P1 * _CRT_P2:
        raise ModulusError("product exceeds 2-prime CRT capacity")
    res = []
    for P, g in _NTT_PRIMES:
        fa = np.zeros(size, dtype=np.int64)
        fb = np.zeros(size, dtype=np.int64)
        fa[: len(a)] = a % P
        fb[: len(b)] = b % P
        ta = _ntt(fa, P, g, False)
        tb = _ntt(fb, P, g, False)
        res.append(_ntt(ta * tb % P, P, g, True))
    r1, r2 = res
    # CRT: x = r1 + P1 * ((r2 - r1) * P1^-1 mod P2), then reduce mod m
    t = (r2 - r1) * _CRT_P1_INV % _CRT_P2
    x = (r1 % m + (_CRT_P1 % m) * (t % m)) % m
    return x[:out_len]


def npoly_divrem(a: np.ndarray, b: np.ndarray, m: int):
    """Schoolbook Euclidean division mod m (used off the hot path)."""
    b = npoly_trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = npoly_trim(a.copy())
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
    return q, npoly_trim(a[:db])


class NPolyModCtx:
    """Repeated multiplication mod a fixed monic f over F_m, with a
    precomputed Newton inverse of the reversed modulus for fast reduction."""

    def __init__(self, f: np.ndarray, m: int):
        f = npoly_trim(np.asarray(f, dtype=np.int64) % m)
        if len(f) == 0:
            raise ZeroDivisionError("zero modulus")
        if int(f[-1]) != 1:
            f = f * pow(int(f[-1]), -1, m) % m
        self.f = f
        self.m = m
        self.n = len(f) - 1
        rev = f[::-1].copy()
        self.rev_inv = _npoly_series_inv(rev, self.n, m) if self.n > 0 else None

    def reduce(self, a: np.ndarray) -> np.ndarray:
        a = npoly_trim(np.asarray(a, dtype=np.int64) % self.m)
        n, m = self.n, self.m
        if len(a) <= n:
            out = np.zeros(n, dtype=np.int64)
            out[: len(a)] = a
            return out
        k = len(a) - 1 - n  # degree of quotient
        if k + 1 > len(self.rev_inv):
            self.rev_inv = _npoly_series_inv(self.f[::-1].copy(), k + 1, m)
        ra = a[::-1][: k + 1]
        q_rev = npoly_mul(ra, self.rev_inv[: k + 1], m)[: k + 1]
        q = q_rev[::-1]
        qf = npoly_mul(q, self.f, m)
        r = (a[:n] - qf[:n]) % m
        out = np.zeros(n, dtype=np.int64)
        out[: len(r)] = r
        return out

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(npoly_mul(npoly_trim(a), npoly_trim(b), self.m))

    def powmod(self, a: np.ndarray, e: int) -> np.ndarray:
        r = np.zeros(self.n if self.n > 0 else 1, dtype=np.int64)
        r[0] = 1
        a = self.reduce(a)
        while e:
            if e & 1:
                r = self.mulmod(r, a)
            a = self.mulmod(a, a)
            e >>= 1
        return r


def _npoly_series_inv(a: np.ndarray, prec: int, m: int) -> np.ndarray:
    """Power-series inverse of a (a[0] invertible) to prec terms via Newton."""
    if prec <= 0:
        return np.zeros(0, dtype=np.int64)
    x = np.array([pow(int(a[0]), -1, m)], dtype=np.int64)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        ax = npoly_mul(a[:k], x, m)[:k]
        ax = (-ax) % m
        if len(ax):
            ax[0] = (ax[0] + 2) % m
        t = npoly_mul(x, ax, m)[:k]
        x = t
    return x


def npoly_gcd(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    a, b = npoly_trim(a.copy()), npoly_trim(b.copy())
    while len(b):
        a, b = b, npoly_divrem(a, b, m)[1]
    a = npoly_trim(a)
    if len(a):
        a = a * pow(int(a[-1]), -1, m) % m
    return a


def npoly_eval(a: np.ndarray, x: int, m: int) -> int:
    acc = 0
    for c in a[::-1]:
        acc = (acc * x + int(c)) % m
    return acc


def npoly_lcm(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    g = npoly_gcd(a, b, m)
    q = npoly_divrem(a, g, m)[0]
    out = npoly_mul(q, b, m)
    return _npoly_monic(out, m)


def npoly_derivative(a: np.ndarray, m: int) -> np.ndarray:
    if len(a) <= 1:
        return a[:0]
    return npoly_trim(a[1:] * (np.arange(1, len(a), dtype=np.int64) % m) % m)


def _npoly_monic(a: np.ndarray, m: int) -> np.ndarray:
    a = npoly_trim(a)
    if len(a) and int(a[-1]) != 1:
        a = a * pow(int(a[-1]), -1, m) % m
    return a


def npoly_squarefree_decomposition(f: np.ndarray, m: int) -> list[tuple[np.ndarray, int]]:
    """Yun's algorithm; valid because our moduli exceed every degree in play."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    if len(f) - 1 >= m:
        raise ModulusError("squarefree decomposition needs characteristic > degree")
    out = []
    g = npoly_gcd(f, npoly_derivative(f, m), m)
    w = npoly_divrem(f, g, m)[0]
    i = 1
    while len(w) > 1:
        y = npoly_gcd(w, g, m)
        z = npoly_divrem(w, y, m)[0]
        if len(z) > 1:
            out.append((_npoly_monic(z, m), i))
        w = y
        g = npoly_divrem(g, y, m)[0]
        i += 1
    return out


def npoly_distinct_degree(f: np.ndarray, m: int,
                          max_degree: int | None = None) -> list[tuple[np.ndarray, int]]:
    """Distinct-degree factorization of a squarefree monic f over F_m:
    returns (product of all irreducible factors of degree d, d) pairs.
    With ``max_degree`` only the pairs with d <= max_degree are computed and
    the factors of higher degree are dropped."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
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
        ctx = NPolyModCtx(f, m)
        h = ctx.powmod(h, m)
        diff = npoly_trim((h - ctx.reduce(x)) % m)
        g = npoly_gcd(diff, f, m)
        if len(g) > 1:
            out.append((g, d))
            f = npoly_divrem(f, g, m)[0]
            h = npoly_divrem(h, f, m)[1] if len(f) > 1 else h
    return out


def npoly_equal_degree_split(f: np.ndarray, d: int, m: int, rng,
                             attempt_cap: int = 64) -> list[np.ndarray]:
    """Cantor-Zassenhaus: split a product of degree-d irreducibles."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n == d:
        return [f]
    e = (pow(m, d) - 1) // 2
    for _ in range(attempt_cap):
        a = np.array(rng.integers(0, m, n), dtype=np.int64)
        if not a.any():
            continue
        ctx = NPolyModCtx(f, m)
        t = ctx.powmod(a, e)
        t = npoly_trim(t)
        if len(t) == 0:
            continue
        t = t.copy()
        t[0] = (t[0] - 1) % m
        g = npoly_gcd(npoly_trim(t), f, m)
        if 0 < len(g) - 1 < n:
            rest = npoly_divrem(f, g, m)[0]
            return npoly_equal_degree_split(g, d, m, rng, attempt_cap) + \
                npoly_equal_degree_split(rest, d, m, rng, attempt_cap)
    raise ArithmeticError(f"equal-degree splitting stalled after {attempt_cap} attempts")


def npoly_rabin_irreducible(f: np.ndarray, m: int) -> bool:
    """Rabin's irreducibility test over F_m."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    ctx = NPolyModCtx(f, m)
    x = np.array([0, 1], dtype=np.int64)
    # prime divisors of n
    ps = []
    nn = n
    q = 2
    while q * q <= nn:
        if nn % q == 0:
            ps.append(q)
            while nn % q == 0:
                nn //= q
        q += 1
    if nn > 1:
        ps.append(nn)
    # x^(m^n) == x mod f
    h = ctx.reduce(x)
    frob = {0: h}
    for k in range(1, n + 1):
        h = ctx.powmod(h, m)
        frob[k] = h
    top = npoly_trim((frob[n] - ctx.reduce(x)) % m)
    if len(top):
        return False
    for q in ps:
        diff = npoly_trim((frob[n // q] - ctx.reduce(x)) % m)
        g = npoly_gcd(diff, f, m)
        if len(g) - 1 != 0:
            return False
    return True


def npoly_linear_roots(f: np.ndarray, m: int, rng) -> list[int]:
    """Distinct roots of f in F_m."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    if len(f) - 1 <= 0:
        return []
    if len(f) - 1 <= 2:
        return _small_roots(f, m, rng)
    ctx = NPolyModCtx(f, m)
    xm = ctx.powmod(np.array([0, 1], dtype=np.int64), m)
    xm = npoly_trim(xm)
    diff = xm.copy() if len(xm) else np.zeros(0, dtype=np.int64)
    if len(diff) < 2:
        d2 = np.zeros(2, dtype=np.int64)
        d2[: len(diff)] = diff
        diff = d2
    diff[1] = (diff[1] - 1) % m
    lin = npoly_gcd(npoly_trim(diff), f, m)
    if len(lin) - 1 <= 0:
        return []
    if len(lin) - 1 <= 2:
        return _small_roots(lin, m, rng)
    factors = npoly_equal_degree_split(lin, 1, m, rng)
    return sorted((-int(g[0])) % m for g in factors)


def _small_roots(f: np.ndarray, m: int, rng) -> list[int]:
    d = len(f) - 1
    if d == 1:
        return [(-int(f[0])) * pow(int(f[1]), -1, m) % m]
    a, b, c = int(f[2]), int(f[1]), int(f[0])
    disc = (b * b - 4 * a * c) % m
    fld = PrimeFieldCtx(m, check_prime=False)
    s = field_sqrt(fld, disc, rng)
    if s is None:
        return []
    inv2a = pow(2 * a, -1, m)
    r1 = (-b + s) * inv2a % m
    r2 = (-b - s) * inv2a % m
    return sorted({r1, r2})
