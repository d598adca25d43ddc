"""Exact arithmetic in F_nu, F_p, F_{p^2}, and univariate polynomials over F_m.

One polynomial layer lives here: numpy int64 coefficient arrays over a
single-word prime field, used for the long polynomials of the charpoly and
sieve stages.  `npoly_mul` has three exact paths, chosen by the length of
the shorter factor: int64 np.convolve for short factors while the sums fit
in int64; float64 np.convolve up to NTT_CROSSOVER terms while
min(len a, len b) * (m - 1)^2 < 2^53, where every partial sum is an integer
that float64 holds exactly; and otherwise `_fft_mul`, float64 FFTs of
10-bit limbs, whose rounding error stays below 1/2 for every modulus up to
MAX_MODULUS and products of up to 2^21 terms (the bound, and its one
assumption on numpy's twiddle factors, are in its docstring).  Over F_{p^2}
the package only ever solves quadratics, in the ell=2 graph walk, and
`poly_roots` does that with one square root.

The Frobenius a -> a^m mod f is F_m-linear, so `NPolyModCtx.frobenius`
builds its matrix Q (row i is x^(i*m) mod f) once repeated calls would cost
more than that, and then maps a to a @ Q.  Rabin's test and equal-degree
splitting iterate it instead of paying a full `powmod` per step.
`NPolyComposer` computes a(g) mod f for a fixed g by Brent and Kung's
modular composition: a table of g^0 .. g^(s-1), s = ceil(sqrt(n)), O(n^1.5)
memory, one block product per call, exact in float64 while
s * (m - 1)^2 < 2^53 and through `dot_mod` above, and ceil(n / s) mulmods.
Distinct-degree factoring takes baby steps h_i = x^(m^i), i < l ~ sqrt(n/2),
and giant steps H_j = x^(m^(lj)) = H_(j-1)(H_1), with one gcd per giant step
on prod_i (H_j - h_i) (von zur Gathen & Shoup 1992); capped at degree D it
first cuts f to its factors of degree <= D with one gcd.  Both get
h_2, h_3, ... by composition h_(k+1) = h_k(h_1) where a composition step
costs fewer mulmods than a powmod and the first `frobenius` call built no
matrix, and from `frobenius` otherwise, so they build no n x n matrix for a
large input.  `dot_mod` is the one overflow rule for int64 dot products
mod m.

Field elements are plain ints (prime field) or (a, b) tuples (quadratic
extension, meaning a + b*xi with xi^2 = nonresidue).
"""

from __future__ import annotations

import math

import numpy as np

# Single machine-word safety threshold: moduli above this are rejected by the
# pipeline.  Every modulus up to it is exact in `npoly_mul` (three 10-bit limbs
# in `_fft_mul`) and in `dot_mod`.
MAX_MODULUS = 2**30


class ModulusError(ValueError):
    pass


def _int64_terms(m: int) -> int:
    """How many products of two entries in [0, m) an int64 sum can hold."""
    return (2**63 - 1) // (m - 1) ** 2


def dot_mod(a: np.ndarray, x: np.ndarray, m: int):
    """(a @ x) mod m, for a vector or a matrix a, a vector or a matrix x, and
    int64 entries in [0, m).

    A product is at most (m - 1)^2, so a sum of `_int64_terms(m)` =
    (2^63 - 1) // (m - 1)^2 of them fits in int64: one chunk for every length below 2^23 when
    m < 2^20, and 8 terms at m = 2^30 - 35.  Longer sums are split into
    chunks of that many terms, each reduced mod m before they are added."""
    if not 2 <= m <= MAX_MODULUS:
        raise ModulusError(f"modulus {m} is outside [2, {MAX_MODULUS}]")
    chunk = _int64_terms(m)
    if len(x) <= chunk:
        return (a @ x) % m
    return sum((a[..., i : i + chunk] @ x[i : i + chunk]) % m
               for i in range(0, len(x), chunk)) % m


def is_probable_prime(n: int) -> bool:
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
        if check_prime and not is_probable_prime(p):
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

    def norm(self, x) -> int:
        """x * x^sigma, an element of F_p."""
        a, b = x
        return (a * a - self.n * b * b) % self.p

    def trace(self, x) -> int:
        return 2 * x[0] % self.p

    def legendre(self, x) -> int:
        """+1 square, -1 nonsquare, 0 for x = 0.  x^((p^2 - 1)/2) =
        norm(x)^((p - 1)/2), so x is a square in F_{p^2} iff its norm is one
        in F_p."""
        return self.base.legendre(self.norm(x))

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
    """Tonelli-Shanks square root in the field of ctx; None when a is a nonsquare.

    Residuosity is ctx.legendre, which over F_{p^2} is the Legendre symbol of
    the norm.  With x = a^((t+1)/2), b = a^t is taken as x^2 / a."""
    if ctx.is_zero(a):
        return ctx.zero
    if ctx.legendre(a) != 1:
        return None
    t, s = ctx.order - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # find a nonresidue of the full field
    while True:
        z = ctx.random(rng)
        if ctx.legendre(z) == -1:
            break
    c = ctx.pow(z, t)
    x = ctx.pow(a, (t + 1) // 2)
    b = ctx.mul(ctx.mul(x, x), ctx.inv(a))
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


def poly_roots(f, ctx, rng):
    """Roots in ctx's field, with multiplicity, of a polynomial f of degree at
    most 2 given as a lowest-first list of field elements; empty when f has
    none.  The quadratic case takes one `field_sqrt`.  Above degree 2 this
    raises ValueError: the only polynomials the package factors over F_{p^2}
    are the quadratics of the ell=2 walk, and everything longer lives in the
    numpy layer over F_m below."""
    f = list(f)
    while f and ctx.is_zero(f[-1]):
        f.pop()
    if not f:
        raise ZeroDivisionError("roots of the zero polynomial")
    if len(f) > 3:
        raise ValueError(f"poly_roots takes degree <= 2, got degree {len(f) - 1}")
    lead_inv = ctx.inv(f[-1])
    f = [ctx.mul(a, lead_inv) for a in f]
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [ctx.neg(f[0])]
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


# ---------------------------------------------------------------------------
# numpy-backed polynomials over F_m (single-word prime m), lowest-first int64.
# ---------------------------------------------------------------------------

# Up to NTT_CROSSOVER terms in the shorter factor, products are schoolbook
# np.convolve wherever an exact one exists; above it, and where none is
# exact, they are `_fft_mul`.  (The name is kept from the number-theoretic
# transform that once took the long products.)  At nu = 999983 (2-core x86,
# numpy 2.4, equal lengths, best of 30) float64 np.convolve took 0.14 ms
# against the FFT's 0.24 ms at 1024 terms, 0.31 against 0.40 ms at 1536 and
# 0.53 against 0.42 ms at 2048.
NTT_CROSSOVER = 2048
# int64 np.convolve beats converting to float64 below this many terms in the
# shorter factor (about 10 against 11 us at 64 x 64, 25 against 19 us at
# 64 x 300 on the same machine)
FLOAT_CUTOFF = 64


def npoly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def _float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve(a, b) in float64, returned as int64.  Exact when
    min(len a, len b) * max|a| * max|b| < 2^53: every partial sum is then an
    integer below 2^53, so no order of summation, with or without FMA, can
    round."""
    return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)


def _fft_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact product mod m <= 2^30 by float64 FFTs of 10-bit limbs.

    Entries, taken in [0, m), split into L limbs a = sum_i A_i 2^(10 i), two
    for m <= 2^20 and three up to 2^30.  Each limb gets one rfft at a size
    N = 2^k >= len(a) + len(b) - 1; each limb sum c_s = sum_i A_i B_(s-i) is
    formed on the spectra, brought back by one irfft and rounded to the
    nearest integer, and the product is sum_s c_s 2^(10 s) mod m.

    Rounding is exact while each c_s is off by less than 1/2.  For one
    product of vectors x and y, Percival (2003), with the complex-product
    constant sqrt(5) eps of Brent, Percival and Zimmermann (2007), bounds the
    error by ||x|| ||y|| ((1+eps)^(3k) (1+sqrt(5) eps)^(3k+1) (1+beta)^(3k) - 1),
    with eps = 2^-53 and beta the error of the computed twiddle factors;
    limbs below 2^10 give ||x|| ||y|| < 2^20 N.  A c_s sums at most three
    products on the spectra, which adds two roundings, (1+eps)^2, to each.
    The assumption: numpy's real transforms obey this radix-2 bound with
    beta <= 2^-51, that is each twiddle within four units of roundoff (pocketfft
    forms it from two double-precision sin/cos table entries).  Three times
    the bound is then 0.34 at N = 2^21 and 0.70 at N = 2^22, so a product of
    more than 2^21 terms raises ModulusError before any transform."""
    out_len = len(a) + len(b) - 1
    k = (out_len - 1).bit_length()
    eps, beta = 2.0**-53, 2.0**-51
    err = 3 * 2**20 * 2**k * math.expm1((3 * k + 2) * math.log1p(eps)
                                       + (3 * k + 1) * math.log1p(math.sqrt(5) * eps)
                                       + 3 * k * math.log1p(beta))
    if err >= 0.5:
        raise ModulusError(f"a product of {out_len} terms exceeds the FFT exactness bound")
    size, limbs = 1 << k, 2 if m <= 2**20 else 3
    a, b = a % m, b % m
    fa = [np.fft.rfft((a >> 10 * i) & 1023, size) for i in range(limbs)]
    fb = [np.fft.rfft((b >> 10 * i) & 1023, size) for i in range(limbs)]
    out = np.zeros(out_len, dtype=np.int64)
    for s in range(2 * limbs - 1):
        terms = range(max(0, s - limbs + 1), min(s, limbs - 1) + 1)
        spectrum = sum(fa[i] * fb[s - i] for i in terms)
        c = np.rint(np.fft.irfft(spectrum, size)[:out_len]).astype(np.int64)
        out += c % m * pow(2, 10 * s, m) % m
    return out % m


def npoly_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Product of two coefficient arrays mod m, for entries of absolute value
    below m <= MAX_MODULUS.

    Three paths, by the length `short` of the shorter factor: int64
    np.convolve below FLOAT_CUTOFF terms while the sums fit in int64; float64
    np.convolve while short <= NTT_CROSSOVER and short * (m - 1)^2 < 2^53
    (every partial sum is then an integer below 2^53); `_fft_mul` otherwise,
    which is exact for every m up to MAX_MODULUS and raises ModulusError for
    a product of more than 2^21 terms."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    if m > MAX_MODULUS:
        raise ModulusError(f"modulus {m} exceeds word-size threshold {MAX_MODULUS}")
    short = min(len(a), len(b))
    if short <= NTT_CROSSOVER:
        if short < FLOAT_CUTOFF and short <= _int64_terms(m):
            return np.convolve(a, b) % m
        if short * (m - 1) ** 2 < 2**53:
            return _float_convolve(a, b) % m
    return _fft_mul(a, b, m)


def _rem_in_place(a: np.ndarray, b: np.ndarray, m: int,
                  q: np.ndarray | None = None) -> int:
    """Reduce a mod b in place, one slice update per quotient term, and return
    the length of the trimmed remainder a[:len], whose entries end in [0, m).
    a and b must be trimmed, with entries in [0, m); the quotient goes into q
    when one is given.

    The top coefficient each term cancels is never written: it is past the
    remainder.  Each term subtracts at most one product of at most (m - 1)^2
    from an entry, so entries are reduced mod m only once `_int64_terms(m)` terms
    have gone by, and at the end."""
    db = len(b) - 1
    low = b[:-1]
    inv_lead = pow(int(b[-1]), -1, m)
    room = _int64_terms(m)
    pending = 0
    top = len(a) - 1
    while top >= db:
        c = int(a[top]) % m * inv_lead % m
        if c:
            if q is not None:
                q[top - db] = c
            a[top - db : top] -= c * low
            pending += 1
            if pending == room:
                a[:top] %= m
                pending = 0
        top -= 1
    a[: top + 1] %= m
    while top >= 0 and not a[top]:
        top -= 1
    return top + 1


def npoly_divrem(a: np.ndarray, b: np.ndarray, m: int):
    """Schoolbook Euclidean division mod m: the quotient and the trimmed
    remainder, one slice update per quotient term."""
    b = npoly_trim(np.asarray(b, dtype=np.int64) % m)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = npoly_trim(np.asarray(a, dtype=np.int64) % m)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return np.zeros(0, dtype=np.int64), a
    q = np.zeros(da - db + 1, dtype=np.int64)
    return q, a[: _rem_in_place(a, b, m, q)]


class NPolyModCtx:
    """Repeated multiplication mod a fixed monic f over F_m, with a
    precomputed Newton inverse of the reversed modulus for fast reduction and,
    once repeated Frobenius calls pay for it, the Frobenius matrix."""

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
        self.rev_inv = npoly_series_inv(rev, self.n, m) if self.n > 0 else None
        self._powmod_cost = m.bit_length() + bin(m).count("1")
        self._frob_calls = 0
        self._frob_matrix: np.ndarray | None = None

    def reduce(self, a: np.ndarray) -> np.ndarray:
        a = npoly_trim(np.asarray(a, dtype=np.int64) % self.m)
        n, m = self.n, self.m
        if len(a) <= n:
            out = np.zeros(n, dtype=np.int64)
            out[: len(a)] = a
            return out
        k = len(a) - 1 - n  # degree of quotient
        if k + 1 > len(self.rev_inv):
            self.rev_inv = npoly_series_inv(self.f[::-1].copy(), k + 1, m)
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

    def frobenius(self, a: np.ndarray) -> np.ndarray:
        """a^m mod f, as a length-n array; f must have degree n >= 1.

        The first calls are plain powmods.  Once the calls made would have
        cost more than n mulmods, each being about m.bit_length() +
        popcount(m) of them, the matrix Q of the F_m-linear map
        a(x) -> a(x^m) is built: row i is x^(i*m) mod f, one powmod and n - 2
        mulmods in all.  Every later call is one product a @ Q mod m."""
        if self._frob_matrix is None:
            self._frob_calls += 1
            if self._frob_calls * self._powmod_cost <= self.n:
                return self.powmod(a, self.m)
            self._frob_matrix = self._build_frobenius_matrix()
        return dot_mod(self.reduce(a), self._frob_matrix, self.m)

    def _build_frobenius_matrix(self) -> np.ndarray:
        n = self.n
        q = np.zeros((n, n), dtype=np.int64)
        q[0, 0] = 1
        if n > 1:
            q[1] = self.powmod(np.array([0, 1], dtype=np.int64), self.m)
            for i in range(2, n):
                q[i] = self.mulmod(q[i - 1], q[1])
        return q


class NPolyComposer:
    """a(g) mod f for a fixed inner polynomial g, by Brent and Kung's
    baby-step/giant-step modular composition; f is the modulus of ``ctx``,
    of degree n >= 1.

    The table holds g^0 .. g^(s-1) mod f, s = ceil(sqrt(n)) rows of n
    entries, plus g^s: s mulmods once, O(n^1.5) memory.  A call cuts a into
    `steps` = ceil(n / s) chunks of s coefficients, forms every chunk's value
    at g with one (steps x s) @ (s x n) block product, and joins them by
    Horner in g^s, steps - 1 mulmods.  The block product is float64 while
    s * (m - 1)^2 < 2^53, where every partial sum is an integer below 2^53
    (the argument of `_float_convolve`), and `dot_mod` otherwise, so every
    modulus up to MAX_MODULUS is exact."""

    def __init__(self, ctx: NPolyModCtx, g: np.ndarray):
        n, m = ctx.n, ctx.m
        self.ctx = ctx
        self.s, self.steps = self.shape(n)
        table = np.zeros((self.s, n), dtype=np.int64)
        table[0, 0] = 1
        g = ctx.reduce(g)
        for i in range(1, self.s):
            table[i] = ctx.mulmod(table[i - 1], g)
        self.giant = ctx.mulmod(table[-1], g)
        self.exact_float = self.s * (m - 1) ** 2 < 2**53
        self.table = table.astype(np.float64) if self.exact_float else table

    @staticmethod
    def shape(n: int) -> tuple[int, int]:
        """(s, steps) for a modulus of degree n."""
        s = math.isqrt(n - 1) + 1
        return s, -(-n // s)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        ctx, s = self.ctx, self.s
        chunks = np.zeros(self.steps * s, dtype=np.int64)
        a = ctx.reduce(a)
        chunks[: len(a)] = a
        chunks = chunks.reshape(self.steps, s)
        if self.exact_float:
            values = (chunks.astype(np.float64) @ self.table).astype(np.int64) % ctx.m
        else:
            values = dot_mod(chunks, self.table, ctx.m)
        acc = values[-1]
        for row in values[-2::-1]:
            acc = (ctx.mulmod(acc, self.giant) + row) % ctx.m
        return acc


def npoly_series_inv(a: np.ndarray, prec: int, m: int) -> np.ndarray:
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
    """Monic gcd mod m by Euclid; each remainder is taken in place in the
    dividend's own array."""
    a = npoly_trim(np.asarray(a, dtype=np.int64) % m)
    b = npoly_trim(np.asarray(b, dtype=np.int64) % m)
    while len(b):
        a, b = b, a[: _rem_in_place(a, b, m)]
    return _npoly_monic(a, m)


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


def _minus_x(h: np.ndarray, m: int) -> np.ndarray:
    """h - x for an array h of at least two coefficients in [0, m)."""
    out = h.copy()
    out[1] = (out[1] - 1) % m
    return out


def npoly_distinct_degree(f: np.ndarray, m: int,
                          max_degree: int | None = None) -> list[tuple[np.ndarray, int]]:
    """Distinct-degree factorization of a squarefree monic f over F_m:
    returns (product of all irreducible factors of degree d, d) pairs in
    increasing d.  With ``max_degree`` only the pairs with d <= max_degree
    are computed and the factors of higher degree are dropped.

    An irreducible g of degree e divides x^(m^a) - x^(m^b) exactly when
    e | a - b.  Every h_i = x^(m^i) is kept mod the input f; it is reduced
    mod a shrinking factor only inside a gcd.

    Uncapped, the loop takes baby steps and giant steps (von zur Gathen &
    Shoup 1992; Kaltofen & Shoup 1998).  With l = floor(sqrt((n - 1) / 2)) + 1
    for n = deg f, the baby steps are h_0 = x .. h_(l-1), and the giant
    steps H_j = h_(lj) = H_(j-1)(H_1) come from one `NPolyComposer` with
    inner H_1 = h_l.  Giant step j takes one gcd of what is left of f with
    prod_i (H_j - h_i) mod f: as the factors of degree <= l(j - 1) are gone
    by then, that is the product of the factors of degree d in
    (l(j - 1), lj], each dividing H_j - h_(lj-d).  A nontrivial part is
    refined by gcd(part, H_j - h_(lj-d)) in increasing d, each found
    product divided out before the next.  Both loops stop once what is left
    has degree below twice the least degree it can still hold: it is then
    irreducible.  That is about sqrt(2n) Frobenius steps and compositions
    and one full gcd per giant step, in place of n/2 of each.

    With max_degree = D < deg f, one gcd first cuts f down to f_low =
    gcd(prod_{d <= D} (h_d - x) mod f, f), the product of the irreducible
    factors of degree <= D, and a loop of one gcd per degree on f_low, which
    reuses those h_d, splits it.

    Both paths get h_1 by `frobenius`, and h_2, h_3, ... as compositions
    h_(k+1) = h_k(h_1) where a composition step, ceil(n / s) mulmods with
    s = ceil(sqrt(n)), costs fewer than a powmod's `_powmod_cost`
    (n below about 1100 at m near 10^6), and by `frobenius` otherwise or
    when its first call has built the matrix (n at most that cost).
    Either way no n x n Frobenius matrix is built unless n is below that
    cost: `frobenius` builds one only after calls costing n mulmods, and
    l steps of cost c stay below n once n >= c^2."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n < 1 or (max_degree is not None and max_degree < 1):
        return []
    if n == 1:
        return [(f, 1)]
    ctx = NPolyModCtx(f, m)
    x = ctx.reduce(np.array([0, 1], dtype=np.int64))
    if max_degree is None or max_degree >= n:
        return _distinct_degree_bsgs(ctx, x)
    low = _frobenius_powers(ctx, x, max_degree)  # h_1 .. h_D
    prod = _minus_x(low[0], m)
    for h in low[1:]:
        prod = ctx.mulmod(prod, _minus_x(h, m))
    f = npoly_gcd(prod, f, m)
    out = []
    for d, h in enumerate(low, 1):
        if len(f) - 1 < 2 * d:
            if len(f) > 1:
                out.append((f, len(f) - 1))
            break
        g = npoly_gcd(_minus_x(h, m), f, m)
        if len(g) > 1:
            out.append((g, d))
            f = npoly_divrem(f, g, m)[0]
    return out


def _frobenius_powers(ctx: NPolyModCtx, x: np.ndarray, count: int) -> list[np.ndarray]:
    """h_1 .. h_count for h_k = x^(m^k) mod ctx.f: h_1 by `frobenius`, the
    rest as compositions h_(k+1) = h_k(h_1) where a composition step costs
    fewer mulmods than a powmod, and by `frobenius` otherwise or once that
    first call has built the Frobenius matrix (n at most a powmod's cost),
    after which a step is one n x n product."""
    out = [ctx.frobenius(x)]
    step = ctx.frobenius
    if (count > 1 and ctx._frob_matrix is None
            and NPolyComposer.shape(ctx.n)[1] < ctx._powmod_cost):
        step = NPolyComposer(ctx, out[0])
    while len(out) < count:
        out.append(step(out[-1]))
    return out


def _distinct_degree_bsgs(ctx: NPolyModCtx, x: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The uncapped loop of `npoly_distinct_degree` on f = ctx.f, of degree
    n >= 2, by baby steps and giant steps."""
    f, m = ctx.f, ctx.m
    stride = math.isqrt((ctx.n - 1) // 2) + 1  # l
    baby = [x] + _frobenius_powers(ctx, x, stride)
    first = baby.pop()  # H_1 = h_l
    compose = NPolyComposer(ctx, first)
    giant = None
    out = []
    top = 0  # every factor of degree <= top is split off
    while len(f) - 1 >= 2 * (top + 1):
        giant = first if giant is None else compose(giant)
        top += stride
        prod = (giant - baby[0]) % m
        for h in baby[1:]:
            prod = ctx.mulmod(prod, (giant - h) % m)
        part = npoly_gcd(prod, f, m)
        if len(part) == 1:
            continue
        f = npoly_divrem(f, part, m)[0]
        d = top - stride
        while d < top and len(part) - 1 >= 2 * (d + 1):
            d += 1
            g = npoly_gcd((giant - baby[top - d]) % m, part, m)
            if len(g) > 1:
                out.append((g, d))
                part = npoly_divrem(part, g, m)[0]
        if len(part) > 1:
            out.append((part, len(part) - 1))
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def npoly_equal_degree_split(f: np.ndarray, d: int, m: int, rng,
                             attempt_cap: int = 64) -> list[np.ndarray]:
    """Cantor-Zassenhaus: split a product of degree-d irreducibles.

    Each attempt draws a and takes a^((m^d - 1)/2) as
    (a * a^m * ... * a^(m^(d-1)))^((m - 1)/2): d - 1 Frobenius calls and
    mulmods on the call's one context, then one powmod."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n == d:
        return [f]
    ctx = NPolyModCtx(f, m)
    for _ in range(attempt_cap):
        a = np.array(rng.integers(0, m, n), dtype=np.int64)
        if not a.any():
            continue
        norm = conj = ctx.reduce(a)
        for _ in range(d - 1):
            conj = ctx.frobenius(conj)
            norm = ctx.mulmod(norm, conj)
        t = npoly_trim(ctx.powmod(norm, (m - 1) // 2))
        if len(t) == 0:
            continue
        t = t.copy()
        t[0] = (t[0] - 1) % m
        g = npoly_gcd(t, f, m)
        if 0 < len(g) - 1 < n:
            rest = npoly_divrem(f, g, m)[0]
            return npoly_equal_degree_split(g, d, m, rng, attempt_cap) + \
                npoly_equal_degree_split(rest, d, m, rng, attempt_cap)
    raise ArithmeticError(f"equal-degree splitting stalled after {attempt_cap} attempts")


def npoly_rabin_irreducible(f: np.ndarray, m: int) -> bool:
    """Rabin's irreducibility test over F_m: f of degree n is irreducible iff
    x^(m^n) = x mod f and gcd(x^(m^(n/q)) - x, f) = 1 for each prime q | n.
    The powers x^(m^k) come from iterating `frobenius`."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    ctx = NPolyModCtx(f, m)
    # n / q for the prime divisors q of n
    cofactors = set()
    nn = n
    q = 2
    while q * q <= nn:
        if nn % q == 0:
            cofactors.add(n // q)
            while nn % q == 0:
                nn //= q
        q += 1
    if nn > 1:
        cofactors.add(n // nn)
    h = np.array([0, 1], dtype=np.int64)
    for k in range(1, n + 1):
        h = ctx.frobenius(h)
        if k in cofactors and len(npoly_gcd(_minus_x(h, m), f, m)) > 1:
            return False
    return not _minus_x(h, m).any()


def npoly_linear_roots(f: np.ndarray, m: int, rng) -> list[int]:
    """Distinct roots of f in F_m."""
    f = _npoly_monic(np.asarray(f, dtype=np.int64) % m, m)
    if len(f) - 1 <= 0:
        return []
    if len(f) - 1 <= 2:
        return _small_roots(f, m, rng)
    xm = NPolyModCtx(f, m).powmod(np.array([0, 1], dtype=np.int64), m)
    lin = npoly_gcd(_minus_x(xm, m), f, m)
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
