"""Quasi-linear power-series arithmetic over F_p.

Series are truncated Laurent series in q: a valuation offset (possibly -1,
for the j-function), a dense int64 coefficient array, and an absolute
precision `absprec` meaning coefficients are known for every exponent
< absprec.  Arithmetic never claims precision beyond what the inputs
justify.  Products and Newton inverses are `gf.npoly_mul` and
`gf.npoly_series_inv`: exact schoolbook convolutions for short factors and
an exact float64 FFT for long ones.  Composition with a series of positive
valuation is `gf.NPolyComposer`, the same Brent-Kung composition that
distinct-degree factoring uses, modulo q^N, where `gf.NPolyModCtx` reduces
by truncation.
"""

from __future__ import annotations

import numpy as np

from . import gf


class PrecisionError(ValueError):
    pass


def _same_prime(a: "PowerSeries", b: "PowerSeries"):
    if a.p != b.p:
        raise ValueError(f"series over F_{a.p} and F_{b.p} do not combine")


class PowerSeries:
    __slots__ = ("p", "val", "coeffs", "absprec")

    def __init__(self, p: int, val: int, coeffs, absprec: int | None = None):
        self.p = p
        c = np.asarray(coeffs, dtype=np.int64) % p
        self.absprec = val + len(c) if absprec is None else absprec
        # normalize: drop leading zeros, keep val + len(coeffs) == absprec
        nz = np.nonzero(c)[0]
        if len(nz) == 0:
            self.val = self.absprec
            self.coeffs = c[:0]
        else:
            c = c[nz[0] :]
            self.val = val + int(nz[0])
            self.coeffs = c[: max(0, self.absprec - self.val)]

    # -- helpers ----------------------------------------------------------
    @classmethod
    def zero(cls, p: int, absprec: int):
        return cls(p, absprec, [], absprec)

    @classmethod
    def one(cls, p: int, absprec: int):
        return cls(p, 0, [1], absprec)

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def coeff(self, e: int) -> int:
        """Coefficient of q^e; raises when e is beyond known precision."""
        if e >= self.absprec:
            raise PrecisionError(f"coefficient q^{e} beyond precision {self.absprec}")
        if e < self.val:
            return 0
        return int(self.coeffs[e - self.val])

    def coeff_range(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients of q^lo .. q^(hi-1) as a dense array."""
        if hi > self.absprec:
            raise PrecisionError("range beyond precision")
        out = np.zeros(hi - lo, dtype=np.int64)
        a = max(lo, self.val)
        b = min(hi, self.val + len(self.coeffs))
        if a < b:
            out[a - lo : b - lo] = self.coeffs[a - self.val : b - self.val]
        return out

    def truncate(self, absprec: int) -> "PowerSeries":
        return PowerSeries(self.p, self.val, self.coeffs, min(absprec, self.absprec))

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.absprec, other.absprec)
        return (self.coeff_range(min(self.val, other.val), n)
                == other.coeff_range(min(self.val, other.val), n)).all()

    def __repr__(self):
        head = ", ".join(
            f"{int(c)}*q^{self.val + i}" for i, c in enumerate(self.coeffs[:4])
        )
        return f"PowerSeries(p={self.p}, {head} ... ; O(q^{self.absprec}))"

    # -- ring operations --------------------------------------------------
    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        _same_prime(self, other)
        absprec = min(self.absprec, other.absprec)
        val = min(self.val, other.val, absprec)
        a = self.coeff_range(val, absprec)
        b = other.coeff_range(val, absprec)
        return PowerSeries(self.p, val, (a + b) % self.p, absprec)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        _same_prime(self, other)
        absprec = min(self.absprec, other.absprec)
        val = min(self.val, other.val, absprec)
        a = self.coeff_range(val, absprec)
        b = other.coeff_range(val, absprec)
        return PowerSeries(self.p, val, (a - b) % self.p, absprec)

    def scale(self, c: int) -> "PowerSeries":
        return PowerSeries(self.p, self.val, self.coeffs * (c % self.p) % self.p, self.absprec)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by q^k."""
        return PowerSeries(self.p, self.val + k, self.coeffs, self.absprec + k)

    def differentiate(self) -> "PowerSeries":
        """d/dq, handling negative exponents."""
        exps = np.arange(self.val, self.val + len(self.coeffs), dtype=np.int64) % self.p
        return PowerSeries(self.p, self.val - 1, self.coeffs * exps % self.p, self.absprec - 1)


def series_mul(a: PowerSeries, b: PowerSeries, absprec: int | None = None) -> PowerSeries:
    _same_prime(a, b)
    limit = min(a.val + b.absprec, b.val + a.absprec)
    if absprec is not None:
        limit = min(limit, absprec)
    if a.is_zero() or b.is_zero():
        return PowerSeries.zero(a.p, limit)
    n = limit - (a.val + b.val)
    if n <= 0:
        return PowerSeries.zero(a.p, limit)
    c = gf.npoly_mul(a.coeffs[:n], b.coeffs[:n], a.p)[:n]
    return PowerSeries(a.p, a.val + b.val, c, limit)


def series_inv(a: PowerSeries, absprec: int) -> PowerSeries:
    """Newton inversion; requires an invertible lowest-order coefficient."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero series")
    n = absprec + a.val  # number of unit-part coefficients needed
    if n <= 0:
        return PowerSeries.zero(a.p, absprec)
    if a.absprec - a.val < n:
        raise PrecisionError("not enough known coefficients for requested inverse")
    x = gf.npoly_series_inv(a.coeffs[:n], n, a.p)
    return PowerSeries(a.p, -a.val, x, absprec)


def eta_cubed(p: int, n: int) -> PowerSeries:
    """eta(q)^3 / q^(1/8): sum (-1)^k (2k+1) q^(k(k+1)/2), truncated to n terms."""
    if n < 1:
        raise ValueError("need n >= 1")
    c = np.zeros(n, dtype=np.int64)
    k = 0
    while k * (k + 1) // 2 < n:
        c[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return PowerSeries(p, 0, c % p, n)


def _sigma_series(p: int, power: int, weight_const: int, n: int) -> PowerSeries:
    """1 + weight_const * sum_{k>=1} sigma_power(k) q^k to n terms, mod p."""
    sig = np.zeros(n, dtype=np.int64)
    for d in range(1, n):
        dm = pow(d, power, p)
        sig[d::d] = (sig[d::d] + dm) % p
    sig = sig * (weight_const % p) % p
    sig[0] = 1
    return PowerSeries(p, 0, sig, n)


def _j_from_numerator(num: PowerSeries, p: int, n: int) -> PowerSeries:
    """num / (q * eta3^8), with the additive constant pinned so [q^0] j = 744."""
    eta3 = eta_cubed(p, n + 2)
    e2 = series_mul(eta3, eta3)
    e4 = series_mul(e2, e2)
    e8 = series_mul(e4, e4)
    quot = series_mul(num, series_inv(e8, n + 1)).shift(-1).truncate(n - 1)
    const = (744 - quot.coeff(0)) % p
    return quot + PowerSeries(p, 0, [const], n - 1)


def j_series(p: int, n: int) -> tuple[PowerSeries, PowerSeries]:
    """(j, j') to absolute precision n - 1 (i.e. n coefficients from q^-1).

    Uses the weight-12 Eisenstein route with the constant term pinned by the
    q^0 = 744 normalization; p = 691 falls back to the E4^3 route (the
    65520/691 factor is not invertible there).
    """
    if p < 5:
        raise ValueError("level must be at least 5")
    if p == 691:
        e4 = _sigma_series(p, 3, 240, n + 2)
        num = series_mul(series_mul(e4, e4), e4)
    else:
        num = _sigma_series(p, 11, 65520 * pow(691, -1, p), n + 2)
    j = _j_from_numerator(num, p, n)
    return j, j.differentiate()


# ---------------------------------------------------------------------------
# Rational functions over F_p and the partial-fraction tree
# ---------------------------------------------------------------------------


class RationalFunction:
    """P/Q with numpy coefficient arrays over F_p, Q monic."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num, den):
        self.p = p
        num = gf.npoly_trim(np.asarray(num, dtype=np.int64) % p)
        den = gf.npoly_trim(np.asarray(den, dtype=np.int64) % p)
        if len(den) == 0:
            raise ZeroDivisionError("zero denominator")
        lead = int(den[-1])
        if lead != 1:
            inv = pow(lead, -1, p)
            num = num * inv % p
            den = den * inv % p
        self.num = num
        self.den = den

    def add(self, other: "RationalFunction") -> "RationalFunction":
        p = self.p
        num = gf.npoly_mul(self.num, other.den, p)
        num2 = gf.npoly_mul(other.num, self.den, p)
        n = max(len(num), len(num2))
        out = np.zeros(n, dtype=np.int64)
        out[: len(num)] += num
        out[: len(num2)] += num2
        return RationalFunction(p, out % p, gf.npoly_mul(self.den, other.den, p))


def rational_sum_tree(leaves: list[RationalFunction]) -> RationalFunction:
    """Sum a list of rational functions by balanced pairwise merging."""
    if not leaves:
        raise ValueError("empty sum")
    layer = list(leaves)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i].add(layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def reciprocal_expansion(r: RationalFunction, nterms: int) -> np.ndarray:
    """Coefficients g_1..g_nterms with P/Q = sum_k g_k x^-k (deg P < deg Q).

    Index 0 of the returned array is g_1 (the 1/x coefficient).
    """
    p = r.p
    M = len(r.den) - 1
    if len(r.num) - 1 >= M:
        raise ValueError("require deg P < deg Q")
    # P/Q = y * rev(P)(y)/rev(Q)(y) at y = 1/x, rev taken to fixed lengths
    revP = np.zeros(M, dtype=np.int64)
    revP[M - len(r.num) :] = r.num[::-1]
    revQ = r.den[::-1].copy()
    inv = gf.npoly_series_inv(revQ, nterms, p)
    g = gf.npoly_mul(revP, inv, p)[:nterms]
    out = np.zeros(nterms, dtype=np.int64)
    out[: len(g)] = g
    return out


def brent_kung_compose(gcoeffs: np.ndarray, u: PowerSeries, absprec: int) -> PowerSeries:
    """sum_k g[k] u(q)^k to absolute precision absprec, for a series u of
    valuation >= 1: `gf.NPolyComposer` modulo q^absprec.  The valuation
    makes u^k vanish mod q^absprec for k >= absprec, so the composer may cut
    g to absprec terms."""
    p = u.p
    if u.val < 1:
        raise ValueError("composition requires valuation >= 1")
    absprec = min(absprec, u.absprec)
    if absprec < 1:
        return PowerSeries.zero(p, absprec)
    modulus = np.zeros(absprec + 1, dtype=np.int64)
    modulus[-1] = 1
    compose = gf.NPolyComposer(gf.NPolyModCtx(modulus, p), u.coeff_range(0, absprec))
    return PowerSeries(p, 0, compose(gcoeffs), absprec)


def compose_with_reciprocal_j(
    r: RationalFunction,
    j: PowerSeries,
    n: int,
) -> PowerSeries:
    """Evaluate P(j(q))/Q(j(q)) = sum gamma_i/(j(q) - j_i) to absolute precision n.

    The rational function is expanded in powers of 1/x (j has a pole at
    q = 0, so 1/j(q) has valuation 1) and composed with u = 1/j(q).
    Multiplication by j'(q) is left to the caller.
    """
    g = reciprocal_expansion(r, n + 2)
    u = series_inv(j, n)
    gfull = np.zeros(len(g) + 1, dtype=np.int64)
    gfull[1:] = g  # g starts at the 1/x term
    return brent_kung_compose(gfull, u, n)
