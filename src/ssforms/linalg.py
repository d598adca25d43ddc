"""Sparse exact linear algebra over F_nu: Wiedemann minimal polynomial with
shift/retry/modulus variation, Berlekamp-Massey, and characteristic-polynomial
completion from trace coefficients and eigenspace-dimension bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import gf

# Fixed auxiliary-prime schedule: twenty primes just below 10^6, cycled
# deterministically.  All exceed 4*10^4, which keeps the Eisenstein factor
# (t - 3) separable from cuspidal factors after reduction (|rho(3)| < 39000
# for every Weil-admissible rho of degree <= 6).
NU_DEFAULTS = (
    999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907,
    999883, 999863, 999853, 999809, 999773, 999769, 999763, 999749,
    999727, 999721, 999683, 999671,
)


class SingularRecurrenceError(ArithmeticError):
    """The recurrence has zero constant term: the (shifted) matrix is
    singular mod nu, so the power-series inverse step has no meaning."""


class CharpolyFailure(RuntimeError):
    pass


class SparseSignedMatrix:
    """Row-compressed square matrix with small signed integer entries."""

    def __init__(self, n: int, indptr, indices, data):
        self.n = n
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.int64)
        self._csr = sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(n, n), dtype=np.int64
        )

    @classmethod
    def from_dense(cls, arr) -> "SparseSignedMatrix":
        arr = np.asarray(arr, dtype=np.int64)
        n = arr.shape[0]
        indptr = [0]
        indices = []
        data = []
        for i in range(n):
            nz = np.nonzero(arr[i])[0]
            indices.extend(nz.tolist())
            data.extend(arr[i][nz].tolist())
            indptr.append(len(indices))
        return cls(n, indptr, indices, data)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec_mod(self, v: np.ndarray, nu: int) -> np.ndarray:
        return (self._csr @ v) % nu

    def matvec_exact(self, v) -> np.ndarray:
        """Exact integer product; falls back to object dtype for big entries."""
        v = np.asarray(v)
        if v.dtype == object or (len(v) and max(abs(int(x)) for x in v.ravel()) > 2**40):
            out = np.zeros(self.n, dtype=object)
            for i in range(self.n):
                s = 0
                for t in range(self.indptr[i], self.indptr[i + 1]):
                    s += int(self.data[t]) * int(v[self.indices[t]])
                out[i] = s
            return out
        return self._csr @ v.astype(np.int64)

    def trace(self) -> int:
        return int(self._csr.diagonal().sum())

    def trace_of_square(self) -> int:
        """tr(M^2) = sum_{i,j} M[i][j] M[j][i] straight off the sparse entries."""
        return int(self._csr.multiply(self._csr.T).sum())


def matvec(m: SparseSignedMatrix, v: np.ndarray, nu: int) -> np.ndarray:
    if len(v) != m.n:
        raise ValueError("dimension mismatch")
    return m.matvec_mod(np.asarray(v, dtype=np.int64) % nu, nu)


def berlekamp_massey(seq, nu: int) -> np.ndarray:
    """Monic minimal-length recurrence polynomial of a scalar sequence mod nu.

    Returns mu with mu[deg] = 1 (lowest-first) such that
    sum_j mu[j] s[k+j] = 0 for all valid k.  Raises SingularRecurrenceError
    when the minimal recurrence has zero constant term (the matrix behind the
    sequence is singular; callers respond by shifting the spectrum).
    """
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
    mu = np.array(C[L::-1] if L + 1 <= len(C) else C[::-1], dtype=np.int64)
    if len(mu) < L + 1:
        mu = np.concatenate([np.zeros(L + 1 - len(mu), dtype=np.int64), mu])
    if mu[0] % nu == 0:
        raise SingularRecurrenceError("minimal recurrence divisible by t")
    return mu


def taylor_shift(f: np.ndarray, k: int, nu: int) -> np.ndarray:
    """f(t + k) mod nu."""
    f = np.asarray(f, dtype=np.int64) % nu
    k %= nu
    res = np.zeros(1, dtype=np.int64)
    for c in f[::-1]:
        # res = res*(t + k) + c
        new = np.zeros(len(res) + 1, dtype=np.int64)
        new[1:] = res
        new[:-1] = (new[:-1] + k * res) % nu
        new[0] = (new[0] + c) % nu
        res = new
    return gf.npoly_trim(res % nu)


@dataclass
class KrylovTrace:
    probe_index: int
    shift: int
    seq: np.ndarray           # (M + shift)^j u at the probe coordinate, j < 2n+10
    window: np.ndarray        # first min(1000, n) coords of the iterates, j < n
    start_vector: np.ndarray


@dataclass
class WiedemannParams:
    density: int = 50
    shift0: int = 4
    retry_budget0: int = 2
    nu_list: tuple = NU_DEFAULTS
    max_nus: int = 12
    window_size: int = 1000
    max_singular_retries: int = 25
    verify_vectors: int = 5
    extra_probe_columns: int = 8


@dataclass
class CharpolyRecord:
    nu: int
    mu: np.ndarray
    chi: np.ndarray | None
    n: int
    provenance: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


def _random_start_vector(n: int, density: int, rng, nu: int) -> np.ndarray:
    if density < n:
        u = np.zeros(n, dtype=np.int64)
        pos = rng.choice(n, size=density, replace=False)
        u[pos] = 1
        return u
    # matrices smaller than the density: uniform entries, retrying zero
    while True:
        u = np.array(rng.integers(0, nu, n), dtype=np.int64)
        if u.any():
            return u


def krylov_probe(m: SparseSignedMatrix, nu: int, shift: int, u: np.ndarray, i: int,
                 window_size: int, extra_cols=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar sequence and coordinate windows of (M + shift*I)^j u mod nu.

    extra_cols are additional probe coordinates whose full-length sequences
    are recorded in the same pass (their recurrences see spectrum the main
    coordinate may miss)."""
    n = m.n
    nseq = 2 * n + 10
    w = min(window_size, n)
    seq = np.zeros(nseq, dtype=np.int64)
    window = np.zeros((n, w), dtype=np.int64)
    extra_cols = np.asarray(extra_cols, dtype=np.int64)
    extra = np.zeros((nseq, len(extra_cols)), dtype=np.int64)
    v = u % nu
    for j in range(nseq):
        seq[j] = v[i]
        if j < n:
            window[j] = v[:w]
        if len(extra_cols):
            extra[j] = v[extra_cols]
        if j + 1 < nseq:
            v = (m.matvec_mod(v, nu) + shift * v) % nu
    return seq, window, extra


def annihilates(poly: np.ndarray, m: SparseSignedMatrix, nu: int, rng,
                trials: int) -> bool:
    """Exact check that poly(M) u = 0 for `trials` fresh random vectors."""
    for _ in range(trials):
        u = np.array(rng.integers(0, nu, m.n), dtype=np.int64)
        acc = np.zeros(m.n, dtype=np.int64)
        v = u
        for c in poly:
            acc = (acc + int(c) * v) % nu
            v = m.matvec_mod(v, nu)
        if acc.any():
            return False
    return True


def wiedemann_minpoly(m: SparseSignedMatrix, params: WiedemannParams, rng, nu: int,
                      budget: int) -> tuple[np.ndarray, list[KrylovTrace]]:
    """Single-modulus probing schedule: up to `budget` (u, i) probes, with the
    shift incremented whenever Berlekamp-Massey signals a singular reduction.
    Returns the highest-degree un-shifted candidate, verified to annihilate
    fresh random vectors, and all stored traces."""
    n = m.n
    traces: list[KrylovTrace] = []
    best: np.ndarray | None = None
    k = params.shift0
    singular = 0
    attempts = 0
    while attempts < budget:
        u = _random_start_vector(n, params.density, rng, nu)
        i = int(rng.integers(0, n))
        cols = rng.choice(n, size=min(n, params.extra_probe_columns), replace=False)
        seq, window, extra = krylov_probe(m, nu, k, u, i, params.window_size, cols)
        try:
            mu_sh = berlekamp_massey(seq, nu)
        except SingularRecurrenceError:
            k += 1
            singular += 1
            if singular > params.max_singular_retries:
                raise CharpolyFailure(
                    f"shift increments exhausted at nu={nu} (k reached {k})"
                )
            continue
        mu = taylor_shift(mu_sh, k, nu)
        traces.append(KrylovTrace(i, k, seq, window, u))
        # a single coordinate probe can see only part of the spectrum; the
        # lcm of several coordinates' recurrences from the same iterate pass
        # is the honest joint candidate
        best = mu if best is None else gf.npoly_lcm(best, mu, nu)
        for c in range(extra.shape[1]):
            try:
                mu_c = berlekamp_massey(extra[:, c], nu)
            except SingularRecurrenceError:
                continue
            best = gf.npoly_lcm(best, taylor_shift(mu_c, k, nu), nu)
        attempts += 1
        if len(best) - 1 == n:
            break  # cannot do better than full degree
    if best is None:
        raise CharpolyFailure(f"no probe ran at nu={nu} (budget {budget})")
    # a probe can return a proper divisor of the minimal polynomial without
    # detecting it; everything downstream assumes mu(M) = 0, so check it
    if not annihilates(best, m, nu, rng, params.verify_vectors):
        raise CharpolyFailure(f"candidate of degree {len(best) - 1} is not the "
                              f"minimal polynomial at nu={nu}")
    return best, traces


def _second_symmetric(m: SparseSignedMatrix, nu: int) -> tuple[int, int]:
    """(c1, c2) = leading charpoly coefficients from traces, mod nu."""
    tr = m.trace()
    tr2 = m.trace_of_square()
    c1 = (-tr) % nu
    # (tr^2 - tr(M^2)) is always even over Z because it equals 2*sum_{i<j}(...)
    c2 = ((tr * tr - tr2) // 2) % nu
    return c1, c2


def _coef(poly: np.ndarray, deg_from_top: int) -> int:
    d = len(poly) - 1
    idx = d - deg_from_top
    return int(poly[idx]) if 0 <= idx <= d else 0


def _complete_by_top_coeffs(base: np.ndarray, n: int, c1: int, c2: int, nu: int):
    gap = n - (len(base) - 1)
    g1, g2 = _coef(base, 1), _coef(base, 2)
    if gap == 0:
        return base if (g1 == c1 and g2 == c2) else None
    if gap == 1:
        f1 = (c1 - g1) % nu
        f = np.array([f1, 1], dtype=np.int64)
    elif gap == 2:
        f1 = (c1 - g1) % nu
        f2 = (c2 - g2 - g1 * f1) % nu
        f = np.array([f2, f1, 1], dtype=np.int64)
    else:
        return None
    return gf.npoly_mul(base, f, nu)


def _pow_poly(g: np.ndarray, e: int, nu: int) -> np.ndarray:
    out = np.array([1], dtype=np.int64)
    for _ in range(e):
        out = gf.npoly_mul(out, g, nu)
    return out


def _rank_mod(a: np.ndarray, nu: int) -> int:
    a = a % nu
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if a[i, c] % nu:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, nu)
        a[r] = a[r] * inv % nu
        mask = np.nonzero(a[r + 1 :, c])[0]
        if len(mask):
            a[r + 1 + mask] = (a[r + 1 + mask] - np.outer(a[r + 1 + mask, c], a[r])) % nu
        r += 1
    return r


def charpoly_complete(mu: np.ndarray, m: SparseSignedMatrix, nu: int,
                      traces: list[KrylovTrace], rng) -> CharpolyRecord:
    """Grow the candidate minimal polynomial to the full characteristic
    polynomial, or record an incomplete result (chi None) for the driver."""
    n = m.n
    rec = CharpolyRecord(nu=nu, mu=mu, chi=None, n=n, traces=traces)
    if len(mu) - 1 == n:
        rec.chi = mu
        rec.provenance["completion"] = "minpoly-full-degree"
        return rec
    c1, c2 = _second_symmetric(m, nu)
    chi = _complete_by_top_coeffs(mu, n, c1, c2, nu)
    if chi is not None:
        rec.chi = chi
        rec.provenance["completion"] = "top-coefficients"
        return rec
    # kernel-dimension lower bounds per irreducible factor g of mu: the
    # vectors (t^j * mu/g)(M) u_i lie in ker g(M), which is a vector space
    # over F_nu[t]/(g), so rank/deg(g) bounds the multiplicity from below.
    # (For linear g this is the eigenvector-window bound.)
    factors = []
    for sf, sf_mult in gf.npoly_squarefree_decomposition(mu, nu):
        for prod, d in gf.npoly_distinct_degree(sf, nu):
            for g in gf.npoly_equal_degree_split(prod, d, nu, rng):
                factors.append((g, sf_mult))
    base = mu
    for g, mult in factors:
        dg = len(g) - 1
        qpoly = gf.npoly_divrem(mu, _pow_poly(g, mult, nu), nu)[0]
        vecs = []
        for t in traces:
            qsh = taylor_shift(qpoly, (-t.shift) % nu, nu)
            block = qsh.copy()
            for _ in range(dg):
                if len(block) > m.n:
                    break
                w = (block[:, None] * t.window[: len(block)]).sum(axis=0) % nu
                if w.any():
                    vecs.append(w)
                # multiply by t: shift coefficients up
                block = np.concatenate([np.zeros(1, dtype=np.int64), block])
        if not vecs:
            continue
        r = _rank_mod(np.array(vecs, dtype=np.int64), nu)
        bound = -(-r // dg)  # ceil
        if bound > mult:
            base = gf.npoly_mul(base, _pow_poly(g, bound - mult, nu), nu)
    if len(base) - 1 > n:
        rec.provenance["completion"] = "overshoot"
        return rec
    chi = _complete_by_top_coeffs(base, n, c1, c2, nu)
    if chi is not None:
        rec.chi = chi
        rec.provenance["completion"] = "eigenspace-dims+top-coefficients"
    return rec


def hecke_charpoly(m: SparseSignedMatrix, params: WiedemannParams, rng,
                   nu_start_index: int = 0) -> CharpolyRecord:
    """Characteristic polynomial of m modulo an auxiliary prime, varying
    (u, i), the shift, and the modulus per the retry schedule."""
    if m.n == 0:
        rec = CharpolyRecord(nu=params.nu_list[0], mu=np.array([1], dtype=np.int64),
                             chi=np.array([1], dtype=np.int64), n=0)
        rec.provenance["completion"] = "empty"
        return rec
    history = []
    for round_idx in range(params.max_nus):
        nu = params.nu_list[(nu_start_index + round_idx) % len(params.nu_list)]
        budget = params.retry_budget0 + round_idx
        try:
            mu, traces = wiedemann_minpoly(m, params, rng, nu, budget)
        except CharpolyFailure as e:
            history.append((nu, str(e)))
            continue
        rec = charpoly_complete(mu, m, nu, traces, rng)
        rec.provenance["nu_history"] = history + [(nu, "ok")]
        rec.provenance["budget"] = budget
        if rec.chi is not None:
            return rec
        history.append((nu, f"completion stalled at degree {len(mu) - 1}/{m.n}"))
    raise CharpolyFailure(f"charpoly failed after {params.max_nus} moduli: {history}")
