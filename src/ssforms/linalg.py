"""Sparse exact linear algebra over F_nu: Wiedemann minimal polynomial with
shift/retry/modulus variation, Berlekamp-Massey, and characteristic-polynomial
completion from trace coefficients and eigenspace-dimension bounds.

Each Krylov probe records the sequence of one main coordinate and of a few
extra columns.  Berlekamp-Massey (numpy, one chunked dot product per step)
always runs on the main coordinate; an extra column runs it only when the
current candidate fails to annihilate that column's whole sequence, checked
by one vectorised residual.  When the candidate does annihilate it, the
column's recurrence divides the candidate, so skipping it changes nothing.
"""

from __future__ import annotations

import functools
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


_as_python_ints = np.frompyfunc(int, 1, 1)


class SparseSignedMatrix:
    """Row-compressed square matrix with small signed integer entries: per
    row, sorted column indices and no stored zeros.  The scipy view used for
    products is built on first use."""

    def __init__(self, n: int, indptr, indices, data):
        self.n = n
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.int64)

    @functools.cached_property
    def _csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n), dtype=np.int64
        )

    @classmethod
    def from_triples(cls, n: int, rows, cols, data) -> "SparseSignedMatrix":
        """The n x n matrix with entries data[t] at (rows[t], cols[t]); repeated
        positions are summed and zero sums dropped."""
        keys, where = np.unique(np.asarray(rows, dtype=np.int64) * n
                                + np.asarray(cols, dtype=np.int64), return_inverse=True)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, where, np.asarray(data, dtype=np.int64))
        nonzero = sums != 0
        keys, sums = keys[nonzero], sums[nonzero]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            keys = keys % n
        return cls(n, indptr, keys, sums)

    @classmethod
    def from_dense(cls, arr) -> "SparseSignedMatrix":
        arr = np.asarray(arr, dtype=np.int64)
        rows, cols = np.nonzero(arr)
        return cls.from_triples(arr.shape[0], rows, cols, arr[rows, cols])

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data) of the stored entries, row by row."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices, self.data

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec_mod(self, v: np.ndarray, nu: int) -> np.ndarray:
        return (self._csr @ v) % nu

    def matvec_exact(self, v) -> np.ndarray:
        """Exact integer product; in Python integers (object dtype) for big
        entries."""
        v = np.asarray(v)
        if v.dtype == object or (len(v) and max(abs(int(x)) for x in v.ravel()) > 2**40):
            rows, cols, data = self.triples()
            out = np.zeros(self.n, dtype=object)
            np.add.at(out, rows, data.astype(object) * _as_python_ints(v)[cols])
            return out
        return self._csr @ v.astype(np.int64)

    def trace(self) -> int:
        return int(self._csr.diagonal().sum())

    def trace_of_square(self) -> int:
        """tr(M^2) = sum_{i,j} M[i][j] M[j][i] straight off the sparse entries."""
        return int(self._csr.multiply(self._csr.T).sum())


def berlekamp_massey(seq, nu: int) -> np.ndarray:
    """Monic minimal-length recurrence polynomial of a scalar sequence mod nu.

    Returns mu with mu[deg] = 1 (lowest-first) such that
    sum_j mu[j] s[k+j] = 0 for all valid k.  Raises SingularRecurrenceError
    when the minimal recurrence has zero constant term (the matrix behind the
    sequence is singular; callers respond by shifting the spectrum).

    The connection polynomials C and B live in preallocated int64 arrays;
    len_c and len_b are their logical lengths, which never exceed len(seq).
    Each step's discrepancy is one chunked dot product, and each update one
    slice operation, whose products coef * B stay below nu^2 <= 2^60 because
    gf.dot_mod has already rejected any larger nu.
    """
    s = np.asarray(seq)
    if s.dtype.kind == "i":
        s = s.astype(np.int64) % nu
    else:
        s = np.array([int(x) % nu for x in seq], dtype=np.int64)
    N = len(s)
    rev = s[::-1].copy()  # rev[N-1-n : N-n+L] = s[n], s[n-1], ..., s[n-L]
    C = np.zeros(N + 1, dtype=np.int64)
    B = np.zeros(N + 1, dtype=np.int64)
    C[0] = B[0] = 1
    len_c = len_b = 1
    L, m, b = 0, 1, 1
    for n_ in range(N):
        d = int(gf.dot_mod(C[: L + 1], rev[N - 1 - n_ : N - n_ + L], nu))
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, -1, nu) % nu
        new_len = max(len_c, len_b + m)
        if 2 * L <= n_:
            T = C[:len_c].copy()
            C[m : m + len_b] = (C[m : m + len_b] - coef * B[:len_b]) % nu
            B[:len_c] = T
            len_b, len_c = len_c, new_len
            L = n_ + 1 - L
            b = d
            m = 1
        else:
            C[m : m + len_b] = (C[m : m + len_b] - coef * B[:len_b]) % nu
            len_c = new_len
            m += 1
    # connection poly C(x) = 1 + c_1 x + ... ; monic recurrence = reversal
    mu = C[L::-1].copy()
    if mu[0] == 0:
        raise SingularRecurrenceError("minimal recurrence divisible by t")
    return mu


def _annihilates_sequence(f: np.ndarray, s: np.ndarray, nu: int) -> bool:
    """sum_i f[i] s[j+i] = 0 mod nu for every window j of s."""
    windows = np.lib.stride_tricks.sliding_window_view(s, len(f))
    return not gf.dot_mod(windows, f, nu).any()


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
    shift: int
    seq: np.ndarray           # (M + shift)^j u at the probe coordinate, j < 2n+10
    window: np.ndarray        # first min(1000, n) coords of the iterates, j < n


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


def _random_start_vector(n: int, density: int, rng, nu: int) -> np.ndarray:
    """Uniform nonzero values at `density` random positions, or uniform
    entries, not all zero, when n <= density.  (Ones at those positions made
    a vector nearly constant for n a little above density, blind to
    eigenvectors antisymmetric on a few coordinates.)"""
    if density < n:
        u = np.zeros(n, dtype=np.int64)
        pos = rng.choice(n, size=density, replace=False)
        u[pos] = rng.integers(1, nu, density)
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
    """Exact check that poly(M) u = 0 for `trials` fresh random vectors.

    The vectors are the columns of one n x trials block, so each power of M
    costs one sparse product for all of them.  One draw of trials x n values
    gives the same vectors as `trials` draws of n.  When a vector fails, the
    generator is left where a vector-by-vector check would stop, after the
    first failing vector, so the caller's later draws do not depend on how
    the check is batched."""
    state = rng.bit_generator.state
    v = np.array(rng.integers(0, nu, (trials, m.n)), dtype=np.int64).T
    acc = np.zeros_like(v)
    for k, c in enumerate(poly):
        acc = (acc + int(c) * v) % nu
        if k + 1 < len(poly):
            v = m.matvec_mod(v, nu)
    failed = np.nonzero(acc.any(axis=0))[0]
    if len(failed):
        rng.bit_generator.state = state
        rng.integers(0, nu, (int(failed[0]) + 1, m.n))
    return not len(failed)


def wiedemann_minpoly(m: SparseSignedMatrix, params: WiedemannParams, rng, nu: int,
                      budget: int, stats: dict | None = None
                      ) -> tuple[np.ndarray, list[KrylovTrace]]:
    """Single-modulus probing schedule: up to `budget` (u, i) probes, with the
    shift incremented whenever Berlekamp-Massey signals a singular reduction.
    Returns the highest-degree un-shifted candidate, verified to annihilate
    fresh random vectors, and all stored traces.

    Each probe runs Berlekamp-Massey on its main coordinate.  An extra
    column's sequence is first checked against best(t - k), the current
    candidate in the shifted variable; Berlekamp-Massey runs on it only when
    that check fails, so a probe usually costs one run.  `stats`, when given,
    counts the runs ("bm_runs") and the skipped columns ("bm_skipped")."""
    n = m.n
    traces: list[KrylovTrace] = []
    best: np.ndarray | None = None
    k = params.shift0
    singular = 0
    attempts = 0
    if stats is None:
        stats = {}
    stats.setdefault("bm_runs", 0)
    stats.setdefault("bm_skipped", 0)
    while attempts < budget:
        u = _random_start_vector(n, params.density, rng, nu)
        i = int(rng.integers(0, n))
        cols = rng.choice(n, size=min(n, params.extra_probe_columns), replace=False)
        seq, window, extra = krylov_probe(m, nu, k, u, i, params.window_size, cols)
        stats["bm_runs"] += 1
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
        traces.append(KrylovTrace(k, seq, window))
        # a single coordinate probe can see only part of the spectrum; the
        # lcm of several coordinates' recurrences from the same iterate pass
        # is the honest joint candidate
        best = mu if best is None else gf.npoly_lcm(best, mu, nu)
        best_sh = taylor_shift(best, -k, nu)
        for c in range(extra.shape[1]):
            # Skipping is exact.  The column's minimal generator g has degree
            # L <= n, best_sh has degree <= n, and the sequence has length
            # 2n + 10 >= L + deg best_sh.  A generator of a sequence that long
            # is divisible by g (Massey 1969), so g divides best_sh, and the
            # lcm below would return best unchanged.  A column whose g has
            # zero constant term is skipped by both routes.
            if _annihilates_sequence(best_sh, extra[:, c], nu):
                stats["bm_skipped"] += 1
                continue
            stats["bm_runs"] += 1
            try:
                mu_c = berlekamp_massey(extra[:, c], nu)
            except SingularRecurrenceError:
                continue
            lcm = gf.npoly_lcm(best, taylor_shift(mu_c, k, nu), nu)
            if len(lcm) > len(best):  # a monic multiple of best of its degree is best
                best, best_sh = lcm, taylor_shift(lcm, -k, nu)
        attempts += 1
        if len(best) - 1 == n:
            break  # cannot do better than full degree
    if best is None:
        raise CharpolyFailure(f"no probe ran at nu={nu} (budget {budget})")
    # a probe can return a proper divisor of the minimal polynomial without
    # detecting it; everything downstream assumes mu(M) = 0, so check it.
    # At full degree no check is needed.  Each probe's generator divides the
    # minimal polynomial of M + kI, so best, their lcm shifted back, divides
    # the minimal polynomial of M and so the charpoly.  A monic divisor of
    # the charpoly of degree n is the charpoly, and chi(M) = 0 (Cayley-
    # Hamilton).  The check's draw is still made, so later draws do not move.
    if len(best) - 1 == n:
        rng.integers(0, nu, (params.verify_vectors, n))
    elif not annihilates(best, m, nu, rng, params.verify_vectors):
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


def _row_reduce(a: np.ndarray, nu: int, ncols: int | None = None
                ) -> tuple[np.ndarray, int]:
    """Gauss-Jordan elimination mod the prime nu over the first ncols columns
    of the integer matrix a (all of them by default): (the reduced copy of a,
    the number of pivots).  Pivot rows are scaled to 1 and their columns
    cleared in every other row; entries stay below nu, so each product of two
    is below 2^60."""
    a = a % nu
    rows = a.shape[0]
    r = 0
    for c in range(a.shape[1] if ncols is None else ncols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if not len(nz):
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, nu) % nu
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if len(others):
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % nu
        r += 1
    return a, r


def rank_mod(a: np.ndarray, nu: int) -> int:
    """Rank of the integer matrix a mod the prime nu."""
    return _row_reduce(a, nu)[1]


def inv_mod(a: np.ndarray, nu: int):
    """Inverse of the square integer matrix a mod the prime nu, or None when a
    is singular mod nu."""
    n = a.shape[0]
    aug, rank = _row_reduce(np.concatenate([a % nu, np.eye(n, dtype=np.int64)], axis=1),
                            nu, ncols=n)
    return aug[:, n:] if rank == n else None


def charpoly_complete(mu: np.ndarray, m: SparseSignedMatrix, nu: int,
                      traces: list[KrylovTrace], rng) -> CharpolyRecord:
    """Grow the candidate minimal polynomial to the full characteristic
    polynomial, or record an incomplete result (chi None) for the driver."""
    n = m.n
    rec = CharpolyRecord(nu=nu, mu=mu, chi=None, n=n)
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
        r = rank_mod(np.array(vecs, dtype=np.int64), nu)
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
    stats: dict = {}
    for round_idx in range(params.max_nus):
        nu = params.nu_list[(nu_start_index + round_idx) % len(params.nu_list)]
        budget = params.retry_budget0 + round_idx
        try:
            mu, traces = wiedemann_minpoly(m, params, rng, nu, budget, stats)
        except CharpolyFailure as e:
            history.append((nu, str(e)))
            continue
        rec = charpoly_complete(mu, m, nu, traces, rng)
        rec.provenance["nu_history"] = history + [(nu, "ok")]
        rec.provenance["budget"] = budget
        rec.provenance.update(stats)
        if rec.chi is not None:
            return rec
        history.append((nu, f"completion stalled at degree {len(mu) - 1}/{m.n}"))
    raise CharpolyFailure(f"charpoly failed after {params.max_nus} moduli: {history}")
