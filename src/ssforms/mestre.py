"""Newform q-expansions from integer eigenbases via Mestre's identity.

Each eigenbasis vector unfolds to a vector indexed by supersingular
j-invariants; its Mestre sum of dj/(j(q) - j_s) collapses, after pairing
Galois-conjugate vertices (and dividing the anti-invariant case by the
trace-zero generator), to an F_p rational-function tree.  Solving the probe
linear system for beta then expresses every coefficient of the newform in an
integral basis of the Hecke field mod p, and primes are lifted through the
Weil bound while composite coefficients come from Hecke multiplicativity.

The exact probe eigenvalues a_ell come from each orbit's integer basis B:
on span(B), T_ell is a polynomial P in the separating operator, whose
eigenvalue theta generates the Hecke field, so a_ell = P(theta).  No
eigenvector with entries in the Hecke field is ever formed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dfield

import numpy as np
from sympy import primefactors

from . import gf, numfield, series
from .lift import GaloisOrbit
from .linalg import SparseSignedMatrix, inv_mod, rank_mod

PRECISION_GUARD = 8
# composite probes n <= this back up the beta solve when the probe primes
# leave the psi matrix singular
COMPOSITE_PROBES_UPTO = 16


class MestreError(RuntimeError):
    pass


class AmbiguousLiftError(MestreError):
    """A coefficient has two Weil-admissible integer lifts (tiny-level
    pathology); aborting is the honest outcome."""


@dataclass
class HeckeField:
    poly: tuple                  # defining minimal polynomial (of a_sep)
    field: numfield.NumberField
    basis: list                  # integral basis, power-basis Fraction tuples
    basis_inverse: list          # rows: power-basis coordinates -> basis coordinates
    disc: int

    @classmethod
    def build(cls, h: tuple) -> "HeckeField":
        basis, disc = numfield.integral_basis(list(h))
        fld = numfield.NumberField(list(h))
        d = fld.deg
        inverse = numfield.solve([[b[i] for b in basis] for i in range(d)],
                                 np.identity(d, dtype=np.int64))
        return cls(h, fld, basis, inverse, disc)

    def to_basis_coords(self, elt) -> list[int]:
        """Integer coordinates of an algebraic integer in the integral basis."""
        out = []
        for row in self.basis_inverse:
            x = sum(r * c for r, c in zip(row, elt))
            if x.denominator != 1:
                raise MestreError(
                    "eigenvalue is not integral in the computed basis "
                    "(possible index divisible by p)"
                )
            out.append(int(x))
        return out

    def from_basis_coords(self, coords) -> tuple:
        d = self.field.deg
        acc = self.field.zero
        for j, c in enumerate(coords):
            acc = self.field.add(acc, self.field.scale(self.basis[j], int(c)))
        return acc


def _vertex_weight(sset, j) -> int:
    """Half the automorphism count: 3 at j=0, 2 at j=1728, else 1."""
    p = sset.p
    if j == (0, 0):
        return 3
    if j == (1728 % p, 0):
        return 2
    return 1


def unfold(u_vec, block: str, sset, orbit_pairs) -> list[series.RationalFunction]:
    """Per-vertex Mestre leaves over F_p for one eigenbasis vector.

    Invariant block: v(j) = v(j^sigma) = u (rational j gets (1+1)u = 2u).
    Anti-invariant block: v(j) = u, v(j^sigma) = -u, rational j gets 0, and
    the conjugate-pair sum is divided by the trace-zero generator xi.

    The unfolded vector is a right eigenvector of the vertex adjacency; the
    functional Mestre's identity wants divides each coordinate by the
    automorphism weight, so every leaf is scaled by 6/w(j) to stay integral
    (the global factor 6 washes out in the beta solve).
    """
    p = sset.p
    leaves = []
    for u, (i, ic) in zip(u_vec, orbit_pairs):
        u = int(u) % p
        if u == 0:
            continue
        j = sset.vertices[i]
        if i == ic:
            if block == "plus":
                continue
            g = 2 * u * (6 // _vertex_weight(sset, j)) % p
            leaves.append(series.RationalFunction(p, [g], [(-j[0]) % p, 1]))
        else:
            tr = sset.ctx.trace(j)
            nm = sset.ctx.norm(j)
            den = [nm % p, (-tr) % p, 1]
            scaled = 6 * u % p
            if block == "minus":
                # u/(x-j) + u/(x-j^sigma) = u(2x - tr)/quad
                leaves.append(
                    series.RationalFunction(p, [(-tr) * scaled % p, 2 * scaled % p], den)
                )
            else:
                # u/(x-j) - u/(x-j^sigma) = u*2b*xi/quad; dividing by xi
                b = j[1]
                if b == 0:
                    continue
                leaves.append(series.RationalFunction(p, [2 * b * scaled % p], den))
    return leaves


def mestre_rhs(u_vec, block: str, sset, orbit_pairs, j: series.PowerSeries,
               jp: series.PowerSeries, absprec: int,
               expect_cuspidal: bool = True) -> series.PowerSeries:
    """psi(q) with psi dq/q = sum_s v_s dj/(j(q) - j_s), an F_p series.

    Cuspidal inputs (anything killed by a Weil-admissible polynomial in T_2)
    produce a series of valuation >= 1; a surviving pole under
    expect_cuspidal signals an unfolding inconsistency.  Eisenstein-type
    smoke inputs may pass expect_cuspidal=False."""
    p = sset.p
    leaves = unfold(u_vec, block, sset, orbit_pairs)
    if not leaves:
        return series.PowerSeries.zero(p, absprec)
    r = series.rational_sum_tree(leaves)
    s = series.compose_with_reciprocal_j(r, j, absprec + 2)
    psi = series.series_mul(s, jp, absprec + 1).shift(1).truncate(absprec)
    if expect_cuspidal and not psi.is_zero() and psi.val < 1:
        raise MestreError("Mestre series has a pole; unfolding is inconsistent")
    return psi


def separating_powers(basis, t_s: SparseSignedMatrix, d: int) -> list[list[np.ndarray]]:
    """powers[k][j] = T_s^k b_j for k < d and each orbit basis vector b_j:
    exact, and taken once per orbit for every ``eigenvalue_of`` call."""
    powers = [[np.asarray(b) for b in basis]]
    for _ in range(d - 1):
        powers.append([t_s.matvec_exact(v) for v in powers[-1]])
    return powers


def eigenvalue_of(powers, t_ell: SparseSignedMatrix, fld: numfield.NumberField):
    """a_ell in K = Q[theta]/(h) for one orbit, from its integer basis B and
    the powers of its separating operator T_s (``separating_powers``).

    T_s acts on span(B) with the irreducible charpoly h and commutes with
    T_ell, so on span(B) T_ell = P(T_s) for exactly one P in Q[t] of degree
    < d, and T_ell acts on the T_s-eigenvector of eigenvalue theta by
    a_ell = P(theta).  P's coefficients come from the Krylov matrix
    [w, T_s w, ..., T_s^(d-1) w] of w = B[:, 0] on d rows where it is
    invertible.  Then T_ell b = P(T_s) b is checked exactly at every
    coordinate of every basis vector b, which covers all of span(B) and so
    every eigenvector in it; MestreError when it fails."""
    d = fld.deg
    images = [t_ell.matvec_exact(b) for b in powers[0]]
    rows, rref = [], []
    for i in range(len(images[0])):
        if numfield.fraction_rank_add(rref, [pw[0][i] for pw in powers]):
            rows.append(i)
            if len(rows) == d:
                break
    else:
        raise MestreError("Krylov matrix of the orbit basis is singular")
    c = [x for (x,) in numfield.solve([[pw[0][i] for pw in powers] for i in rows],
                                      [[images[0][i]] for i in rows])]
    den = math.lcm(*(x.denominator for x in c))
    num = [int(x * den) for x in c]
    for j, image in enumerate(images):
        rhs = sum(ck * np.asarray(pw[j], dtype=object) for ck, pw in zip(num, powers))
        if (den * np.asarray(image, dtype=object) != rhs).any():
            raise MestreError("T_ell is not a polynomial in the separating "
                              f"operator on basis vector {j} of the orbit")
    return fld.elt(c)


@dataclass
class BetaSolve:
    probes: list[int]
    alpha: np.ndarray      # D x len(probes) integer coordinates
    psi_at_probes: np.ndarray
    beta: np.ndarray       # D x D mod p


def solve_beta(alpha_columns: dict[int, list[int]], psis: list[series.PowerSeries],
               p: int, more_probes: Callable[[], dict[int, list[int]]] | None = None
               ) -> BetaSolve:
    """Solve alpha = beta psi (mod p) column by column over the probe primes,
    extending the probe set whenever the system is singular.  When every
    prime leaves it singular, ``more_probes()`` supplies further columns,
    such as the composite probes of ``composite_probes``; those within the
    precision of the psis are tried next."""
    k = len(psis)
    probes = sorted(alpha_columns)
    if len(probes) < k:
        raise MestreError("not enough probe eigenvalues for the beta solve")
    chosen: list[int] = []
    rows: list[np.ndarray] = []

    def choose(candidates):
        for ell in candidates:
            if len(chosen) == k:
                return
            col = np.array([psi.coeff(ell) for psi in psis], dtype=np.int64) % p
            if rank_mod(np.array(rows + [col], dtype=np.int64), p) > len(rows):
                rows.append(col)
                chosen.append(ell)

    choose(probes)
    if len(chosen) < k and more_probes is not None:
        absprec = min(psi.absprec for psi in psis)
        extra = {n: col for n, col in more_probes().items() if n < absprec}
        alpha_columns = {**alpha_columns, **extra}
        choose(sorted(extra))
        probes = sorted(alpha_columns)
    if len(chosen) < k:
        raise MestreError(
            f"psi probe matrix is singular at every probe in {probes}"
        )
    psi_mat = np.array(rows, dtype=np.int64).T % p  # k x k: psi_j[ell_i]
    alpha_mat = np.array([alpha_columns[ell] for ell in chosen], dtype=np.int64).T % p
    inv = inv_mod(psi_mat, p)
    if inv is None:
        raise MestreError(f"chosen psi probe matrix is singular mod {p}")
    beta = alpha_mat @ inv % p
    # consistency at every provided probe, including held-out ones
    for ell in probes:
        col = np.array([psi.coeff(ell) for psi in psis], dtype=np.int64) % p
        want = np.array(alpha_columns[ell], dtype=np.int64) % p
        if ((beta @ col - want) % p).any():
            raise MestreError(f"beta solve inconsistent at held-out probe {ell}")
    return BetaSolve(chosen, alpha_mat, psi_mat, beta)


def composite_probes(exact: dict[int, tuple], fld: numfield.NumberField,
                     p: int) -> dict[int, tuple]:
    """The exact a_n of every composite n <= COMPOSITE_PROBES_UPTO whose
    prime factors all have an exact a_ell in ``exact``, by Hecke
    multiplicativity, as ``q_expansion`` forms them: a_(ell^2) =
    a_ell^2 - ell, a_(mn) = a_m a_n."""
    avals = {1: fld.one, **exact}
    out = {}
    for n in range(4, COMPOSITE_PROBES_UPTO + 1):
        if n in avals or any(q not in exact for q in primefactors(n)):
            continue
        avals[n] = out[n] = _multiplicative_value(n, avals, fld, p)
    return out


@dataclass
class QExpansion:
    level: int
    block: str
    a2_minpoly: tuple
    hecke: HeckeField
    coeffs: list            # coeffs[n-1] = integer coordinate row of a_n
    a_p: int
    provenance: dict = dfield(default_factory=dict)


def _weil_ok(emb: np.ndarray, coords, n: int, slack: float = 1e-6) -> bool:
    vals = emb @ np.array([float(c) for c in coords])
    return bool((np.abs(vals) < 2 * math.sqrt(n) + slack).all())


def q_expansion(orbit: GaloisOrbit, hecke: HeckeField, beta: BetaSolve,
                psis: list[series.PowerSeries], n_coeffs: int, p: int,
                exact_values: dict[int, tuple] | None = None) -> QExpansion:
    """Assemble a_1..a_N: primes are lifted from the series through the Weil
    bound (exact known eigenvalues override), composites follow Hecke
    multiplicativity exactly, and every composite is re-checked against the
    series mod p."""
    d = hecke.field.deg
    fld = hecke.field
    exact_values = dict(exact_values or {})
    psi_rows = np.array(
        [psi.coeff_range(1, n_coeffs + 1) for psi in psis], dtype=np.int64
    )
    series_coords = beta.beta @ psi_rows % p  # d x N,  column n-1 = a_n mod p
    emb = hecke.field.embed_matrix(hecke.basis)

    one_row = [1] + [0] * (d - 1)
    if (series_coords[:, 0] % p != np.array(one_row) % p).any():
        raise MestreError(f"a_1 != 1 (got {series_coords[:, 0]} mod {p})")

    a_p = 1 if orbit.block == "minus" else -1

    avals: dict[int, tuple] = {1: fld.one}
    coords_out: dict[int, list[int]] = {1: one_row}

    def series_col(n):
        return series_coords[:, n - 1]

    def check_mod_p(n, coords):
        col = series_col(n)
        if ((np.array([int(c) for c in coords], dtype=object) - col) % p).any():
            raise MestreError(
                f"coefficient a_{n} violates the Mestre series mod {p}"
            )

    # primes first
    for n in range(2, n_coeffs + 1):
        if not gf.is_probable_prime(n):
            continue
        if n == p:
            elt = fld.scale(fld.one, a_p)
            coords = hecke.to_basis_coords(elt)
            check_mod_p(n, coords)
            avals[n] = elt
            coords_out[n] = coords
            continue
        if n in exact_values:
            elt = exact_values[n]
            coords = hecke.to_basis_coords(elt)
            check_mod_p(n, coords)
        else:
            col = series_col(n)
            coords = [int(x) if x <= p // 2 else int(x) - p for x in col]
            if not _weil_ok(emb, coords, n):
                raise MestreError(
                    f"a_{n} smallest lift violates the Weil bound; wrong basis "
                    "or index pathology"
                )
            # a second admissible lift within a single coordinate shift means
            # the modulus cannot separate candidates at this level
            for i in range(d):
                for delta in (p, -p):
                    alt = list(coords)
                    alt[i] += delta
                    if _weil_ok(emb, alt, n):
                        raise AmbiguousLiftError(
                            f"a_{n}: two Weil-admissible lifts at level {p}"
                        )
            elt = hecke.from_basis_coords(coords)
        avals[n] = elt
        coords_out[n] = coords

    # prime powers and composites by multiplicativity
    for n in range(2, n_coeffs + 1):
        if n in avals:
            continue
        elt = _multiplicative_value(n, avals, fld, p)
        coords = hecke.to_basis_coords(elt)
        check_mod_p(n, coords)
        avals[n] = elt
        coords_out[n] = coords

    coeffs = [coords_out[n] for n in range(1, n_coeffs + 1)]
    return QExpansion(orbit.level, orbit.block, orbit.rho, hecke, coeffs, a_p)


def _multiplicative_value(n: int, avals: dict, fld: numfield.NumberField, p: int):
    """a_n for a composite n from the a_m in avals of its divisors m < n:
    a_(p^k) = a_p^k, a_(ell^k) = a_ell a_(ell^(k-1)) - ell a_(ell^(k-2)) for
    ell != p, and a_(mn) = a_m a_n for coprime m and n."""
    m = primefactors(n)[0]
    k = 1
    while n % (m ** (k + 1)) == 0:
        k += 1
    mk = m**k
    if mk != n:
        return fld.mul(avals[mk], avals[n // mk])
    if m == p:
        return fld.pow(avals[p], k)
    return fld.sub(fld.mul(avals[m], avals[mk // m]), fld.scale(avals[mk // (m * m)], m))

