"""Newform q-expansions from integer eigenbases via Mestre's identity.

Each eigenbasis vector unfolds to a vector indexed by supersingular
j-invariants; its Mestre sum of dj/(j(q) - j_s) collapses, after pairing
Galois-conjugate vertices (and dividing the anti-invariant case by the
trace-zero generator), to an F_p rational-function tree.  Solving the probe
linear system for beta then expresses every coefficient of the newform in an
integral basis of the Hecke field mod p, and primes are lifted through the
Weil bound while composite coefficients come from Hecke multiplicativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

import numpy as np

from . import gf, numfield, series
from .lift import GaloisOrbit
from .linalg import SparseSignedMatrix

PRECISION_GUARD = 8


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
    disc: int
    reduction_root: int | None   # root of poly mod p, when one exists

    @classmethod
    def build(cls, h: tuple, p: int, rng) -> "HeckeField":
        basis, disc = numfield.integral_basis(list(h))
        fld = numfield.NumberField(list(h))
        hp = np.array([int(c) % p for c in h], dtype=np.int64)
        roots = gf.npoly_linear_roots(hp, p, rng)
        return cls(h, fld, basis, disc, roots[0] if roots else None)

    def to_basis_coords(self, elt) -> list[int]:
        """Integer coordinates of an algebraic integer in the integral basis."""
        d = self.field.deg
        mat = [[self.basis[j][i] for j in range(d)] for i in range(d)]
        sol = numfield._solve_fraction(mat, [Fraction(x) for x in elt])
        out = []
        for x in sol:
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
               use_horner: bool = False, expect_cuspidal: bool = True) -> series.PowerSeries:
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
    s = series.compose_with_reciprocal_j(r, j, absprec + 2, use_horner=use_horner)
    psi = series.series_mul(s, jp, absprec + 1).shift(1).truncate(absprec)
    if expect_cuspidal and not psi.is_zero() and psi.val < 1:
        raise MestreError("Mestre series has a pole; unfolding is inconsistent")
    return psi


def eigenvalue_of(evec, t_mat: SparseSignedMatrix, fld: numfield.NumberField):
    """a_ell with T_ell v = a_ell v for an exact Hecke-field eigenvector,
    asserting consistency at every coordinate."""
    d = fld.deg
    cols = []
    for comp in range(d):
        cols.append(np.array([int(x[comp]) for x in evec], dtype=object))
    image = [t_mat.matvec_exact(c) for c in cols]
    pivot = None
    for i in range(len(evec)):
        if any(cols[c][i] for c in range(d)):
            pivot = i
            break
    if pivot is None:
        raise MestreError("zero eigenvector")
    vi = fld.elt([Fraction(int(cols[c][pivot])) for c in range(d)])
    ti = fld.elt([Fraction(int(image[c][pivot])) for c in range(d)])
    a = fld.mul(ti, fld.inv(vi))
    for i in range(len(evec)):
        vi = fld.elt([Fraction(int(cols[c][i])) for c in range(d)])
        ti = fld.elt([Fraction(int(image[c][i])) for c in range(d)])
        if fld.mul(a, vi) != ti:
            raise MestreError("inconsistent eigenvalue ratios across coordinates")
    return a


@dataclass
class BetaSolve:
    probes: list[int]
    alpha: np.ndarray      # D x len(probes) integer coordinates
    psi_at_probes: np.ndarray
    beta: np.ndarray       # D x D mod p


def solve_beta(alpha_columns: dict[int, list[int]], psis: list[series.PowerSeries],
               p: int) -> BetaSolve:
    """Solve alpha = beta psi (mod p) column by column over the probe primes,
    extending the probe set whenever the system is singular."""
    k = len(psis)
    probes = sorted(alpha_columns)
    if len(probes) < k:
        raise MestreError("not enough probe eigenvalues for the beta solve")
    chosen: list[int] = []
    rows: list[np.ndarray] = []
    from .linalg import _rank_mod

    for ell in probes:
        col = np.array([psi.coeff(ell) for psi in psis], dtype=np.int64) % p
        if _rank_mod(np.array(rows + [col], dtype=np.int64), p) > len(rows):
            rows.append(col)
            chosen.append(ell)
        if len(chosen) == k:
            break
    if len(chosen) < k:
        raise MestreError(
            f"psi probe matrix is singular at every prime in {probes}"
        )
    psi_mat = np.array(rows, dtype=np.int64).T % p  # k x k: psi_j[ell_i]
    alpha_mat = np.array([alpha_columns[ell] for ell in chosen], dtype=np.int64).T % p
    from .lift import _inv_mod

    inv = _inv_mod(psi_mat, p)
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
        if not _is_prime(n):
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
        m = _smallest_prime_factor(n)
        k = 1
        while n % (m ** (k + 1)) == 0:
            k += 1
        mk = m**k
        if mk == n and k >= 2:
            if m == p:
                elt = fld.pow(fld.scale(fld.one, a_p), k)
            else:
                prev1 = avals[mk // m]
                prev2 = avals[mk // (m * m)]
                elt = fld.sub(fld.mul(avals[m], prev1), fld.scale(prev2, m))
        else:
            elt = fld.mul(avals[mk], avals[n // mk])
        coords = hecke.to_basis_coords(elt)
        check_mod_p(n, coords)
        avals[n] = elt
        coords_out[n] = coords

    coeffs = [coords_out[n] for n in range(1, n_coeffs + 1)]
    return QExpansion(orbit.level, orbit.block, orbit.rho, hecke, coeffs, a_p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _smallest_prime_factor(n: int) -> int:
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return q
    return n
