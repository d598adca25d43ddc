"""Degree certification for the factors of chi_Z beyond the lifting cap.

A degree d in [7, deg/2] is ruled out either because some auxiliary prime nu
admits no degree-d product of irreducible factors of chi_nu (subset-sum DP),
or because every CRT combination of recorded degree-d products violates the
Weil coefficient bound.  Both are certificates; survivors are reported
honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf


class WorkCapExceeded(RuntimeError):
    """This nu is stuck (too slow or too many factors); move to the next."""


@dataclass
class FactorizationModNu:
    nu: int
    factors: list          # np arrays, descending degree, ties lexicographic
    partial_sums: list     # P_k = sum of deg(factors[k:])


@dataclass
class CandidateFactor:
    modulus: int
    residues: tuple        # theta_1..theta_d mod modulus (top coefficients first)
    degree: int


@dataclass
class SieveState:
    possible: set          # degrees not yet ruled out
    # per degree: list of (nu, [products as residue tuples]) with all ways known
    recorded: dict = field(default_factory=dict)
    survivors: dict = field(default_factory=dict)  # degree -> list of CandidateFactor


def factor_mod_nu(chi: np.ndarray, nu: int, rng, max_factors: int = 120,
                  known_factors: list | None = None) -> FactorizationModNu:
    """Full irreducible factorization of the cuspidal chi mod nu: squarefree
    decomposition, distinct-degree, equal-degree splitting, and a Rabin
    certificate per factor.  Known true factors are divided out first."""
    chi = np.asarray(chi, dtype=np.int64) % nu
    if known_factors:
        for kf, mult in known_factors:
            g = np.array(kf, dtype=np.int64) % nu
            for _ in range(mult):
                q, r = gf.npoly_divrem(chi, g, nu)
                if len(r):
                    raise ArithmeticError("known factor does not divide chi mod nu")
                chi = q
    out = []
    for sf, mult in gf.npoly_squarefree_decomposition(chi, nu):
        for prod, d in gf.npoly_distinct_degree(sf, nu):
            pieces = gf.npoly_equal_degree_split(prod, d, nu, rng)
            for g in pieces:
                if not gf.npoly_rabin_irreducible(g, nu):
                    raise ArithmeticError("equal-degree split returned a reducible")
                out.extend([g] * mult)
            if len(out) > max_factors:
                raise WorkCapExceeded(
                    f"chi mod {nu} has more than {max_factors} factors"
                )
    out.sort(key=lambda g: (-(len(g) - 1), tuple(int(x) for x in g)))
    psums = []
    total = 0
    for g in reversed(out):
        total += len(g) - 1
        psums.append(total)
    psums.reverse()
    return FactorizationModNu(nu, out, psums)


def subset_sum_degrees(fact: FactorizationModNu, possible: set, eta: int):
    """The capped subset-sum DP: delta maps a reachable degree to either the
    set of index-sets achieving it (at most eta) or None ('null', too many).
    Returns (reachable degrees, delta)."""
    delta: dict[int, set | None] = {0: {frozenset()}}
    degs = [len(g) - 1 for g in fact.factors]
    if not possible:
        return set(delta.keys()), delta
    for k, dk in enumerate(degs):
        # window anchored to the full target set: ways into already-reached
        # degrees must keep accumulating for the CRT step to stay exhaustive
        window_lo = min(possible) - fact.partial_sums[k]
        window_hi = max(possible)
        dom = list(delta.keys())
        window = range(max(0, window_lo), window_hi + 1)
        iterate = dom if len(dom) <= len(window) else [d for d in window if d in delta]
        for d in sorted(iterate, reverse=True):
            nd = d + dk
            if nd > window_hi:
                continue
            cur = delta.get(d)
            if cur is None:
                new = None
            else:
                new = {h | {k} for h in cur if k not in h}
                if not new:
                    continue
            if nd not in delta:
                delta[nd] = new if (new is None or len(new) <= eta) else None
            else:
                tgt = delta[nd]
                if tgt is None or new is None:
                    delta[nd] = None
                else:
                    merged = tgt | new
                    delta[nd] = merged if len(merged) <= eta else None
    return set(delta.keys()), delta


def _product_residues(fact: FactorizationModNu, index_set: frozenset) -> tuple:
    nu = fact.nu
    prod = np.array([1], dtype=np.int64)
    for k in sorted(index_set):
        prod = gf.npoly_mul(prod, fact.factors[k], nu)
    d = len(prod) - 1
    # theta_j = coefficient of t^(d-j), j = 1..d
    return tuple(int(prod[d - j]) % nu for j in range(1, d + 1))


def _theta_bound(d: int, j: int) -> int:
    return math.floor(math.comb(d, j) * (2 * math.sqrt(2)) ** j)


def _lift_admissible(residue: int, modulus: int, bound: int) -> bool:
    r = residue % modulus
    lift = r if r <= modulus // 2 else r - modulus
    if abs(lift) <= bound:
        return True
    # the two lifts nearest zero are lift and lift -+ modulus
    other = lift - modulus if lift > 0 else lift + modulus
    return abs(other) <= bound


def weil_crt_eliminate(state: SieveState, degree: int) -> list[CandidateFactor]:
    """CRT-combine every recorded way to reach `degree` across the nu's and
    keep only candidates whose theta_1, theta_2 admit Weil-bounded lifts."""
    recorded = state.recorded.get(degree, [])
    if not recorded:
        return state.survivors.get(degree, [])
    base = state.survivors.get(
        degree, [CandidateFactor(1, tuple([0] * degree), degree)]
    )
    for nu, products in recorded:
        new = []
        for cand in base:
            for prod in products:
                m = cand.modulus * nu
                residues = tuple(
                    _crt(cand.residues[j], cand.modulus, prod[j], nu)
                    for j in range(degree)
                )
                new.append(CandidateFactor(m, residues, degree))
        base = new
    state.recorded[degree] = []
    kept = []
    for cand in base:
        ok = True
        for j in (1, 2):
            if j > degree:
                continue
            if not _lift_admissible(cand.residues[j - 1], cand.modulus,
                                    _theta_bound(degree, j)):
                ok = False
                break
        if ok:
            kept.append(cand)
    state.survivors[degree] = kept
    return kept


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    if m1 == 1:
        return r2 % m2
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)


@dataclass
class DegreeReport:
    block: str
    dim: int
    known_degrees: list
    eliminated: list
    undetermined: list
    certified_remainder: int | None
    nus_used: list


def certify_degrees(chi_provider, dim: int, known_factors: list, block: str,
                    nu_list, rng, eta: int = 5, max_factors: int = 120,
                    nu_budget: int = 12) -> DegreeReport:
    """Run the sieve for one Atkin-Lehner block.

    chi_provider(nu) must return the full charpoly of the block mod nu (or
    raise); known_factors are (poly, multiplicity) pairs already determined
    by lifting, divided out before factoring.
    """
    known_total = sum((len(kf) - 1) * mult for kf, mult in known_factors)
    reduced_dim = dim - known_total
    top = reduced_dim // 2
    possible = set(range(7, top + 1))
    state = SieveState(possible=set(possible))
    if not possible:
        return DegreeReport(block, dim, [len(kf) - 1 for kf, _ in known_factors],
                            [], [], reduced_dim if reduced_dim > 0 else None, [])
    used = []
    for nu in nu_list[:nu_budget]:
        if not state.possible:
            break
        try:
            chi = chi_provider(nu)
            fact = factor_mod_nu(chi, nu, rng, max_factors, known_factors)
        except WorkCapExceeded:
            continue
        used.append(nu)
        reachable, delta = subset_sum_degrees(fact, state.possible, eta)
        state.possible &= reachable
        for d in sorted(state.possible):
            ways = delta.get(d)
            if ways is not None:
                state.recorded.setdefault(d, []).append(
                    (nu, [_product_residues(fact, h) for h in ways])
                )
        for d in sorted(state.possible):
            if state.recorded.get(d):
                survivors = weil_crt_eliminate(state, d)
                if not survivors:
                    state.possible.discard(d)
    eliminated = sorted(possible - state.possible)
    undetermined = sorted(state.possible)
    certified = reduced_dim if (not undetermined and reduced_dim > top) else None
    if reduced_dim == 0:
        certified = None
    return DegreeReport(block, dim, [len(kf) - 1 for kf, _ in known_factors],
                        eliminated, undetermined, certified, used)
