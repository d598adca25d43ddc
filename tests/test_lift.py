import numpy as np
import pytest
import sympy
from fractions import Fraction

import oracles
from ssforms import gf, lift, linalg, pipeline, ssgraph


def test_candidate_degree_1():
    assert lift.enumerate_candidates(1) == ((-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1))


def test_candidate_degree_2_contents():
    c2 = lift.enumerate_candidates(2)
    assert (-1, 1, 1) in c2        # t^2 + t - 1: roots (-1 +- sqrt5)/2
    assert (-9, 0, 1) not in c2    # root 3 out of range
    assert (-1, 0, 1) not in c2    # reducible
    assert (-8, 0, 1) in c2        # boundary roots +-2*sqrt(2)
    assert len(c2) == 20


def test_candidate_counts_frozen(candidate_lists):
    assert {d: len(v) for d, v in candidate_lists.items()} == {
        1: 5, 2: 20, 3: 80, 4: 665, 5: 6324, 6: 89702,
    }


def test_candidates_pass_independent_sturm(candidate_lists, rng):
    # independent Fraction-based Sturm count on a random sample of each degree
    for d, cands in candidate_lists.items():
        idx = rng.choice(len(cands), size=min(len(cands), 40), replace=False)
        for i in idx:
            poly = list(cands[int(i)])
            if poly == [-8, 0, 1]:
                continue  # boundary roots handled separately
            assert oracles.fraction_sturm_count_in_bound(poly) == d, poly


def test_candidates_irreducible_sample(candidate_lists, rng):
    import sympy

    t = sympy.symbols("t")
    for d in (2, 3, 4):
        cands = candidate_lists[d]
        idx = rng.choice(len(cands), size=20, replace=False)
        for i in idx:
            poly = sum(c * t**k for k, c in enumerate(cands[int(i)]))
            assert sympy.Poly(poly, t).is_irreducible


def test_detect_factors(rng):
    nu = 999983
    # chi = (t+2)(t^2+t-1)^2 (t - 3): detect the candidates with multiplicity
    chi = np.array([1], dtype=np.int64)
    for coeffs, mult in [((2, 1), 1), ((-1, 1, 1), 2), ((-3, 1), 1)]:
        g = np.array(coeffs, dtype=np.int64) % nu
        for _ in range(mult):
            chi = gf.npoly_mul(chi, g, nu)
    found = dict(lift.detect_factors(chi, nu, 6))
    assert found[(2, 1)] == 1
    assert found[(-1, 1, 1)] == 2
    assert (-3, 1) not in found  # t - 3 is not Weil-admissible
    # empty case
    none = lift.detect_factors(np.array([1, 0, 0, 7, 1], dtype=np.int64) % nu, nu, 6)
    assert all((3, 1) != rho for rho, _ in none)


def test_detect_factors_matches_table_on_levels_5_to_500(candidate_lists):
    # both Atkin-Lehner blocks of every prime level in 5..500
    rng = np.random.default_rng(5)
    nu = linalg.NU_DEFAULTS[0]
    found = 0
    for p in sympy.primerange(5, 501):
        sset, T = ssgraph.build_adjacency(p, rng)
        al = ssgraph.split_atkin_lehner(T, sset)
        for blk in (al.minus, al.plus):
            chi = oracles.hessenberg_charpoly_mod(blk.to_dense(), nu)
            want = oracles.table_detect_factors(chi, nu, 6, candidate_lists)
            assert lift.detect_factors(chi, nu, 6) == want, (p, blk.n)
            found += len(want)
    assert found > 100  # the comparison is not vacuous


def _npoly_product(factors, nu):
    chi = np.array([1], dtype=np.int64)
    for coeffs, mult in factors:
        for _ in range(mult):
            chi = gf.npoly_mul(chi, np.array(coeffs, dtype=np.int64) % nu, nu)
    return chi


@pytest.mark.parametrize("factors, nu, g_max", [
    # squared factors, a boundary candidate and a non-candidate
    ([((2, 1), 1), ((-1, 1, 1), 2), ((-3, 1), 1), ((-8, 0, 1), 2)], 999983, 6),
    # t^2 - 5 splits mod 999979 (5 is a square), t^3 - 3t + 1 stays whole
    ([((-5, 0, 1), 2), ((1, -3, 0, 1), 1), ((1, 1), 1)], 999979, 6),
    # a sextic candidate, and a degree cap below it
    ([((-6, 8, 25, -1, -11, 0, 1), 1), ((0, 1), 3)], 999961, 6),
    ([((-6, 8, 25, -1, -11, 0, 1), 1), ((0, 1), 3)], 999961, 3),
])
def test_detect_factors_matches_table_on_constructed_chi(candidate_lists, factors, nu, g_max):
    chi = _npoly_product(factors, nu)
    want = oracles.table_detect_factors(chi, nu, g_max, candidate_lists)
    assert lift.detect_factors(chi, nu, g_max) == want
    planted = {c for c, _ in factors if len(c) - 1 <= g_max and c in candidate_lists[len(c) - 1]}
    assert planted <= {rho for rho, _ in want}


def test_lift_1dim_p11(rng):
    sset, T = ssgraph.build_adjacency(11, rng)
    al = ssgraph.split_atkin_lehner(T, sset)
    rec = linalg.hecke_charpoly(al.minus, rng)
    v = lift.lift_1dim(al.minus, -2, rec.mu, rec.nu, rng)
    assert sorted(np.abs(v).tolist()) == [2, 3]
    assert (al.minus.matvec_exact(v) == -2 * v).all()
    g = int(np.gcd.reduce(np.abs(v)))
    assert g == 1


def test_lift_1dim_p37_both_blocks(rng):
    sset, T = ssgraph.build_adjacency(37, rng)
    al = ssgraph.split_atkin_lehner(T, sset)
    seen = {}
    for name, blk in [("minus", al.minus), ("plus", al.plus)]:
        rec = linalg.hecke_charpoly(blk, rng)
        chi = rec.chi
        if name == "minus":
            chi, r = gf.npoly_divrem(chi, np.array([(-3) % rec.nu, 1]), rec.nu)
            assert not len(r)
        ((rho, mult),) = lift.detect_factors(chi, rec.nu, 6)
        lam = -rho[0]
        v = lift.lift_1dim(blk, lam, rec.mu, rec.nu, rng)
        assert (blk.matvec_exact(v) == lam * v).all()
        seen[name] = lam
    assert sorted(seen.values()) == [-2, 0]  # opposite blocks


def test_lift_1dim_unit_entry_returns_first(rng):
    # an eigenvector whose most common entry is already 1 lifts at c = 1
    A = np.diag([5, 5, 7]).astype(np.int64)
    A[0, 1] = 0
    M = linalg.SparseSignedMatrix.from_dense(A)
    nu = 999983
    mu = np.array([35 % nu, (-12) % nu, 1], dtype=np.int64)  # (t-5)(t-7)
    v = lift.lift_1dim(M, 7, mu, nu, rng)
    assert v.tolist() == [0, 0, 1] or v.tolist() == [0, 0, -1]


def test_lift_highdim_p23(rng):
    sset, T = ssgraph.build_adjacency(23, rng)
    al = ssgraph.split_atkin_lehner(T, sset)
    rec = linalg.hecke_charpoly(al.minus, rng)
    chi, _ = gf.npoly_divrem(rec.chi, np.array([(-3) % rec.nu, 1]), rec.nu)
    ((rho, mult),) = lift.detect_factors(chi, rec.nu, 6)
    assert rho == (-1, 1, 1) and mult == 1

    def t_ell(ell):
        return ssgraph.split_atkin_lehner(ssgraph.hecke_matrix(sset, ell), sset).minus

    hl = lift.lift_highdim(al.minus, rho, 1, rec.mu, rec.nu, rng, t_ell, 23)
    assert hl.sep_ell == 2  # Krylov span is full at ell = 2: early exit
    orbits = lift.separate_orbits(hl, 23, "minus")
    assert len(orbits) == 1 and orbits[0].dim == 2
    for bv in orbits[0].basis:
        w = np.array(bv, dtype=np.int64)
        t2w = al.minus.matvec_exact(w)
        assert (al.minus.matvec_exact(t2w) + t2w - w == 0).all()
        assert int(np.gcd.reduce(np.abs(w[w != 0]))) == 1


@pytest.mark.parametrize("m, bound", [(1, 3), (2, 1), (2, 3), (3, 2), (4, 3), (5, 2), (6, 3)])
def test_shell_columns_match_product_order(m, bound):
    sizes, shells = lift._shell_columns(m, bound, (2 * bound + 1) ** m)
    expected = oracles.shell_columns(m, bound)
    assert [[tuple(c.tolist()) for c in shell] for shell in shells] == expected
    assert sizes == [sum(x * x for x in shell[0]) for shell in expected]


@pytest.mark.parametrize("m, bound", [(2, 3), (4, 3), (5, 2), (6, 3)])
@pytest.mark.parametrize("cap", [1, 5, 50, 4000])
def test_capped_shell_columns_stop_at_the_cap(m, bound, cap):
    sizes, shells = lift._shell_columns(m, bound, cap)
    expected = oracles.shell_columns(m, bound)
    assert [[tuple(c.tolist()) for c in shell] for shell in shells] == expected[: len(shells)]
    assert sizes == [sum(x * x for x in shell[0]) for shell in expected[: len(shells)]]
    counts = np.cumsum([len(shell) for shell in shells])
    if len(shells) < len(expected):
        assert counts[-1] >= cap
    assert len(counts) < 2 or counts[-2] < cap


def test_capped_shell_columns_skip_the_full_grid():
    # 7^10 = 282,475,249 columns in the grid; the cap needs four shells
    sizes, shells = lift._shell_columns(10, 3, lift.HIGHDIM_ATTEMPT_CAP)
    assert sizes == [1, 2, 3, 4]
    # C(10,k) 2^k columns of k entries +-1, plus the 20 with one entry +-2
    assert [len(shell) for shell in shells] == [20, 180, 960, 3380]
    assert sum(len(shell) for shell in shells) < 10**5
    for size, shell in zip(sizes, shells):
        assert ((shell * shell).sum(axis=1) == size).all()
        rows = [tuple(r) for r in shell.tolist()]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)


def test_factor_divides_mod_nu_but_not_over_z(rng):
    # companion blocks of (t^2 - t - 1)(t^2 - 2); mod nu = 5 the candidate
    # t + 2 divides chi_nu ((-2)^2 - (-2) - 1 = 5) but has no integer lift,
    # and under nu' = 7 it stops dividing
    A = np.array([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
                 dtype=np.int64)
    M = linalg.SparseSignedMatrix.from_dense(A)
    chi5 = oracles.hessenberg_charpoly_mod(A, 5)
    found5 = dict(lift.detect_factors(chi5, 5, 2))
    assert (2, 1) in found5
    mu5 = chi5  # squarefree here
    with pytest.raises(lift.LiftFailure):
        lift.lift_1dim(M, -2, mu5, 5, rng)
    chi7 = oracles.hessenberg_charpoly_mod(A, 7)
    found7 = dict(lift.detect_factors(chi7, 7, 2))
    assert (2, 1) not in found7  # excluded under the next modulus


def test_detect_factors_matches_table_for_tiny_nu(candidate_lists):
    # nu below 2 * 1086: a product of factors mod nu has several lifts in
    # the Weil box, and every one that is a candidate is reported
    A = np.array([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
                 dtype=np.int64)
    for nu in (5, 7):
        chi = oracles.hessenberg_charpoly_mod(A, nu)
        for g_max in (1, 2, 3):
            want = oracles.table_detect_factors(chi, nu, g_max, candidate_lists)
            assert lift.detect_factors(chi, nu, g_max) == want, (nu, g_max)


def test_separate_orbits_two_dim1_same_a2():
    # synthetic: two one-dimensional orbits sharing a_2, separated by a_ell
    basis = np.array([[1, 0], [0, 1], [1, 1]], dtype=object)
    hl = lift.HighDimLift(basis=basis, s_matrix=[[2, 0], [0, -1]], sep_ell=3,
                          rho=(-1, 1), multiplicity=2)
    orbits = lift.separate_orbits(hl, 9999991 if False else 101, "minus")
    assert sorted(o.field_poly for o in orbits) == [(-2, 1), (1, 1)]
    for o in orbits:
        assert o.dim == 1 and len(o.basis) == 1


def test_separate_orbits_rejects_repeated_chi_s():
    basis = np.array([[1, 0], [0, 1]], dtype=object)
    hl = lift.HighDimLift(basis=basis, s_matrix=[[2, 0], [0, 2]], sep_ell=3,
                          rho=(-1, 1), multiplicity=2)
    with pytest.raises(ArithmeticError):
        lift.separate_orbits(hl, 101, "minus")


def test_factor_real_rooted():
    # (t^2 - 2)(t - 1) and an irreducible cubic
    poly = [2, -2, -1, 1]  # (t-1)(t^2-2)
    factors = sorted(lift.factor_real_rooted(poly))
    assert factors == [[-2, 0, 1], [-1, 1]]
    irr = [-1, -2, 1, 1]  # t^3+t^2-2t-1: cyclic cubic, irreducible
    assert lift.factor_real_rooted(irr) == [irr]
    with pytest.raises(ValueError):
        lift.factor_real_rooted([1, 0, 1])  # t^2 + 1 has no real root


def test_level_67_saturates_its_lattice_once(monkeypatch):
    # the only level in 5..1000 whose first solve for S is fractional
    hnf_calls, actions = [], []
    hnf_basis, action_matrix = lift._hnf_basis, lift._action_matrix

    def spy_hnf(vectors, want):
        out = hnf_basis(vectors, want)
        hnf_calls.append((vectors, want, out))
        return out

    def spy_action(t_mat, basis, mdim):
        s = action_matrix(t_mat, basis, mdim)
        actions.append((t_mat, basis.copy(), s))
        return s

    monkeypatch.setattr(lift, "_hnf_basis", spy_hnf)
    monkeypatch.setattr(lift, "_action_matrix", spy_action)
    rep = pipeline.run_level(67, pipeline.RunConfig(level=67))
    assert rep.status == "ok"
    assert len(hnf_calls) == 1
    vectors, want, out = hnf_calls[0]
    assert oracles.same_lattice(out, oracles.hnf_reduce_rows(vectors, want))
    saturated = [basis for _, basis, _ in actions if basis.shape == (len(out[0]), want)
                 and all((basis[:, j] == out[j]).all() for j in range(want))]
    assert len(saturated) == 1
    for t_mat, basis, s in actions:
        # T B = B S exactly, with S integral
        assert all(type(x) is int for row in s for x in row)
        tb = np.array([t_mat.matvec_exact(basis[:, j]) for j in range(len(s))],
                      dtype=object).T
        assert (tb == basis.dot(np.array(s, dtype=object))).all()
