import hashlib

import numpy as np
import pytest

import oracles
from ssforms import gf, ssgraph
from ssforms.linalg import NU_DEFAULTS


def test_supersingular_count_examples():
    assert ssgraph.supersingular_count(11) == 2
    assert ssgraph.supersingular_count(13) == 1
    assert ssgraph.supersingular_count(37) == 3
    with pytest.raises(ValueError):
        ssgraph.supersingular_count(3)


def test_count_formula_vs_brute_force(rng):
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        rational = oracles.brute_supersingular_js(p)
        sset, B = ssgraph.build_adjacency(p, 2, rng)
        got_rational = sorted(v[0] for v in sset.vertices if v[1] == 0)
        assert got_rational == rational, p
        assert len(sset) == ssgraph.supersingular_count(p)


def test_find_starting_j_examples():
    assert ssgraph.find_starting_j(11) == 0
    assert ssgraph.find_starting_j(13) == 5
    # p = 2003: one of the thirteen CM discriminants is a nonresidue, so the
    # scan fallback never fires
    j = ssgraph.find_starting_j(2003)
    assert any(pow(d % 2003, 1001, 2003) != 1 and jj % 2003 == j
               for d, jj in ssgraph.CM_PAIRS)


def test_fallback_scan_agrees_with_cm_route():
    for p in (11, 13, 37, 101):
        j_scan = ssgraph._fallback_scan(p)
        assert j_scan in oracles.brute_supersingular_js(p)


def test_modular_polynomial_table():
    table = ssgraph.bundled_modular_polynomials()
    assert sorted(table) == [2, 3, 5, 7, 11, 13]
    phi2 = table[2]
    # classical leading structure x^3 + y^3 - x^2 y^2 + ...
    assert phi2[(3, 0)] == 1 and phi2[(0, 3)] == 1 and phi2[(2, 2)] == -1
    for ell, grid in table.items():
        for (i, k), c in grid.items():
            assert grid[(k, i)] == c  # symmetry
        assert max(i for i, _ in grid) == ell + 1  # degree ell+1
    # checksum pinned
    from importlib import resources

    text = resources.files("ssforms.data").joinpath("modular_polynomials.txt").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == ssgraph._MODPOLY_SHA256


def test_adjacency_examples(rng):
    sset, B = ssgraph.build_adjacency(11, 2, rng)
    assert sset.vertices == [(0, 0), (1, 0)]
    assert B.tolist() == [[0, 3], [2, 1]]
    sset13, B13 = ssgraph.build_adjacency(13, 2, rng)
    assert len(sset13) == 1 and B13.tolist() == [[3]]


def test_row_sums_and_equivariance(rng):
    for p, ell in [(11, 2), (37, 2), (101, 2), (101, 3), (199, 5)]:
        sset, B = ssgraph.build_adjacency(p, ell, rng)
        assert (B.sum(axis=1) == ell + 1).all()
        c = sset.conj
        n = len(sset)
        assert (B[np.ix_(c, c)] == B).all()


def test_weighted_symmetry(rng):
    for p, ell in [(11, 2), (23, 2), (101, 2), (101, 3)]:
        sset, B = ssgraph.build_adjacency(p, ell, rng)
        w = np.ones(len(sset), dtype=np.int64)
        for i, v in enumerate(sset.vertices):
            if v == (0, 0):
                w[i] = 3
            elif v == (1728 % p, 0):
                w[i] = 2
        for i in range(len(sset)):
            for k in range(len(sset)):
                assert B[i][k] * w[k] == B[k][i] * w[i]


def test_al_split_examples(rng):
    sset, B = ssgraph.build_adjacency(11, 2, rng)
    al = ssgraph.split_atkin_lehner(B, sset)
    assert al.plus.n == 0
    assert al.minus.to_dense().tolist() == [[0, 3], [2, 1]]
    sset37, B37 = ssgraph.build_adjacency(37, 2, rng)
    al37 = ssgraph.split_atkin_lehner(B37, sset37)
    assert al37.plus.n + al37.minus.n == 3
    nu = NU_DEFAULTS[0]
    chi_b = oracles.hessenberg_charpoly_mod(B37, nu)
    chi_p = oracles.hessenberg_charpoly_mod(al37.plus.to_dense(), nu)
    chi_m = oracles.hessenberg_charpoly_mod(al37.minus.to_dense(), nu)
    assert gf.npoly_mul(chi_p, chi_m, nu).tolist() == chi_b.tolist()


def test_chi_product_and_eisenstein(rng):
    nus = NU_DEFAULTS[:3]
    for p in (11, 23, 37, 101, 389, 503):
        for ell in (2, 3):
            sset, B = ssgraph.build_adjacency(p, ell, rng)
            al = ssgraph.split_atkin_lehner(B, sset)
            nu = nus[0]
            chi_b = oracles.hessenberg_charpoly_mod(B, nu)
            chi_p = oracles.hessenberg_charpoly_mod(al.plus.to_dense(), nu)
            chi_m = oracles.hessenberg_charpoly_mod(al.minus.to_dense(), nu)
            assert gf.npoly_mul(chi_p, chi_m, nu).tolist() == chi_b.tolist()
            # Eisenstein eigenvalue ell+1 sits in the minus block, multiplicity 1
            assert gf.npoly_eval(chi_m, ell + 1, nu) == 0
            der = gf.npoly_derivative(chi_m, nu)
            assert any(gf.npoly_eval(gf.npoly_derivative(
                oracles.hessenberg_charpoly_mod(al.minus.to_dense(), q), q),
                ell + 1, q) != 0 for q in nus)
            assert any(gf.npoly_eval(
                oracles.hessenberg_charpoly_mod(al.plus.to_dense(), q),
                ell + 1, q) != 0 for q in nus) or al.plus.n == 0


def test_bfs_start_independence(rng):
    # the characteristic polynomial must not depend on the starting vertex
    p = 101
    sset, B = ssgraph.build_adjacency(p, 2, rng)
    nu = NU_DEFAULTS[0]
    chi = oracles.hessenberg_charpoly_mod(B, nu)
    rational = [v[0] for v in sset.vertices if v[1] == 0]
    for j0 in rational[:3]:
        s2, B2 = ssgraph.build_adjacency(p, 2, rng, start_j=j0)
        assert sorted(s2.vertices) == sorted(sset.vertices)
        assert oracles.hessenberg_charpoly_mod(B2, nu).tolist() == chi.tolist()


def test_bfs_wrong_start_fails_loudly(rng):
    # an ordinary j-invariant cannot complete the walk
    p = 101
    ss = set(oracles.brute_supersingular_js(p))
    bad = next(j for j in range(p) if j not in ss)
    with pytest.raises(ssgraph.GraphError):
        ssgraph.build_adjacency(p, 2, rng, start_j=bad)


def test_graph_cache_roundtrip(rng):
    sset, B = ssgraph.build_adjacency(101, 2, rng)
    text = ssgraph.graph_to_text(sset, B)
    s2, B2 = ssgraph.graph_from_text(text)
    assert s2.vertices == sset.vertices
    assert (B2 == B).all()
    assert (s2.conj == sset.conj).all()


def _bfs_in_order(sset, ell, rng):
    """build_adjacency's T_ell, re-indexed to the vertex order of sset."""
    s_ell, B = ssgraph.build_adjacency(sset.p, ell, rng)
    pos = {v: i for i, v in enumerate(s_ell.vertices)}
    perm = np.array([pos[v] for v in sset.vertices], dtype=np.int64)
    return B[np.ix_(perm, perm)]


def test_hecke_matrix_matches_bfs(rng):
    small_p = multi_edge = 0
    for p in range(5, 301):
        if not gf._is_probable_prime(p):
            continue
        sset, _ = ssgraph.build_adjacency(p, 2, rng)
        special = [i for i, v in enumerate(sset.vertices) if v in ((0, 0), (1728 % p, 0))]
        for ell in (3, 5, 7, 11, 13):
            if ell == p:
                continue
            B = ssgraph.hecke_matrix(sset, ell)
            assert B.dtype == np.int64
            assert (B == _bfs_in_order(sset, ell, rng)).all(), (p, ell)
            small_p += p <= ell + 1
            multi_edge += int((B[special] > 1).any())
    # the Hasse-derivative multiplicities are exercised where p <= ell+1 and
    # at the j = 0 / 1728 rows, whose edges repeat
    assert small_p == 6 and multi_edge > 0


def test_hecke_matrix_matches_bfs_1399_ell13(rng):
    sset, _ = ssgraph.build_adjacency(1399, 2, rng)
    B = ssgraph.hecke_matrix(sset, 13)
    assert (B == _bfs_in_order(sset, 13, rng)).all()


def test_hecke_matrix_missing_vertex_fails_loudly(rng):
    sset, _ = ssgraph.build_adjacency(101, 2, rng)
    # drop one F_p-rational vertex; the conjugation map stays an involution
    drop = int(np.nonzero(sset.rational_mask())[0][-1])
    keep = [v for i, v in enumerate(sset.vertices) if i != drop]
    index = {v: i for i, v in enumerate(keep)}
    conj = np.array([index[sset.ctx.conj(v)] for v in keep], dtype=np.int64)
    partial = ssgraph.SupersingularSet(101, sset.ctx, keep, conj)
    with pytest.raises(ssgraph.GraphError):
        ssgraph.hecke_matrix(partial, 3)
    with pytest.raises(ValueError):
        ssgraph.hecke_matrix(sset, 101)


def test_hecke_matrix_overflow_guard():
    # (ell+2)(p-1)^2 >= 2^63 would overflow the int64 dot products; the guard
    # fires before any vertex is touched, so a one-vertex set suffices
    p = 2**30 - 35
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    sset = ssgraph.SupersingularSet(p, ctx, [(0, 0)], np.zeros(1, dtype=np.int64))
    with pytest.raises(gf.ModulusError):
        ssgraph.hecke_matrix(sset, 7)
    assert (3 + 2) * (p - 1) ** 2 < 2**63  # ell = 3 stays inside the bound
