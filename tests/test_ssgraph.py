import hashlib

import numpy as np
import pytest

import oracles
from ssforms import gf, ssgraph
from ssforms.linalg import NU_DEFAULTS, SparseSignedMatrix


def test_supersingular_count_examples():
    assert ssgraph.supersingular_count(11) == 2
    assert ssgraph.supersingular_count(13) == 1
    assert ssgraph.supersingular_count(37) == 3
    with pytest.raises(ValueError):
        ssgraph.supersingular_count(3)


def test_count_formula_vs_brute_force(rng):
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        rational = oracles.brute_supersingular_js(p)
        sset, B = ssgraph.build_adjacency(p, rng)
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
    sset, T = ssgraph.build_adjacency(11, rng)
    assert isinstance(T, SparseSignedMatrix)
    assert sset.vertices == [(0, 0), (1, 0)]
    assert T.to_dense().tolist() == [[0, 3], [2, 1]]
    sset13, T13 = ssgraph.build_adjacency(13, rng)
    assert len(sset13) == 1 and T13.to_dense().tolist() == [[3]]


def _t_ell(p, ell, rng):
    """The ell=2 vertex set of level p and T_ell in its order: the walk's
    own T_2, or T_ell by vertex matching for ell >= 3."""
    sset, T = ssgraph.build_adjacency(p, rng)
    return sset, T if ell == 2 else ssgraph.hecke_matrix(sset, ell)


def test_row_sums_and_equivariance(rng):
    for p, ell in [(11, 2), (37, 2), (101, 2), (101, 3), (199, 5)]:
        sset, T = _t_ell(p, ell, rng)
        B = T.to_dense()
        assert (B.sum(axis=1) == ell + 1).all()
        c = sset.conj
        n = len(sset)
        assert (B[np.ix_(c, c)] == B).all()


def test_weighted_symmetry(rng):
    for p, ell in [(11, 2), (23, 2), (101, 2), (101, 3)]:
        sset, T = _t_ell(p, ell, rng)
        B = T.to_dense()
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
    sset, B = ssgraph.build_adjacency(11, rng)
    al = ssgraph.split_atkin_lehner(B, sset)
    assert al.plus.n == 0
    assert al.minus.to_dense().tolist() == [[0, 3], [2, 1]]
    sset37, T37 = ssgraph.build_adjacency(37, rng)
    al37 = ssgraph.split_atkin_lehner(T37, sset37)
    assert al37.plus.n + al37.minus.n == 3
    nu = NU_DEFAULTS[0]
    chi_b = oracles.hessenberg_charpoly_mod(T37.to_dense(), nu)
    chi_p = oracles.hessenberg_charpoly_mod(al37.plus.to_dense(), nu)
    chi_m = oracles.hessenberg_charpoly_mod(al37.minus.to_dense(), nu)
    assert gf.npoly_mul(chi_p, chi_m, nu).tolist() == chi_b.tolist()


def test_chi_product_and_eisenstein(rng):
    nus = NU_DEFAULTS[:3]
    for p in (11, 23, 37, 101, 389, 503):
        for ell in (2, 3):
            sset, T = _t_ell(p, ell, rng)
            al = ssgraph.split_atkin_lehner(T, sset)
            nu = nus[0]
            chi_b = oracles.hessenberg_charpoly_mod(T.to_dense(), nu)
            chi_p = oracles.hessenberg_charpoly_mod(al.plus.to_dense(), nu)
            chi_m = oracles.hessenberg_charpoly_mod(al.minus.to_dense(), nu)
            assert gf.npoly_mul(chi_p, chi_m, nu).tolist() == chi_b.tolist()
            # Eisenstein eigenvalue ell+1 sits in the minus block, multiplicity 1
            assert oracles.npoly_eval(chi_m, ell + 1, nu) == 0
            der = gf.npoly_derivative(chi_m, nu)
            assert any(oracles.npoly_eval(gf.npoly_derivative(
                oracles.hessenberg_charpoly_mod(al.minus.to_dense(), q), q),
                ell + 1, q) != 0 for q in nus)
            assert any(oracles.npoly_eval(
                oracles.hessenberg_charpoly_mod(al.plus.to_dense(), q),
                ell + 1, q) != 0 for q in nus) or al.plus.n == 0


def test_bfs_start_independence(rng):
    # the characteristic polynomial must not depend on the starting vertex
    p = 101
    sset, T = ssgraph.build_adjacency(p, rng)
    nu = NU_DEFAULTS[0]
    chi = oracles.hessenberg_charpoly_mod(T.to_dense(), nu)
    rational = [v[0] for v in sset.vertices if v[1] == 0]
    for j0 in rational[:3]:
        s2, T2 = ssgraph.build_adjacency(p, rng, start_j=j0)
        assert sorted(s2.vertices) == sorted(sset.vertices)
        assert oracles.hessenberg_charpoly_mod(T2.to_dense(), nu).tolist() == chi.tolist()


def test_bfs_wrong_start_fails_loudly(rng):
    # an ordinary j-invariant cannot complete the walk
    p = 101
    ss = set(oracles.brute_supersingular_js(p))
    bad = next(j for j in range(p) if j not in ss)
    with pytest.raises(ssgraph.GraphError):
        ssgraph.build_adjacency(p, rng, start_j=bad)


def test_wrong_start_without_rational_neighbour_fails_at_once(rng):
    # Phi_2(2, y) has no root in F_101, so the walk stops before it starts
    assert not gf.npoly_linear_roots(_phi2_at(101, 2), 101, rng)
    with pytest.raises(ssgraph.GraphError, match="no root in F_101"):
        ssgraph.build_adjacency(101, rng, start_j=2)


def _phi2_at(p, j):
    """Phi_2(j, y) mod p, lowest-first, straight from the bundled grid."""
    grid = ssgraph.bundled_modular_polynomials()[2]
    return np.array([sum(grid.get((i, k), 0) * j**i for i in range(4)) % p
                     for k in range(4)], dtype=np.int64)


def test_start_cubic_has_a_rational_root(rng):
    # the walk's start lemma: an irreducible cubic over F_p has its roots in
    # F_{p^3}, so Phi_2(j, y) of a supersingular j in F_p has a root in F_p
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 101, 389):
        for j in oracles.brute_supersingular_js(p):
            assert gf.npoly_linear_roots(_phi2_at(p, j), p, rng), (p, j)
    # repeated roots: at p = 11, j0 = 0 and Phi_2(0, y) = (y - 1)^3; at
    # p = 13 the one vertex j = 5 has Phi_2(5, y) = (y - 5)^3, a triple loop
    assert _phi2_at(11, 0).tolist() == [10, 3, 8, 1]
    assert gf.npoly_linear_roots(_phi2_at(11, 0), 11, rng) == [1]
    assert _phi2_at(13, 5).tolist() == [5, 10, 11, 1]
    assert gf.npoly_linear_roots(_phi2_at(13, 5), 13, rng) == [5]


def test_walk_from_j_0_and_1728(rng):
    # j = 0 (p = 2 mod 3) and j = 1728 (p = 3 mod 4) carry extra
    # automorphisms, so their cubics have repeated roots and their rows of
    # T_2 repeat edges; the walk from either start matches the oracle BFS
    starts = 0
    for p in range(5, 400):
        if not gf.is_probable_prime(p):
            continue
        for j0, ok in ((0, p % 3 == 2), (1728, p % 4 == 3)):
            if not ok:
                continue
            sset, T = ssgraph.build_adjacency(p, rng, start_j=j0)
            s_bfs, B = oracles.bfs_adjacency(p, 2, rng, start_j=j0)
            assert sset.vertices[0] == (j0 % p, 0)
            assert sorted(sset.vertices) == sorted(s_bfs.vertices), (p, j0)
            assert (T.to_dense() == oracles.permuted_to(B, s_bfs, sset)).all(), (p, j0)
            starts += 1
    # the default start is one of the two at p = 11 and p = 7
    assert ssgraph.find_starting_j(11) == 0 and ssgraph.find_starting_j(7) == 1728 % 7
    assert starts == 78


def test_walk_matches_bfs_oracle(rng):
    # the same vertex set and the same T_2 up to the vertex order, which may
    # differ because the start's roots come out in another order
    for p in range(5, 2001):
        if not gf.is_probable_prime(p):
            continue
        sset, T = ssgraph.build_adjacency(p, rng)
        s_bfs, B = oracles.bfs_adjacency(p, 2, rng)
        assert sorted(sset.vertices) == sorted(s_bfs.vertices), p
        assert (T.to_dense() == oracles.permuted_to(B, s_bfs, sset)).all(), p


def test_graph_cache_roundtrip(rng):
    sset, T = ssgraph.build_adjacency(101, rng)
    text = ssgraph.graph_to_text(sset, T)
    s2, T2 = ssgraph.graph_from_text(text)
    assert s2.vertices == sset.vertices
    for f in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(T2, f), getattr(T, f))
    assert (s2.conj == sset.conj).all()
    assert ssgraph.graph_to_text(s2, T2) == text


# The level-37 cache file, as written by the dense-matrix graph store: one
# rational vertex and one conjugate pair, with a double edge
GRAPH_37 = "37 3\n8 0\n3 10\n3 27\n0 0 1\n0 1 1\n0 2 1\n1 0 1\n1 2 2\n2 0 1\n2 1 2\n"


def test_graph_cache_format_is_stable():
    sset, T = ssgraph.build_adjacency(37, np.random.default_rng([0, 37]))
    assert ssgraph.graph_to_text(sset, T) == GRAPH_37
    s2, T2 = ssgraph.graph_from_text(GRAPH_37)
    assert s2.vertices == [(8, 0), (3, 10), (3, 27)]
    assert s2.conj.tolist() == [0, 2, 1]
    assert T2.to_dense().tolist() == [[1, 1, 1], [1, 0, 2], [1, 2, 0]]
    assert ssgraph.graph_to_text(s2, T2) == GRAPH_37


def _bfs_in_order(sset, ell, rng):
    """The oracle BFS's T_ell, re-indexed to the vertex order of sset."""
    s_ell, B = oracles.bfs_adjacency(sset.p, ell, rng)
    return oracles.permuted_to(B, s_ell, sset)


def test_hecke_matrix_matches_bfs(rng):
    small_p = multi_edge = 0
    for p in range(5, 301):
        if not gf.is_probable_prime(p):
            continue
        sset, _ = ssgraph.build_adjacency(p, rng)
        special = [i for i, v in enumerate(sset.vertices) if v in ((0, 0), (1728 % p, 0))]
        for ell in (3, 5, 7, 11, 13):
            if ell == p:
                continue
            T = ssgraph.hecke_matrix(sset, ell)
            assert isinstance(T, SparseSignedMatrix)
            B = T.to_dense()
            assert (B == _bfs_in_order(sset, ell, rng)).all(), (p, ell)
            small_p += p <= ell + 1
            multi_edge += int((B[special] > 1).any())
    # the Hasse-derivative multiplicities are exercised where p <= ell+1 and
    # at the j = 0 / 1728 rows, whose edges repeat
    assert small_p == 6 and multi_edge > 0


def test_hecke_matrix_matches_bfs_1399_ell13(rng):
    sset, _ = ssgraph.build_adjacency(1399, rng)
    T = ssgraph.hecke_matrix(sset, 13)
    assert (T.to_dense() == _bfs_in_order(sset, 13, rng)).all()


def test_hecke_matrix_missing_vertex_fails_loudly(rng):
    sset, _ = ssgraph.build_adjacency(101, rng)
    # drop one F_p-rational vertex; the conjugation map stays an involution
    drop = int(np.nonzero(sset.conj == np.arange(len(sset)))[0][-1])
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


def _same_csr(a, b):
    return a.n == b.n and all(np.array_equal(getattr(a, f), getattr(b, f))
                              for f in ("indptr", "indices", "data"))


def _check_split_against_dense(sset, T):
    al = ssgraph.split_atkin_lehner(T, sset)
    want = oracles.dense_split_atkin_lehner(T.to_dense(), sset)
    assert _same_csr(al.plus, want.plus) and _same_csr(al.minus, want.minus)
    assert al.plus_orbits == want.plus_orbits
    assert al.minus_orbits == want.minus_orbits


def test_split_matches_dense_oracle(rng):
    for p in range(5, 301):
        if not gf.is_probable_prime(p):
            continue
        sset, T2 = ssgraph.build_adjacency(p, rng)
        _check_split_against_dense(sset, T2)
        for ell in (3, 5, 7, 11, 13):
            if ell != p:
                _check_split_against_dense(sset, ssgraph.hecke_matrix(sset, ell))


def test_split_matches_dense_oracle_7001(rng):
    sset, T = ssgraph.build_adjacency(7001, rng)
    assert (sset.conj != np.arange(len(sset))).any()
    _check_split_against_dense(sset, T)
