import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ssforms import gf, linalg


def random_sparse_matrix(rng, nmax=60):
    """Sparse symmetric with at most four diagonal components (occasionally
    duplicated, forcing repeated characteristic factors): the regime the
    probe-based algorithm serves."""

    def connected(b):
        B = np.zeros((b, b), dtype=np.int64)
        for t in range(1, b):
            v = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
            B[t - 1, t] = v
            B[t, t - 1] = v
        for _ in range(2 * b):
            i, j = rng.integers(0, b), rng.integers(0, b)
            v = int(rng.integers(-3, 4))
            B[i, j] = v
            B[j, i] = v
        return B

    kind = rng.integers(0, 3)
    if kind == 0:
        return connected(int(rng.integers(2, nmax)))
    blocks = []
    for _ in range(int(rng.integers(2, 5))):
        B = connected(int(rng.integers(1, nmax // 4)))
        blocks.append(B)
        if rng.integers(0, 3) == 0:
            blocks.append(B)
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n), dtype=np.int64)
    at = 0
    for B in blocks:
        b = B.shape[0]
        A[at : at + b, at : at + b] = B
        at += b
    perm = rng.permutation(n)
    return A[np.ix_(perm, perm)]


def test_matvec_examples():
    M = linalg.SparseSignedMatrix.from_dense([[0, 3], [2, 1]])
    v = np.array([3, -2], dtype=np.int64) % 101
    assert M.matvec_mod(v, 101).tolist() == [(-6) % 101, 4]
    I = linalg.SparseSignedMatrix.from_dense(np.eye(4, dtype=np.int64))
    u = np.array([5, 6, 7, 8], dtype=np.int64)
    assert I.matvec_mod(u, 101).tolist() == u.tolist()
    Z = linalg.SparseSignedMatrix.from_dense(np.zeros((3, 3), dtype=np.int64))
    assert not Z.matvec_mod(np.ones(3, dtype=np.int64), 101).any()
    with pytest.raises(ValueError):
        M.matvec_mod(np.ones(3, dtype=np.int64), 101)


def test_berlekamp_massey_examples():
    assert linalg.berlekamp_massey([1, 1, 1, 1], 7).tolist() == [6, 1]
    assert linalg.berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21], 7).tolist() == [6, 6, 1]
    seq = [(pow(1, k, 11) + pow(2, k, 11)) % 11 for k in range(8)]
    assert linalg.berlekamp_massey(seq, 11).tolist() == [2, 8, 1]
    with pytest.raises(linalg.SingularRecurrenceError):
        linalg.berlekamp_massey([1, 0, 0, 0, 0, 0], 7)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_berlekamp_massey_roundtrip(data):
    nu = 101
    L = data.draw(st.integers(1, 6))
    rec = [data.draw(st.integers(0, nu - 1)) for _ in range(L)]
    init = [data.draw(st.integers(0, nu - 1)) for _ in range(L)]
    seq = list(init)
    for k in range(L, 3 * L + 6):
        seq.append(sum(rec[i] * seq[k - 1 - i] for i in range(L)) % nu)
    try:
        mu = linalg.berlekamp_massey(seq, nu)
    except linalg.SingularRecurrenceError:
        return
    d = len(mu) - 1
    assert d <= L
    # the returned recurrence reproduces the sequence exactly
    for k in range(len(seq) - d):
        assert sum(int(mu[i]) * seq[k + i] for i in range(d + 1)) % nu == 0


def _matrix_sequences(rng, nu, count):
    """Krylov sequences (M + k I)^j u at one coordinate and at extra columns
    of random sparse matrices, k = 0 included so that singular ones occur."""
    out = []
    for _ in range(count):
        M = linalg.SparseSignedMatrix.from_dense(random_sparse_matrix(rng, nmax=40))
        u = rng.integers(0, nu, M.n)
        i = int(rng.integers(0, M.n))
        cols = rng.choice(M.n, size=min(M.n, 3), replace=False)
        seq, _, extra = linalg.krylov_probe(M, nu, int(rng.integers(0, 3)), u, i, 4, cols)
        out.append(seq)
        out.extend(extra.T)
    return out


@pytest.mark.parametrize("nu", [5, 7, 13, 101, 999983, 2**30 - 35])
def test_berlekamp_massey_matches_python_loop(rng, nu):
    seqs = _matrix_sequences(rng, nu, 12)
    for length in (0, 1, 2, 3, 10, 33, 80):
        seqs.append(rng.integers(0, nu, length))
        sparse = rng.integers(0, nu, length) * (rng.random(length) < 0.2)
        seqs.append(sparse)
        seqs.append(sparse.tolist())
    seqs += [[1, 0, 0, 0, 0, 0], [0] * 9, [nu + 3, 2 * nu + 3, -nu + 3], [2**70 + k for k in range(9)]]
    singular = regular = longest = 0
    for seq in seqs:
        want = oracles.berlekamp_massey_py(seq, nu)
        if want[0] == 0:
            singular += 1
            with pytest.raises(linalg.SingularRecurrenceError):
                linalg.berlekamp_massey(seq, nu)
            continue
        regular += 1
        got = linalg.berlekamp_massey(seq, nu)
        assert got.dtype == np.int64 and got.tolist() == want
        longest = max(longest, len(want) - 1)
    assert singular and regular
    # recurrences longer than one int64-safe chunk (8 terms at 2^30 - 35)
    assert longest > (2**63 - 1) // (nu - 1) ** 2 or nu < 2**20


def test_dot_mod_chunks_stay_exact(rng):
    for nu in (2, 7, 999983, 2**30 - 35, gf.MAX_MODULUS):
        for n in (0, 1, 7, 8, 9, 50):
            a = rng.integers(max(0, nu - 3), nu, (5, n))
            x = rng.integers(max(0, nu - 3), nu, n)
            want = [sum(int(r[t]) * int(x[t]) for t in range(n)) % nu for r in a]
            assert gf.dot_mod(a, x, nu).tolist() == want
            assert int(gf.dot_mod(a[0], x, nu)) == want[0]
            # a vector times a matrix, the shape of a Frobenius product
            assert gf.dot_mod(x, a.T, nu).tolist() == want
    with pytest.raises(gf.ModulusError):
        gf.dot_mod(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64),
                   gf.MAX_MODULUS + 1)


def _same_wiedemann(M, seed, nu, budget):
    """Package and no-skip oracle at one seed: the same best, traces and
    CharpolyFailure, and the same draws left in the generator.  The oracle
    runs the `annihilates` check at every degree, the package only below full
    degree, so a full-degree best (counted in stats["full_degree"]) passes
    the check it skips."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    stats = {}
    try:
        got = linalg.wiedemann_minpoly(M, r1, nu, budget, stats)
    except linalg.CharpolyFailure:
        got = None
    try:
        want = oracles.wiedemann_all_columns(M, r2, nu, budget)
    except linalg.CharpolyFailure:
        want = None
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tolist() == want[0].tolist()
        assert [t.seq.tolist() for t in got[1]] == [t.seq.tolist() for t in want[1]]
    assert r1.bit_generator.state == r2.bit_generator.state
    stats["full_degree"] = got is not None and len(got[0]) - 1 == M.n
    return stats


def test_wiedemann_skip_matches_all_columns_on_random_matrices(rng):
    ran_extra = skipped = full = 0
    for t in range(40):
        M = linalg.SparseSignedMatrix.from_dense(random_sparse_matrix(rng, nmax=40))
        nu = (7, 13, 101, 999983)[t % 4]
        stats = _same_wiedemann(M, t, nu, 2)
        skipped += stats["bm_skipped"]
        # main-coordinate runs are one per probe; the rest ran on extra columns
        ran_extra += stats["bm_runs"] > 2
        full += stats["full_degree"]
    assert skipped and ran_extra
    assert 0 < full < 40  # both sides of the full-degree skip


def test_wiedemann_skip_matches_all_columns_on_hecke_blocks():
    from ssforms import pipeline

    skipped = full = 0
    for p in pipeline._primes_between(5, 300):
        store = pipeline.GraphStore(p, np.random.default_rng(p), None)
        for name in ("minus", "plus"):
            M = store.block(2, name)
            if M.n:
                stats = _same_wiedemann(M, p, 999983, 2)
                skipped += stats["bm_skipped"]
                full += stats["full_degree"]
    assert skipped and full


def test_taylor_shift():
    nu = 101
    f = np.array([3, 2, 1], dtype=np.int64)  # x^2 + 2x + 3
    g = linalg.taylor_shift(f, 5, nu)
    for x in range(10):
        assert oracles.npoly_eval(g, x, nu) == oracles.npoly_eval(f, (x + 5) % nu, nu)


def test_wiedemann_examples(rng):
    M = linalg.SparseSignedMatrix.from_dense([[0, 3], [2, 1]])
    mu, traces = linalg.wiedemann_minpoly(M, rng, 101, 2)
    assert mu.tolist() == [(-6) % 101, 100, 1]  # (t-3)(t+2)
    I5 = linalg.SparseSignedMatrix.from_dense(np.eye(5, dtype=np.int64))
    mu, _ = linalg.wiedemann_minpoly(I5, rng, 101, 2)
    assert mu.tolist() == [100, 1]  # degree 1, far below n
    D = linalg.SparseSignedMatrix.from_dense(np.diag([1, 2]).astype(np.int64))
    mu, _ = linalg.wiedemann_minpoly(D, rng, 101, 3)
    assert mu.tolist() == [2, 98, 1]  # t^2 - 3t + 2


def test_start_vectors_just_above_density_see_every_eigenvalue():
    # a 51 x 51 matrix of acceptance 5's generator (components of sizes 1, 1,
    # 3, 9, 9, 14, 14): with density 50, start vectors of ones at 50
    # positions were nearly constant, and hecke_charpoly failed at 8 of these
    # 20 seeds; uniform nonzero values there miss no eigenvalue
    A = random_sparse_matrix(np.random.default_rng(3284), nmax=60)
    assert A.shape == (51, 51) and linalg.DENSITY == 50
    M = linalg.SparseSignedMatrix.from_dense(A)
    for seed in range(20):
        rec = linalg.hecke_charpoly(M, np.random.default_rng(seed))
        assert rec.chi.tolist() == oracles.hessenberg_charpoly_mod(A, rec.nu).tolist()


def test_shift_invariance(rng, monkeypatch):
    A = np.diag([1, 2, 3, 4, 5]).astype(np.int64)
    M = linalg.SparseSignedMatrix.from_dense(A)
    nu = 999983
    monkeypatch.setattr(linalg, "SHIFT0", 4)
    mu1, _ = linalg.wiedemann_minpoly(M, rng, nu, 2)
    monkeypatch.setattr(linalg, "SHIFT0", 9)
    mu2, _ = linalg.wiedemann_minpoly(M, rng, nu, 2)
    assert mu1.tolist() == mu2.tolist()


def test_charpoly_complete_examples(rng):
    # identity pattern 3x3: mu = t-1, chi = (t-1)^3 via the trace coefficients
    I3 = linalg.SparseSignedMatrix.from_dense(np.eye(3, dtype=np.int64))
    rec = linalg.hecke_charpoly(I3, rng)
    nu = rec.nu
    want = np.array([1], dtype=np.int64)
    for _ in range(3):
        want = gf.npoly_mul(want, np.array([nu - 1, 1], dtype=np.int64), nu)
    assert rec.chi.tolist() == want.tolist()
    assert len(rec.mu) == 2
    # degrees match: chi = mu
    D = linalg.SparseSignedMatrix.from_dense(np.array([[0, 1], [1, 1]], dtype=np.int64))
    rec = linalg.hecke_charpoly(D, rng)
    assert rec.chi.tolist() == rec.mu.tolist()
    # block diag swaps: mu = t^2-1, c2 = -2, chi = (t^2-1)^2
    Mb = linalg.SparseSignedMatrix.from_dense(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert Mb.trace() == 0 and Mb.trace_of_square() == 4
    c1, c2 = linalg._second_symmetric(Mb, 101)
    assert c1 == 0 and c2 == (-2) % 101
    rec = linalg.hecke_charpoly(Mb, rng)
    nu = rec.nu
    t2m1 = np.array([nu - 1, 0, 1], dtype=np.int64)
    assert rec.chi.tolist() == gf.npoly_mul(t2m1, t2m1, nu).tolist()


def test_mu_annihilates_fresh_vectors(rng):
    for _ in range(6):
        A = random_sparse_matrix(rng, nmax=30)
        M = linalg.SparseSignedMatrix.from_dense(A)
        rec = linalg.hecke_charpoly(M, rng)
        assert linalg.annihilates(rec.mu, M, rec.nu, rng, 5)
        assert len(rec.chi) - 1 == M.n
        # chi divisible by mu
        _, r = gf.npoly_divrem(rec.chi, rec.mu, rec.nu)
        assert not len(r)


def _annihilates_vector_by_vector(poly, A, nu, rng, trials):
    """The check one vector at a time, stopping at the first failure."""
    for _ in range(trials):
        v = rng.integers(0, nu, A.shape[0])
        acc = sum(int(c) * (np.linalg.matrix_power(A, k) @ v) for k, c in enumerate(poly))
        if (acc % nu).any():
            return False
    return True


def test_annihilates_block_matches_vector_by_vector():
    # t kills a vector of diag(1, 0) mod 2 exactly when its first entry is 0,
    # so most seeds mix killed and surviving vectors in one block of three:
    # the block check must fail whenever one vector survives, and leave the
    # generator where the vector-by-vector check stops
    A = np.diag([1, 0]).astype(np.int64)
    M = linalg.SparseSignedMatrix.from_dense(A)
    outcomes = []
    for seed in range(64):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = linalg.annihilates(np.array([0, 1]), M, 2, a, 3)
        assert got == _annihilates_vector_by_vector([0, 1], A, 2, b, 3), seed
        assert a.integers(0, 2**32) == b.integers(0, 2**32)
        outcomes.append(got)
    assert 0 < sum(outcomes) < len(outcomes)
    # (t - 1) t kills every vector
    assert linalg.annihilates(np.array([0, 1, 1]), M, 2, np.random.default_rng(0), 3)


def test_rank_and_inverse_mod_match_sympy(rng):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    singular = 0
    for nu in (5, 101, 999983):
        for t in range(30):
            rows, cols = (int(x) for x in rng.integers(1, 7, 2))
            cols = rows if t % 2 else cols
            # a product through k <= min(rows, cols) dimensions, so that rank
            # deficiency is common
            k = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.integers(0, nu, (rows, k)) @ rng.integers(0, 3, (k, cols))
            dm = DomainMatrix([[ZZ(int(x)) for x in row] for row in a], a.shape,
                              ZZ).convert_to(GF(nu))
            rank = dm.rank()
            assert linalg.rank_mod(a, nu) == rank
            if rows != cols:
                continue
            inv = linalg.inv_mod(a, nu)
            if rank < rows:
                assert inv is None
                singular += 1
            else:
                want = [[int(x) % nu for x in row] for row in dm.inv().to_Matrix().tolist()]
                assert inv.tolist() == want
    assert singular > 0


def test_wiedemann_vs_dense_oracle_small(rng):
    for _ in range(30):
        A = random_sparse_matrix(rng, nmax=40)
        M = linalg.SparseSignedMatrix.from_dense(A)
        rec = linalg.hecke_charpoly(M, rng)
        want = oracles.hessenberg_charpoly_mod(A, rec.nu)
        assert rec.chi.tolist() == want.tolist()


def test_sparse_traces_match_dense(rng):
    for n in (0, 1, 2, 7, 30):
        for density in (0.05, 0.3, 1.0):
            A = rng.integers(-4, 5, (n, n)) * (rng.random((n, n)) < density)
            M = linalg.SparseSignedMatrix.from_dense(A)
            assert M.trace() == int(np.trace(A))
            assert M.trace_of_square() == int(np.trace(A @ A))


def test_from_triples_sums_drops_and_sorts():
    M = linalg.SparseSignedMatrix.from_triples(
        3, [2, 0, 2, 0, 1, 1], [1, 2, 1, 0, 1, 1], [1, 5, 2, -4, 3, -3])
    assert M.indptr.tolist() == [0, 2, 2, 3]
    assert M.indices.tolist() == [0, 2, 1]
    assert M.data.tolist() == [-4, 5, 3]
    assert M.to_dense().tolist() == [[-4, 0, 5], [0, 0, 0], [0, 3, 0]]
    rows, cols, data = M.triples()
    assert (rows.tolist(), cols.tolist(), data.tolist()) == ([0, 0, 2], [0, 2, 1], [-4, 5, 3])
    E = linalg.SparseSignedMatrix.from_triples(0, [], [], [])
    assert E.indptr.tolist() == [0] and not len(E.indices) and E.to_dense().shape == (0, 0)


def test_from_dense_matches_scipy(rng):
    import scipy.sparse as sp

    for n in (0, 1, 2, 7, 30):
        for density in (0.05, 0.3, 1.0):
            A = rng.integers(-4, 5, (n, n)) * (rng.random((n, n)) < density)
            M = linalg.SparseSignedMatrix.from_dense(A)
            want = sp.csr_matrix(A)
            want.sort_indices()
            assert M.indptr.tolist() == want.indptr.tolist()
            assert M.indices.tolist() == want.indices.tolist()
            assert M.data.tolist() == want.data.tolist()
            assert M.indptr.dtype == M.indices.dtype == M.data.dtype == np.int64
            # the same entries, split into pieces and shuffled, sum back to A
            r, c = np.nonzero(A)
            r, c, v = np.repeat(r, 2), np.repeat(c, 2), np.repeat(A[r, c], 2)
            v[::2] += 7
            v[1::2] = -7
            order = rng.permutation(len(r))
            T = linalg.SparseSignedMatrix.from_triples(n, r[order], c[order], v[order])
            assert (T.to_dense() == A).all()
            assert T.data.tolist() == want.data.tolist()


def test_matvec_exact_big_entries(rng):
    A = rng.integers(-4, 5, (9, 9)) * (rng.random((9, 9)) < 0.4)
    M = linalg.SparseSignedMatrix.from_dense(A)
    for v in ([3**45 - k for k in range(9)],
              np.array([2**41 + k for k in range(9)], dtype=np.int64)):
        want = [sum(int(A[i, k]) * int(v[k]) for k in range(9)) for i in range(9)]
        got = M.matvec_exact(np.array(v, dtype=object) if isinstance(v, list) else v)
        assert got.dtype == object and all(type(x) is int for x in got)
        assert got.tolist() == want
