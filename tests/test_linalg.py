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
    v = np.array([3, -2], dtype=np.int64)
    assert linalg.matvec(M, v, 101).tolist() == [(-6) % 101, 4]
    I = linalg.SparseSignedMatrix.from_dense(np.eye(4, dtype=np.int64))
    u = np.array([5, 6, 7, 8], dtype=np.int64)
    assert linalg.matvec(I, u, 101).tolist() == u.tolist()
    Z = linalg.SparseSignedMatrix.from_dense(np.zeros((3, 3), dtype=np.int64))
    assert not linalg.matvec(Z, np.ones(3, dtype=np.int64), 101).any()
    with pytest.raises(ValueError):
        linalg.matvec(M, np.ones(3, dtype=np.int64), 101)


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


def test_taylor_shift():
    nu = 101
    f = np.array([3, 2, 1], dtype=np.int64)  # x^2 + 2x + 3
    g = linalg.taylor_shift(f, 5, nu)
    for x in range(10):
        assert gf.npoly_eval(g, x, nu) == gf.npoly_eval(f, (x + 5) % nu, nu)


def test_wiedemann_examples(rng):
    M = linalg.SparseSignedMatrix.from_dense([[0, 3], [2, 1]])
    mu, traces = linalg.wiedemann_minpoly(M, linalg.WiedemannParams(), rng, 101, 2)
    assert mu.tolist() == [(-6) % 101, 100, 1]  # (t-3)(t+2)
    I5 = linalg.SparseSignedMatrix.from_dense(np.eye(5, dtype=np.int64))
    mu, _ = linalg.wiedemann_minpoly(I5, linalg.WiedemannParams(), rng, 101, 2)
    assert mu.tolist() == [100, 1]  # degree 1, far below n
    D = linalg.SparseSignedMatrix.from_dense(np.diag([1, 2]).astype(np.int64))
    mu, _ = linalg.wiedemann_minpoly(D, linalg.WiedemannParams(), rng, 101, 3)
    assert mu.tolist() == [2, 98, 1]  # t^2 - 3t + 2


def test_shift_invariance(rng):
    A = np.diag([1, 2, 3, 4, 5]).astype(np.int64)
    M = linalg.SparseSignedMatrix.from_dense(A)
    nu = 999983
    mu1, _ = linalg.wiedemann_minpoly(M, linalg.WiedemannParams(shift0=4), rng, nu, 2)
    mu2, _ = linalg.wiedemann_minpoly(M, linalg.WiedemannParams(shift0=9), rng, nu, 2)
    assert mu1.tolist() == mu2.tolist()


def test_charpoly_complete_examples(rng):
    params = linalg.WiedemannParams()
    # identity pattern 3x3: mu = t-1, chi = (t-1)^3 via the trace coefficients
    I3 = linalg.SparseSignedMatrix.from_dense(np.eye(3, dtype=np.int64))
    rec = linalg.hecke_charpoly(I3, params, rng)
    nu = rec.nu
    want = np.array([1], dtype=np.int64)
    for _ in range(3):
        want = gf.npoly_mul(want, np.array([nu - 1, 1], dtype=np.int64), nu)
    assert rec.chi.tolist() == want.tolist()
    assert len(rec.mu) == 2
    # degrees match: chi = mu
    D = linalg.SparseSignedMatrix.from_dense(np.array([[0, 1], [1, 1]], dtype=np.int64))
    rec = linalg.hecke_charpoly(D, params, rng)
    assert rec.chi.tolist() == rec.mu.tolist()
    # block diag swaps: mu = t^2-1, c2 = -2, chi = (t^2-1)^2
    Mb = linalg.SparseSignedMatrix.from_dense(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert Mb.trace() == 0 and Mb.trace_of_square() == 4
    c1, c2 = linalg._second_symmetric(Mb, 101)
    assert c1 == 0 and c2 == (-2) % 101
    rec = linalg.hecke_charpoly(Mb, params, rng)
    nu = rec.nu
    t2m1 = np.array([nu - 1, 0, 1], dtype=np.int64)
    assert rec.chi.tolist() == gf.npoly_mul(t2m1, t2m1, nu).tolist()


def test_mu_annihilates_fresh_vectors(rng):
    for _ in range(6):
        A = random_sparse_matrix(rng, nmax=30)
        M = linalg.SparseSignedMatrix.from_dense(A)
        rec = linalg.hecke_charpoly(M, linalg.WiedemannParams(), rng)
        assert linalg.annihilates(rec.mu, M, rec.nu, rng, 5)
        assert len(rec.chi) - 1 == M.n
        # chi divisible by mu
        _, r = gf.npoly_divrem(rec.chi, rec.mu, rec.nu)
        assert not len(r)


def test_wiedemann_vs_dense_oracle_small(rng):
    for _ in range(30):
        A = random_sparse_matrix(rng, nmax=40)
        M = linalg.SparseSignedMatrix.from_dense(A)
        rec = linalg.hecke_charpoly(M, linalg.WiedemannParams(), rng)
        want = oracles.hessenberg_charpoly_mod(A, rec.nu)
        assert rec.chi.tolist() == want.tolist()


def test_sparse_traces_match_dense(rng):
    for n in (0, 1, 2, 7, 30):
        for density in (0.05, 0.3, 1.0):
            A = rng.integers(-4, 5, (n, n)) * (rng.random((n, n)) < density)
            M = linalg.SparseSignedMatrix.from_dense(A)
            assert M.trace() == int(np.trace(A))
            assert M.trace_of_square() == int(np.trace(A @ A))
