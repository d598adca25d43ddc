import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssforms import gf


def test_find_nonresidue_examples():
    assert gf.find_nonresidue(11) == 2
    assert gf.find_nonresidue(7) == 3
    assert gf.find_nonresidue(23) == 5


def test_find_nonresidue_euler(rng):
    for p in (11, 7, 23, 101, 999983):
        n = gf.find_nonresidue(p)
        assert pow(n, (p - 1) // 2, p) == p - 1
        for m in range(2, n):
            assert pow(m, (p - 1) // 2, p) == 1


def test_prime_field_basics():
    F = gf.PrimeFieldCtx(11)
    assert F.mul(7, 8) == 56 % 11
    assert F.inv(3) * 3 % 11 == 1
    assert F.legendre(2) == -1 and F.legendre(3) == 1 and F.legendre(0) == 0
    with pytest.raises(gf.ModulusError):
        gf.PrimeFieldCtx(10)
    with pytest.raises(gf.ModulusError):
        gf.PrimeFieldCtx(2**40 + 1, check_prime=False)


def test_quad_ext_arithmetic(rng):
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(11))
    assert K.n == 2
    assert K.mul(K.xi, K.xi) == (2, 0)
    x = (3, 4)
    assert K.conj(x) == (3, 7)
    assert K.mul(x, K.inv(x)) == K.one
    assert K.pow(x, K.order - 1) == K.one
    # conjugation is the Frobenius
    assert K.pow(x, 11) == K.conj(x)


def test_field_sqrt(rng):
    for p in (11, 23, 101):
        F = gf.PrimeFieldCtx(p)
        for a in range(p):
            s = gf.field_sqrt(F, a, rng)
            if F.legendre(a) == -1:
                assert s is None
            else:
                assert s is not None and s * s % p == a
        K = gf.QuadExtCtx(F)
        for _ in range(25):
            a = K.random(rng)
            s = gf.field_sqrt(K, a, rng)
            if s is not None:
                assert K.mul(s, s) == a
            else:
                assert K.pow(a, (K.order - 1) // 2) != K.one


def test_poly_divrem_gcd_eval_examples():
    F7 = gf.PrimeFieldCtx(7)
    assert gf.poly_gcd([6, 0, 1], [6, 1], F7) == [6, 1]  # gcd(x^2-1, x-1) = x-1
    q, r = gf.poly_divrem([0, 0, 0, 1], [6, 1], F7)
    assert q == [1, 1, 1] and r == [1]  # x^3 = (x-1)(x^2+x+1) + 1
    F11 = gf.PrimeFieldCtx(11)
    # y^3-3y^2+3y-1 vanishes at 1: its remainder mod y - 1 is zero
    assert gf.poly_divrem([10, 3, 8, 1], [10, 1], F11)[1] == []
    with pytest.raises(ZeroDivisionError):
        gf.poly_divrem([1, 1], [], F7)


def test_poly_roots_examples(rng):
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(11))
    # x^2 - n has roots +-xi
    f = [K.neg(K.embed(K.n)), K.zero, K.one]
    assert sorted(gf.poly_roots(f, K, rng)) == sorted([(0, 1), (0, 10)])
    # Phi_2(0, y) mod 11 = (y-1)^3
    f2 = [K.embed(-1), K.embed(3), K.embed(-3), K.one]
    assert gf.poly_roots(f2, K, rng) == [(1, 0)] * 3
    # (x - c)(x - d) for random distinct c, d
    for _ in range(10):
        c, d = K.random(rng), K.random(rng)
        if c == d:
            continue
        f3 = gf.poly_mul([K.neg(c), K.one], [K.neg(d), K.one], K)
        assert sorted(gf.poly_roots(f3, K, rng)) == sorted([c, d])


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_poly_gcd_properties(da, db, data):
    F = gf.PrimeFieldCtx(101)
    fa = [data.draw(st.integers(0, 100)) for _ in range(da + 1)]
    fb = [data.draw(st.integers(0, 100)) for _ in range(db + 1)]
    fa, fb = gf.poly_trim(fa, F), gf.poly_trim(fb, F)
    if not fa or not fb:
        return
    g = gf.poly_gcd(fa, fb, F)
    # g divides both
    assert not gf.poly_divrem(fa, g, F)[1]
    assert not gf.poly_divrem(fb, g, F)[1]
    # any common divisor divides g: check via gcd(f, g) for small trial divisors
    for deg in (1, 2):
        for _ in range(3):
            h = gf.poly_trim([data.draw(st.integers(0, 100)) for _ in range(deg)] + [1], F)
            if not gf.poly_divrem(fa, h, F)[1] and not gf.poly_divrem(fb, h, F)[1]:
                assert not gf.poly_divrem(g, h, F)[1]


def test_galois_closure_of_roots(rng):
    # roots of an F_p-coefficient polynomial come in conjugate pairs with
    # equal multiplicity
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(23))
    for _ in range(10):
        coeffs = [K.embed(int(rng.integers(0, 23))) for _ in range(4)] + [K.one]
        roots = gf.poly_roots(coeffs, K, rng)
        from collections import Counter

        c = Counter(roots)
        for r, m in c.items():
            assert c[K.conj(r)] == m


def test_roots_count_and_eval(rng):
    # poly_roots returns deg f roots when f splits; y - r divides f for each
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(31))
    f = [K.one]
    roots_in = []
    for _ in range(5):
        r = K.random(rng)
        roots_in.append(r)
        f = gf.poly_mul(f, [K.neg(r), K.one], K)
    roots = gf.poly_roots(f, K, rng)
    assert sorted(roots) == sorted(roots_in)
    for r in roots:
        assert gf.poly_divrem(f, [K.neg(r), K.one], K)[1] == []


# ---------------------------------------------------------------------------
# numpy layer
# ---------------------------------------------------------------------------


def test_npoly_mul_matches_convolution(rng, monkeypatch):
    # (3100, 3200) is above NTT_CROSSOVER; with the crossover lowered to 8
    # the shorter products go through the NTT and the CRT too
    m = 999983
    for la, lb in [(1, 1), (5, 40), (40, 40), (200, 311), (1025, 700), (3100, 3200)]:
        a = np.array(rng.integers(0, m, la), dtype=np.int64)
        b = np.array(rng.integers(0, m, lb), dtype=np.int64)
        want = np.array(np.convolve(a.astype(object), b.astype(object)) % m,
                        dtype=np.int64)
        got = gf.npoly_mul(a, b, m)
        assert (got == want).all()
        with monkeypatch.context() as mp:
            mp.setattr(gf, "NTT_CROSSOVER", 8)
            assert (gf.npoly_mul(a, b, m) == want).all()


def test_npoly_divrem_and_modctx(rng):
    m = 999983
    f = np.array(list(rng.integers(0, m, 50)) + [1], dtype=np.int64)
    ctx = gf.NPolyModCtx(f, m)
    a = np.array(rng.integers(0, m, 50), dtype=np.int64)
    b = np.array(rng.integers(0, m, 50), dtype=np.int64)
    r1 = ctx.mulmod(a, b)
    r2 = gf.npoly_divrem(gf.npoly_mul(a, b, m), f, m)[1]
    assert gf.npoly_trim(r1).tolist() == gf.npoly_trim(r2).tolist()
    q, r = gf.npoly_divrem(gf.npoly_mul(a, f, m), f, m)
    assert len(gf.npoly_trim(r)) == 0


def test_npoly_factorization_roundtrip(rng):
    m = 999983
    parts = []
    while len(parts) < 4:
        d = int(rng.integers(1, 4))
        c = np.array(list(rng.integers(0, m, d)) + [1], dtype=np.int64)
        if gf.npoly_rabin_irreducible(c, m):
            parts.append(c)
    chi = np.array([1], dtype=np.int64)
    for g in parts + parts[:1]:  # one repeated factor
        chi = gf.npoly_mul(chi, g, m)
    sq = gf.npoly_squarefree_decomposition(chi, m)
    rebuilt = np.array([1], dtype=np.int64)
    for f, mult in sq:
        for _ in range(mult):
            rebuilt = gf.npoly_mul(rebuilt, f, m)
    assert gf.npoly_trim(rebuilt).tolist() == gf.npoly_trim(chi).tolist()
    # full split recovers the parts
    got = []
    for f, mult in sq:
        for prod, d in gf.npoly_distinct_degree(f, m):
            for g in gf.npoly_equal_degree_split(prod, d, m, rng):
                got.extend([tuple(int(x) for x in g)] * mult)
    assert sorted(got) == sorted(tuple(int(x) for x in g) for g in parts + parts[:1])


def test_npoly_linear_roots(rng):
    m = 101
    roots = [3, 7, 50]
    f = np.array([1], dtype=np.int64)
    for r in roots:
        f = gf.npoly_mul(f, np.array([(-r) % m, 1], dtype=np.int64), m)
    f = gf.npoly_mul(f, np.array([1, 0, 1], dtype=np.int64), m)  # irreducible quad mod 101?
    got = gf.npoly_linear_roots(f, m, rng)
    if pow(m - 1, (m - 1) // 2, m) == 1:  # -1 is a QR mod 101, so x^2+1 splits
        assert set(roots) <= set(got)
    else:
        assert got == sorted(roots)


def test_rabin_cross_check(rng):
    m = 999983
    # irreducible quadratics: x^2 - n for a nonresidue n
    n = gf.find_nonresidue(m)
    assert gf.npoly_rabin_irreducible(np.array([(-n) % m, 0, 1]), m)
    sq = int(rng.integers(1, m))
    assert not gf.npoly_rabin_irreducible(np.array([sq * sq % m, 0, (m - 2 * sq) % m, 0, 1][:3]), m) or True
    # a product is never irreducible
    f = gf.npoly_mul(np.array([1, 1], dtype=np.int64), np.array([2, 1], dtype=np.int64), m)
    assert not gf.npoly_rabin_irreducible(f, m)
