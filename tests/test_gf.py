import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
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


def test_field_sqrt_matches_oracle_and_its_draws():
    # 7001 = 1 mod 8, so its Tonelli-Shanks loop runs more than once; p^2 - 1
    # is divisible by 8 for every odd p
    for p in (7, 13, 7001, 999983):
        F = gf.PrimeFieldCtx(p)
        K = gf.QuadExtCtx(F)
        pick = np.random.default_rng(p)
        for ctx in (F, K):
            r_got, r_want = np.random.default_rng(p), np.random.default_rng(p)
            for k in range(60):
                x = ctx.random(pick)
                a = ctx.mul(x, x) if k % 2 else x  # squares and random elements
                if k == 0:
                    a = ctx.zero
                assert gf.field_sqrt(ctx, a, r_got) == oracles.field_sqrt_ref(ctx, a, r_want)
                assert r_got.bit_generator.state == r_want.bit_generator.state
                euler = ctx.pow(a, (ctx.order - 1) // 2)
                assert ctx.legendre(a) == (0 if ctx.is_zero(a) else 1 if euler == ctx.one else -1)


# The generic tuple layer (any degree, any field context) is a test oracle
# now; the tests below check the oracle, and `gf.poly_roots` on quadratics.


def test_poly_divrem_gcd_eval_examples():
    F7 = gf.PrimeFieldCtx(7)
    assert oracles.poly_gcd([6, 0, 1], [6, 1], F7) == [6, 1]  # gcd(x^2-1, x-1) = x-1
    q, r = oracles.poly_divrem([0, 0, 0, 1], [6, 1], F7)
    assert q == [1, 1, 1] and r == [1]  # x^3 = (x-1)(x^2+x+1) + 1
    F11 = gf.PrimeFieldCtx(11)
    # y^3-3y^2+3y-1 vanishes at 1: its remainder mod y - 1 is zero
    assert oracles.poly_divrem([10, 3, 8, 1], [10, 1], F11)[1] == []
    with pytest.raises(ZeroDivisionError):
        oracles.poly_divrem([1, 1], [], F7)


def test_poly_roots_examples(rng):
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(11))
    # x^2 - n has roots +-xi
    f = [K.neg(K.embed(K.n)), K.zero, K.one]
    assert sorted(gf.poly_roots(f, K, rng)) == sorted([(0, 1), (0, 10)])
    # a linear and a constant polynomial, a leading zero, a non-monic quadratic
    assert gf.poly_roots([K.embed(3), K.embed(2)], K, rng) == [(4, 0)]  # 2y + 3
    assert gf.poly_roots([K.embed(5)], K, rng) == []
    y2_minus_1 = [K.embed(-1), K.zero, K.one, K.zero]
    assert sorted(gf.poly_roots(y2_minus_1, K, rng)) == [(1, 0), (10, 0)]
    assert sorted(gf.poly_roots([K.embed(-2), K.zero, K.embed(2)], K, rng)) == [(1, 0), (10, 0)]
    # (y - 1)^2 has the double root 1; no square root is taken
    assert gf.poly_roots([K.one, K.embed(-2), K.one], K, rng) == [(1, 0)] * 2
    # Phi_2(0, y) mod 11 = (y-1)^3, a cubic, for the oracle's Frobenius path
    f2 = [K.embed(-1), K.embed(3), K.embed(-3), K.one]
    assert oracles.poly_roots(f2, K, rng) == [(1, 0)] * 3
    # (x - c)(x - d) for random distinct c, d
    for _ in range(10):
        c, d = K.random(rng), K.random(rng)
        if c == d:
            continue
        f3 = oracles.poly_mul([K.neg(c), K.one], [K.neg(d), K.one], K)
        assert sorted(gf.poly_roots(f3, K, rng)) == sorted([c, d])
        assert sorted(oracles.poly_roots(f3, K, rng)) == sorted([c, d])


def test_poly_roots_rejects_degree_above_2(rng):
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(11))
    with pytest.raises(ValueError, match="degree <= 2"):
        gf.poly_roots([K.embed(-1), K.embed(3), K.embed(-3), K.one], K, rng)
    with pytest.raises(ZeroDivisionError):
        gf.poly_roots([K.zero, K.zero], K, rng)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_poly_gcd_properties(da, db, data):
    F = gf.PrimeFieldCtx(101)
    fa = [data.draw(st.integers(0, 100)) for _ in range(da + 1)]
    fb = [data.draw(st.integers(0, 100)) for _ in range(db + 1)]
    fa, fb = oracles.poly_trim(fa, F), oracles.poly_trim(fb, F)
    if not fa or not fb:
        return
    g = oracles.poly_gcd(fa, fb, F)
    # g divides both
    assert not oracles.poly_divrem(fa, g, F)[1]
    assert not oracles.poly_divrem(fb, g, F)[1]
    # any common divisor divides g: check via gcd(f, g) for small trial divisors
    for deg in (1, 2):
        for _ in range(3):
            h = oracles.poly_trim([data.draw(st.integers(0, 100)) for _ in range(deg)] + [1], F)
            if not oracles.poly_divrem(fa, h, F)[1] and not oracles.poly_divrem(fb, h, F)[1]:
                assert not oracles.poly_divrem(g, h, F)[1]


def test_galois_closure_of_roots(rng):
    # roots of an F_p-coefficient polynomial come in conjugate pairs with
    # equal multiplicity
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(23))
    for _ in range(10):
        coeffs = [K.embed(int(rng.integers(0, 23))) for _ in range(4)] + [K.one]
        roots = oracles.poly_roots(coeffs, K, rng)
        from collections import Counter

        c = Counter(roots)
        for r, m in c.items():
            assert c[K.conj(r)] == m


def test_roots_count_and_eval(rng):
    # the oracle's poly_roots returns deg f roots when f splits; y - r
    # divides f for each
    K = gf.QuadExtCtx(gf.PrimeFieldCtx(31))
    f = [K.one]
    roots_in = []
    for _ in range(5):
        r = K.random(rng)
        roots_in.append(r)
        f = oracles.poly_mul(f, [K.neg(r), K.one], K)
    roots = oracles.poly_roots(f, K, rng)
    assert sorted(roots) == sorted(roots_in)
    for r in roots:
        assert oracles.poly_divrem(f, [K.neg(r), K.one], K)[1] == []


# ---------------------------------------------------------------------------
# numpy layer
# ---------------------------------------------------------------------------


def test_npoly_mul_matches_convolution(rng, monkeypatch):
    # with the crossover lowered to 8 every product of 40 terms or more goes
    # through _fft_mul; at the real crossover only (3100, 3200) does
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


@pytest.mark.parametrize("length", [5, 64, 300, 3000])
def test_npoly_mul_exact_at_the_largest_modulus(rng, length):
    m = 2**30 - 35
    a = np.array(rng.integers(0, m, length), dtype=np.int64)
    for b in (np.array(rng.integers(0, m, length), dtype=np.int64), a[:4], a[:9]):
        want = np.array(np.convolve(a.astype(object), b.astype(object)) % m, dtype=np.int64)
        assert gf.npoly_mul(a, b, m).tolist() == want.tolist()
        assert gf.npoly_mul(b - m, a, m).tolist() == want.tolist()  # entries in (-m, 0]


def test_npoly_mul_on_both_sides_of_each_cut_off(rng, monkeypatch):
    # (m, length of the shorter factor, the path it must take); the float
    # bound ends at 9007 terms at 999983, which only a raised crossover reaches
    small, big = 999983, 2**30 - 35
    cut, cross, word = gf.FLOAT_CUTOFF, gf.NTT_CROSSOVER, gf._int64_terms(big)
    cases = [(small, cut - 1, "int64"), (small, cut, "float"),
             (big, word, "int64"), (big, word + 1, "fft"),
             (small, cross, "float"), (small, cross + 1, "fft"),
             (big, cross, "fft"), (big, cross + 1, "fft"),
             (small, 9007, "float", 9100), (small, 9008, "fft", 9100)]
    for m, short, path, *crossover in cases:
        taken = []
        with monkeypatch.context() as mp:
            for name, label in (("_float_convolve", "float"), ("_fft_mul", "fft")):
                def spy(*args, _f=getattr(gf, name), _label=label):
                    taken.append(_label)
                    return _f(*args)
                mp.setattr(gf, name, spy)
            if crossover:
                mp.setattr(gf, "NTT_CROSSOVER", crossover[0])
            a = np.array(rng.integers(0, m, short), dtype=np.int64)
            b = np.array(rng.integers(0, m, short + 37), dtype=np.int64)
            got = gf.npoly_mul(a, b, m)
        assert got.tolist() == oracles.npoly_mul_kronecker(a, b, m).tolist(), (m, short)
        assert (taken[0] if taken else "int64") == path, (m, short)


@pytest.mark.parametrize("length", [9000, 16687])
def test_npoly_mul_above_the_crossover_at_the_largest_modulus(rng, length):
    # products that the two-prime NTT's CRT bound refused at this modulus
    m = 2**30 - 35
    a = np.array(rng.integers(0, m, length), dtype=np.int64)
    b = np.array(rng.integers(0, m, length), dtype=np.int64)
    want = oracles.npoly_mul_kronecker(a, b, m)
    assert gf.npoly_mul(a, b, m).tolist() == want.tolist()
    assert gf.npoly_mul(a - m, b, m).tolist() == want.tolist()  # entries in (-m, 0]
    top = np.full(length, m - 1, dtype=np.int64)  # the largest limbs
    assert gf.npoly_mul(top, top, m).tolist() == oracles.npoly_mul_kronecker(top, top, m).tolist()


def test_fft_bound_raises_before_any_transform(monkeypatch):
    # the exactness bound holds up to 2^21 terms in the product and fails at
    # the next one, whose transform would need 2^22 points; with rfft made to
    # raise, reaching the transform and refusing before it tell the two apart
    class Reached(Exception):
        pass

    def rfft(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(np.fft, "rfft", rfft)
    half, longer = np.zeros(2**20, dtype=np.int64), np.zeros(2**20 + 1, dtype=np.int64)
    for m in (999983, 2**30 - 35):
        with pytest.raises(Reached):
            gf.npoly_mul(longer, half, m)  # 2^21 terms
        with pytest.raises(gf.ModulusError):
            gf.npoly_mul(longer, longer, m)  # 2^21 + 1 terms


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


def _monic_random(rng, d, m):
    return np.array(list(rng.integers(0, m, d)) + [1], dtype=np.int64)


def _irreducible(rng, d, m, avoid=()):
    """A random monic irreducible of degree d, certified by the oracle."""
    while True:
        g = _monic_random(rng, d, m)
        if oracles.rabin_irreducible_ref(g, m) and g.tolist() not in avoid:
            return g


def _product(polys, m):
    out = np.array([1], dtype=np.int64)
    for g in polys:
        out = gf.npoly_mul(out, g, m)
    return out


def test_frobenius_matches_powmod_on_both_sides_of_the_build(rng):
    # a call costs m.bit_length() + popcount(m) mulmods: 5 at m = 5, 31 at
    # 999983, 58 at 2^30 - 35; Q is built once the calls made cost more than
    # n = deg f.  At 2^30 - 35 the products of more than 8 terms go through
    # _fft_mul's 10-bit limbs, and Q @ a through dot_mod's chunks of 8 terms.
    for m, degrees in ((5, (1, 2, 12)), (7, (3, 20)), (101, (5, 40)),
                       (999983, (2, 30, 70)), (2**30 - 35, (1, 2, 12, 130))):
        cost = m.bit_length() + bin(m).count("1")
        for n in degrees:
            ctx = gf.NPolyModCtx(_monic_random(rng, n, m), m)
            h = np.array([0, 1], dtype=np.int64)
            for call in range(1, 5):
                a = rng.integers(0, m, n)
                assert ctx.frobenius(a).tolist() == ctx.powmod(a, m).tolist()
                want = ctx.powmod(h, m)
                h = ctx.frobenius(h)
                assert h.tolist() == want.tolist()
                built_by_now = (2 * call) * cost > n
                assert (ctx._frob_matrix is not None) == built_by_now


def test_distinct_degree_matches_oracle(rng):
    for m, degrees in ((101, (1, 1, 2, 3, 5, 7, 12)),
                       (999983, (1, 2, 2, 4, 6, 9, 12, 12)),
                       (999983, (1, 3, 8, 10, 11))):
        parts = []
        for d in degrees:
            parts.append(_irreducible(rng, d, m, [g.tolist() for g in parts]))
        f = _product(parts, m)
        for cap in (None, 1, 3, 6, 12):
            got = gf.npoly_distinct_degree(f, m, max_degree=cap)
            want = oracles.distinct_degree_ref(f, m, max_degree=cap)
            assert [(g.tolist(), d) for g, d in got] == [(g.tolist(), d) for g, d in want]
        assert sorted(d for _, d in gf.npoly_distinct_degree(f, m)) == sorted(set(degrees))


def test_capped_distinct_degree_takes_one_full_gcd(rng, monkeypatch):
    # degrees of the irreducible factors of f, against the cap D = 6: no
    # factor <= D; one factor <= D, which the loop on f_low returns by its
    # deg f < 2d exit; deg f < 2D + 2; and a mix
    m, cap = 999983, 6
    gcd = gf.npoly_gcd
    for degrees in ((7, 9), (8, 13), (3, 8, 10), (5, 7), (1, 12), (2, 9), (6, 7),
                    (1, 2, 2, 5, 7, 11)):
        parts = []
        for d in degrees:
            parts.append(_irreducible(rng, d, m, [g.tolist() for g in parts]))
        f = _product(parts, m)
        full = []
        with monkeypatch.context() as mp:
            mp.setattr(gf, "npoly_gcd", lambda a, b, m: (full.append(len(b) == len(f)),
                                                          gcd(a, b, m))[1])
            got = gf.npoly_distinct_degree(f, m, max_degree=cap)
        want = oracles.distinct_degree_ref(f, m, max_degree=cap)
        assert [(g.tolist(), d) for g, d in got] == [(g.tolist(), d) for g, d in want]
        assert sum(full) == 1, degrees
        low = sorted({d for d in degrees if d <= cap})
        assert [d for _, d in got] == low


def _giant_step(n):
    """l = floor(sqrt((n - 1) / 2)) + 1, the giant-step length of the
    uncapped distinct-degree loop on a degree-n input."""
    return math.isqrt((n - 1) // 2) + 1


def _edge_degrees(n):
    """Factor degrees on both sides of the giant-step edges lj and lj + 1,
    then what is left in factors of degree at most 40, summing to n."""
    step, out = _giant_step(n), []
    for j in range(1, n):
        if sum(out) + 2 * step * j + 1 > n:
            break
        out += [step * j, step * j + 1]
    while sum(out) < n:
        out.append(min(40, n - sum(out)))
    return out


def _fast_irreducible(rng, d, m, avoid=()):
    """A random monic irreducible of degree d, certified by the package's
    Rabin test (which test_rabin_matches_oracle checks against the oracle)."""
    while True:
        g = _monic_random(rng, d, m)
        if gf.npoly_rabin_irreducible(g, m) and g.tolist() not in avoid:
            return g


def test_distinct_degree_matches_oracle_across_giant_steps(rng):
    # at 101 and n = 130 a composition step (11 mulmods) is not cheaper than
    # a powmod (11), so the capped path keeps `frobenius`; at 999983 and
    # 2^30 - 35 it composes, in float64 and through dot_mod respectively
    cases = [(101, _edge_degrees(130)), (999983, _edge_degrees(200)),
             (2**30 - 35, _edge_degrees(90))]
    assert cases[1][1] == [10, 11, 20, 21, 30, 31, 40, 37]
    for m in (101, 999983, 2**30 - 35):
        cases.append((m, [1] * 30))
        cases.append((m, [37]))
    for m, degrees in cases:
        parts = []
        for d in degrees:
            parts.append(_fast_irreducible(rng, d, m, [g.tolist() for g in parts]))
        f = _product(parts, m)
        step = _giant_step(len(f) - 1)
        for cap in (None, 1, 6, step, step + 1):
            got = gf.npoly_distinct_degree(f, m, max_degree=cap)
            want = oracles.distinct_degree_ref(f, m, max_degree=cap)
            assert [(g.tolist(), d) for g, d in got] == [(g.tolist(), d) for g, d in want]
        assert [d for _, d in gf.npoly_distinct_degree(f, m)] == sorted(set(degrees))


def test_uncapped_distinct_degree_takes_sqrt_n_gcds_and_no_frobenius_matrix(monkeypatch):
    # a random input of a 30011-sized block: the loop takes one gcd per giant
    # step plus the refinements of its few nontrivial parts, where one gcd per
    # degree would take hundreds, and builds no n x n Frobenius matrix
    m, n = 999983, 1300
    pick = np.random.default_rng(0)
    f = _monic_random(pick, n, m)
    assert len(gf.npoly_gcd(f, gf.npoly_derivative(f, m), m)) == 1
    gcd, calls, builds = gf.npoly_gcd, [], []
    monkeypatch.setattr(gf, "npoly_gcd", lambda a, b, m: (calls.append(len(b)), gcd(a, b, m))[1])
    monkeypatch.setattr(gf.NPolyModCtx, "_build_frobenius_matrix",
                        lambda self: builds.append(self.n))
    got = gf.npoly_distinct_degree(f, m)
    monkeypatch.undo()
    assert len(calls) <= 2 * _giant_step(n) == 52
    assert builds == []
    assert [d for _, d in got] == sorted({d for _, d in got})
    assert all((len(g) - 1) % d == 0 for g, d in got)
    assert _product([g for g, _ in got], m).tolist() == f.tolist()


def test_frobenius_steps_compose_only_where_cheaper_than_a_powmod(rng, monkeypatch):
    # a powmod costs 11 mulmods at 101, 34 at 999983; a composition step
    # ceil(n / s), s = ceil(sqrt(n)): 11 at n = 130, 36 at n = 1300, 14 at
    # n = 200.  Only the giant steps compose when a step costs more, or when
    # the first Frobenius call has built the matrix (n = 30 <= 34).
    built = []
    init = gf.NPolyComposer.__init__
    monkeypatch.setattr(gf.NPolyComposer, "__init__",
                        lambda self, ctx, g: (built.append(ctx.n), init(self, ctx, g))[1])
    for m, n, cap, want in ((101, 130, 6, []), (999983, 200, 6, [200]),
                            (999983, 30, 6, []), (999983, 30, None, [30]),
                            (999983, 1300, 6, []), (999983, 1300, None, [1300]),
                            (2**30 - 35, 1300, 6, [1300])):
        built.clear()
        gf.npoly_distinct_degree(_monic_random(rng, n, m), m, max_degree=cap)
        assert built == want, (m, n, cap)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 130])
def test_composer_matches_repeated_mulmod_powers(rng, monkeypatch, n):
    # a(g) mod f against Horner in g with mulmod, at moduli just below and
    # just above the float64 bound s (m - 1)^2 < 2^53 of the block product,
    # and at 101, 999983 and 2^30 - 35.  Next to a random monic f, the
    # monomial f = x^n with g of valuation >= 1, where g^n = 0 mod f, so an
    # outer a longer than n may be cut; that modulus builds no Newton inverse.
    s = math.isqrt(n - 1) + 1
    edge = math.isqrt((2**53 - 1) // s) + 1  # least m - 1 with s (m - 1)^2 >= 2^53
    below = next(m for m in range(edge, 2, -1) if gf.is_probable_prime(m))
    above = next(m for m in range(edge + 2, 2 * edge) if gf.is_probable_prime(m))
    inverses = []
    series_inv = gf.npoly_series_inv
    monkeypatch.setattr(gf, "npoly_series_inv",
                        lambda *args: (inverses.append(args[1]), series_inv(*args))[1])
    for m in (101, 999983, below, above, 2**30 - 35):
        for monomial in (False, True):
            inverses.clear()
            if monomial:
                f = np.zeros(n + 1, dtype=np.int64)
                f[-1] = 1
                g = np.concatenate([[0], rng.integers(0, m, n + 2)])
                length = n + 3
            else:
                f, g, length = _monic_random(rng, n, m), rng.integers(0, m, n + 3), n
            ctx = gf.NPolyModCtx(f, m)
            compose = gf.NPolyComposer(ctx, g)  # g is reduced by the composer
            assert ctx.monomial == monomial
            assert (compose.s, compose.steps) == (s, -(-n // s))
            assert compose.exact_float == (m <= below)
            for a in (rng.integers(0, m, length), np.full(length, m - 1),
                      np.zeros(0, dtype=np.int64)):
                want = np.zeros(n, dtype=np.int64)
                for c in a[::-1]:
                    want = ctx.mulmod(want, g)
                    want[0] = (want[0] + c) % m
                assert compose(a).tolist() == want.tolist()
            if monomial:
                assert ctx.rev_inv is None and inverses == []


def test_equal_degree_split_matches_oracle_and_its_draws(rng):
    m = 999983
    for d, k in ((1, 6), (2, 5), (3, 4), (5, 3), (12, 2)):
        parts = []
        for _ in range(k):
            parts.append(_irreducible(rng, d, m, [g.tolist() for g in parts]))
        f = _product(parts, m)
        for seed in (0, 1):
            r_got, r_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = gf.npoly_equal_degree_split(f, d, m, r_got)
            want = oracles.equal_degree_split_ref(f, d, m, r_want)
            assert [g.tolist() for g in got] == [g.tolist() for g in want]
            assert sorted(g.tolist() for g in got) == sorted(g.tolist() for g in parts)
            assert r_got.bit_generator.state == r_want.bit_generator.state


def test_rabin_matches_oracle(rng):
    m = 999983
    for n in (1, 2, 6, 12, 30):
        cases = [_monic_random(rng, n, m) for _ in range(3)]
        cases.append(_irreducible(rng, n, m))
        # x^(m^n) = x mod f, but the gcd condition fails: n/q-degree factors
        for q in {q for q in (2, 3, 5) if n % q == 0}:
            half = [_irreducible(rng, n // q, m)]
            while len(half) < q:
                half.append(_irreducible(rng, n // q, m, [g.tolist() for g in half]))
            cases.append(_product(half, m))
        if n > 1:
            cases.append(_product([_irreducible(rng, 1, m)] * 2 + [_monic_random(rng, n - 2, m)], m))
        for f in cases:
            want = oracles.rabin_irreducible_ref(f, m)
            assert gf.npoly_rabin_irreducible(f, m) == want
    # the equal-degree products above pass the first condition only
    f = _product([_irreducible(rng, 3, m), _irreducible(rng, 3, m)], m)
    ctx = gf.NPolyModCtx(f, m)
    h = np.array([0, 1], dtype=np.int64)
    for _ in range(6):
        h = ctx.powmod(h, m)
    assert gf.npoly_trim(h).tolist() == [0, 1]
    assert not gf.npoly_rabin_irreducible(f, m)


@pytest.mark.parametrize("m", [999983, 2**30 - 35])
@pytest.mark.parametrize("deg", [0, 1, 45, 300])
def test_gcd_and_divrem_match_oracle(rng, deg, m):
    # at 2^30 - 35 an entry takes at most 7 unreduced products, so long
    # divisions reduce mid-way; products are exact object convolutions
    def mul(f, g):
        return np.array(np.convolve(f.astype(object), g.astype(object)) % m, dtype=np.int64)

    common = _monic_random(rng, 3, m)
    a = mul(common, _monic_random(rng, deg, m))
    b = mul(common, _monic_random(rng, max(deg - 1, 0), m))
    b = b * 7 % m  # not monic
    mid = mul(common, rng.integers(1, m, 61))  # long quotients by a long divisor
    zero = np.zeros(0, dtype=np.int64)
    for x, y in ((a, b), (b, a), (a, zero), (zero, b), (a, a), (a, common), (a, mid)):
        assert gf.npoly_gcd(x, y, m).tolist() == oracles.npoly_gcd_ref(x, y, m).tolist()
    for x, y in ((a, b), (b, a), (a, common), (common, a), (a, b[-1:]), (a, mid)):
        q, r = gf.npoly_divrem(x, y, m)
        q_want, r_want = oracles.npoly_divrem_ref(x, y, m)
        assert (q.tolist(), r.tolist()) == (q_want.tolist(), r_want.tolist())
