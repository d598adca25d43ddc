import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ssforms import gf, series, ssgraph


def _exact_j_coeffs(n):
    """Integer q-expansion of j via E4^3 / Delta, straight big-int arithmetic."""
    sigma3 = [0] * n
    for d in range(1, n):
        for k in range(d, n, d):
            sigma3[k] += d**3
    e4 = [1] + [240 * sigma3[k] for k in range(1, n)]
    eta3 = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1

    def mul(a, b):
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for jj in range(min(n - i, len(b))):
                    out[i + jj] += x * b[jj]
        return out

    def inv(a):
        out = [0] * n
        out[0] = 1
        for t in range(1, n):
            out[t] = -sum(a[i] * out[t - i] for i in range(1, t + 1))
        return out

    s8 = mul(mul(eta3, eta3), mul(eta3, eta3))
    s8 = mul(s8, s8)
    return mul(mul(mul(e4, e4), e4), inv(s8))  # coeff of q^(i-1) at index i


def test_j_series_matches_exact_expansion():
    exact = _exact_j_coeffs(60)
    for p in (11, 101, 10007):
        j, jp = series.j_series(p, 60)
        for i, c in enumerate(exact[:55]):
            assert j.coeff(i - 1) == c % p, (p, i)
        assert jp.coeff(-2) == (-1) % p
        assert jp.coeff(0) == exact[2] % p  # derivative of 196884 q


def test_j_routes_agree():
    for p in (11, 13, 1009, 691):
        j1, _ = series.j_series(p, 200)
        j2 = oracles.j_series_e4_route(p, 200)
        assert j1 == j2


def test_series_inv_examples(rng):
    s = series.PowerSeries(101, 0, [1, 100], 50)  # 1 - q
    inv = series.series_inv(s, 6)
    assert [inv.coeff(k) for k in range(6)] == [1] * 6
    p = 10007
    a = series.PowerSeries(p, 0, np.concatenate([[1], rng.integers(0, p, 99)]), 100)
    assert series.series_mul(a, series.series_inv(a, 100)) == series.PowerSeries.one(p, 100)
    with pytest.raises(ZeroDivisionError):
        series.series_inv(series.PowerSeries.zero(p, 10), 5)


def test_eta_cubed():
    e = series.eta_cubed(101, 40)
    want = {0: 1, 1: -3, 3: 5, 6: -7, 10: 9, 15: -11, 21: 13, 28: -15, 36: 17}
    for k in range(40):
        assert e.coeff(k) == want.get(k, 0) % 101
    # triangular support only
    tri = {k * (k + 1) // 2 for k in range(10)}
    for k in range(40):
        if k not in tri:
            assert e.coeff(k) == 0
    # eighth power is Delta/q: 1 - 24q + 252q^2
    e2 = series.series_mul(e, e)
    e8 = series.series_mul(series.series_mul(e2, e2), series.series_mul(e2, e2))
    assert e8.coeff(0) == 1 and e8.coeff(1) == (-24) % 101 and e8.coeff(2) == 252 % 101
    # self-consistency at 100 terms: e8 * inv(e8) = 1
    e = series.eta_cubed(999983, 100)
    e2 = series.series_mul(e, e)
    e8 = series.series_mul(series.series_mul(e2, e2), series.series_mul(e2, e2))
    assert series.series_mul(e8, series.series_inv(e8, 100)) == series.PowerSeries.one(999983, 100)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_series_mul_commutative_associative(data):
    p = 101
    coeffs = lambda: [data.draw(st.integers(0, p - 1)) for _ in range(8)]
    a = series.PowerSeries(p, 0, coeffs(), 8)
    b = series.PowerSeries(p, 0, coeffs(), 8)
    c = series.PowerSeries(p, 0, coeffs(), 8)
    assert series.series_mul(a, b) == series.series_mul(b, a)
    lhs = series.series_mul(series.series_mul(a, b), c)
    rhs = series.series_mul(a, series.series_mul(b, c))
    assert lhs == rhs


def test_partial_fraction_examples(rng):
    p = 10007
    r = oracles.partial_fraction_tree([(5, 3)], p)
    assert r.num.tolist() == [5] and r.den.tolist() == [(-3) % p, 1]
    r2 = oracles.partial_fraction_tree([(1, 1), (1, -1)], p)
    assert r2.num.tolist() == [0, 2] and r2.den.tolist() == [p - 1, 0, 1]


def _naive_sum(terms, p):
    num = np.zeros(1, dtype=np.int64)
    den = np.ones(1, dtype=np.int64)
    for g, jj in terms:
        lin = np.array([(-jj) % p, 1], dtype=np.int64)
        n2 = gf.npoly_mul(num, lin, p)
        add = gf.npoly_mul(np.array([g % p], dtype=np.int64), den, p)
        m = max(len(n2), len(add))
        out = np.zeros(m, dtype=np.int64)
        out[: len(n2)] += n2
        out[: len(add)] += add
        num = out % p
        den = gf.npoly_mul(den, lin, p)
    return num, den


def test_partial_fraction_tree_vs_naive_and_permutation(rng):
    p = 10007
    terms = [(int(rng.integers(1, p)), int(rng.integers(0, p))) for _ in range(8)]
    r = oracles.partial_fraction_tree(terms, p)
    num, den = _naive_sum(terms, p)
    assert r.num.tolist() == gf.npoly_trim(num).tolist()
    assert r.den.tolist() == den.tolist()
    perm = list(terms)
    rng.shuffle(perm)
    r2 = oracles.partial_fraction_tree(perm, p)
    assert r2.num.tolist() == r.num.tolist() and r2.den.tolist() == r.den.tolist()


def test_composition_examples(rng):
    p = 10007
    j, jp = series.j_series(p, 140)
    # R = 1/x composes to 1/j(q) = q - 744 q^2 + ...
    R = series.RationalFunction(p, [1], [0, 1])
    s = series.compose_with_reciprocal_j(R, j, 40)
    assert s == series.series_inv(j, 40)
    assert s.coeff(1) == 1 and s.coeff(2) == (-744) % p
    # R = 0
    z = series.compose_with_reciprocal_j(series.RationalFunction(p, [0], [3, 1]), j, 20)
    assert z.is_zero()


def test_brent_kung_equals_horner(rng):
    p = 1009
    j, _ = series.j_series(p, 120)
    for _ in range(12):
        dq = int(rng.integers(1, 7))
        den = np.concatenate([rng.integers(0, p, dq), [1]]).astype(np.int64)
        num = rng.integers(0, p, int(rng.integers(1, dq + 1))).astype(np.int64)
        if not gf.npoly_trim(num).size:
            continue
        R = series.RationalFunction(p, num, den)
        a = series.compose_with_reciprocal_j(R, j, 100)
        b = oracles.horner_reciprocal_j(R, j, 100)
        assert a == b


def test_phi2_functional_identity():
    # Phi_2(j(q), j(q^2)) = 0; validates both the series engine and the table
    table = ssgraph.bundled_modular_polynomials()[2]
    for p in (11, 101, 1009):
        j, _ = series.j_series(p, 120)
        j2 = oracles.dilate(j, 2)
        absprec = 50
        acc = series.PowerSeries.zero(p, absprec)
        jpow = {0: series.PowerSeries.one(p, 200)}
        j2pow = {0: series.PowerSeries.one(p, 200)}
        for k in range(1, 4):
            jpow[k] = series.series_mul(jpow[k - 1], j)
            j2pow[k] = series.series_mul(j2pow[k - 1], j2)
        for (a, b), c in table.items():
            acc = acc + series.series_mul(jpow[a], j2pow[b]).scale(c % p).truncate(absprec)
        assert acc.is_zero(), p


def test_dilate_and_differentiate():
    p = 101
    s = series.PowerSeries(p, -1, [1, 7, 3], 2)
    d = oracles.dilate(s, 3)
    assert d.val == -3 and d.coeff(-3) == 1 and d.coeff(0) == 7 and d.coeff(3) == 3
    dd = s.differentiate()
    assert dd.coeff(-2) == (-1) % p and dd.coeff(0) == 3


def test_brent_kung_exact_at_the_largest_modulus(rng):
    # at 2^30 - 35 every block product goes through gf.dot_mod, 8 terms per
    # int64 chunk; 9, 17, 50 and 400 terms make blocks of 3, 5, 8 and 20
    # rows, and 20 products near (p - 1)^2 would overflow one int64 sum
    p = 2**30 - 35
    for n in (9, 17, 50, 400):
        u = series.PowerSeries(p, 1, np.concatenate([rng.integers(0, p, n - 2), [p - 1]]), n)
        for g in (np.full(n + 3, p - 1), rng.integers(0, p, n + 3)):
            assert series.brent_kung_compose(g, u, n).coeff_range(0, n).tolist() == \
                oracles.horner_compose(g, u, n).coeff_range(0, n).tolist(), n
    with pytest.raises(ValueError):
        series.series_mul(u, series.PowerSeries.one(101, 5))


def test_brent_kung_block_product_path_at_the_float64_edge(rng, monkeypatch):
    # the block product is float64 while s (p - 1)^2 < 2^53, s = ceil(sqrt(n));
    # the largest prime inside that bound and the smallest above it, for n = 200
    n = 200
    s = gf.NPolyComposer.shape(n)[0]
    edge = math.isqrt((2**53 - 1) // s) + 1  # least p - 1 with s (p - 1)^2 >= 2^53
    below = next(p for p in range(edge, 2, -1) if gf.is_probable_prime(p))
    above = next(p for p in range(edge + 2, 2 * edge) if gf.is_probable_prime(p))
    paths = []
    init = gf.NPolyComposer.__init__
    monkeypatch.setattr(gf.NPolyComposer, "__init__",
                        lambda self, ctx, g: (init(self, ctx, g), paths.append(self.exact_float))[0])
    for p in (below, above):
        u = series.PowerSeries(p, 1, np.concatenate([rng.integers(0, p, n - 2), [p - 1]]), n)
        g = np.concatenate([[0], np.full(n + 2, p - 1)])
        assert series.brent_kung_compose(g, u, n) == oracles.horner_compose(g, u, n), p
    assert paths == [True, False]
