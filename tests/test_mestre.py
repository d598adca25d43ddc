import numpy as np
import pytest
from fractions import Fraction

import oracles
from ssforms import gf, lift, linalg, mestre, numfield, series, ssgraph


def _level_setup(p, rng):
    sset, T = ssgraph.build_adjacency(p, rng)
    al = ssgraph.split_atkin_lehner(T, sset)
    return sset, T, al


def test_unfold_rules(rng):
    sset, T, al = _level_setup(37, rng)  # one rational vertex + one pair
    pairs = al.minus_orbits
    u = np.array([1] * len(pairs), dtype=np.int64)
    leaves = mestre.unfold(u, "minus", sset, pairs)
    # every orbit contributes one leaf in the invariant block
    assert len(leaves) == len(pairs)
    # rational vertex: gamma = 2 * u * 6/w; pair: quadratic denominator
    rational = [lv for lv in leaves if len(lv.den) == 2]
    quads = [lv for lv in leaves if len(lv.den) == 3]
    assert len(rational) == 1 and len(quads) == 1
    # anti-invariant block drops rational vertices
    pairs_p = al.plus_orbits
    leaves_p = mestre.unfold(np.array([1] * len(pairs_p)), "plus", sset, pairs_p)
    assert len(leaves_p) == len(pairs_p)  # only conjugate pairs indexed here
    for lv in leaves_p:
        assert len(lv.den) == 3


def test_unfold_weight_scaling(rng):
    # at p = 11 both vertices are rational with weights 3 (j=0) and 2 (j=1728)
    sset, T, al = _level_setup(11, rng)
    leaves = mestre.unfold(np.array([1, 1]), "minus", sset, al.minus_orbits)
    gammas = sorted(int(lv.num[0]) for lv in leaves)
    # 2*u*6/3 = 4 at j = 0 and 2*u*6/2 = 6 at j = 1728
    assert gammas == [4, 6]


def _cuspidal_vectors(p, al, rng):
    """Integer basis vectors of the minus-block cuspidal orbits."""
    rec = linalg.hecke_charpoly(al.minus, linalg.WiedemannParams(), rng)
    chi, _ = gf.npoly_divrem(rec.chi, np.array([(-3) % rec.nu, 1]), rec.nu)
    out = []
    for rho, mult in lift.detect_factors(chi, rec.nu, 6):
        if len(rho) == 2 and mult == 1:
            out.append(lift.lift_1dim(al.minus, -rho[0], rec.mu, rec.nu, rng))
        else:
            hl = lift.lift_highdim(al.minus, rho, mult, rec.mu, rec.nu, rng, None, p)
            for orbit in lift.separate_orbits(hl, p, "minus"):
                out.extend(np.array(b, dtype=np.int64) for b in orbit.basis)
    return out


def test_mestre_rhs_matches_naive_sum(rng):
    for p in (11, 23):
        sset, T, al = _level_setup(p, rng)
        pairs = al.minus_orbits
        for u in _cuspidal_vectors(p, al, rng):
            psi = mestre.mestre_rhs(u, "minus", sset, pairs, *series.j_series(p, 40), 34)
            assert not psi.is_zero() and psi.coeff(1) != 0
            # naive oracle: same unfolded vertex values, per-term over F_{p^2}
            values = {}
            for uu, (i, ic) in zip(u, pairs):
                j = sset.vertices[i]
                w = mestre._vertex_weight(sset, j)
                if i == ic:
                    values[j] = (2 * int(uu) * (6 // w) % p, 0)
                else:
                    values[j] = (6 * int(uu) % p, 0)
                    values[sset.ctx.conj(j)] = (6 * int(uu) % p, 0)
            want = oracles.naive_mestre_psi(p, sset, values, 30)
            got = [psi.coeff(k) for k in range(1, 31)]
            assert got == want, p


def test_mestre_rhs_eisenstein_smoke(rng):
    # the all-invariant vector is not cuspidal; the series keeps a pole but
    # stays F_p-rational (rationality is structural in this implementation,
    # exercised against the F_{p^2} oracle elsewhere)
    p = 23
    sset, T, al = _level_setup(p, rng)
    ones = np.ones(len(al.minus_orbits), dtype=np.int64)
    psi = mestre.mestre_rhs(ones, "minus", sset, al.minus_orbits,
                            *series.j_series(p, 40), 34, expect_cuspidal=False)
    assert psi.val <= 0
    with pytest.raises(mestre.MestreError):
        mestre.mestre_rhs(ones, "minus", sset, al.minus_orbits,
                          *series.j_series(p, 40), 34)


def test_mestre_rhs_anti_invariant_naive(rng):
    p = 37
    sset, T, al = _level_setup(p, rng)
    pairs = al.plus_orbits
    u = np.array([2], dtype=np.int64)
    psi = mestre.mestre_rhs(u, "plus", sset, pairs, *series.j_series(p, 40), 34)
    # oracle with xi-division folded in: v(j) = 6u * 2b / quad handled by the
    # package; here divide explicitly: v(j) = 6u, v(j^sigma) = -6u, then psi/xi
    ctx = sset.ctx
    values = {}
    for uu, (i, ic) in zip(u, pairs):
        j = sset.vertices[i]
        values[j] = (6 * int(uu) % p, 0)
        values[ctx.conj(j)] = ((-6 * int(uu)) % p, 0)
    # naive sum keeps xi in every coefficient; divide by xi before comparing
    n = 34
    jser, jpser = series.j_series(p, n + 2)
    jc = [(int(jser.coeff(e)), 0) for e in range(-1, n)]
    jpc = [(int(jpser.coeff(e)), 0) for e in range(-2, n)]
    acc = [ctx.zero] * (n + 3)
    for j_s, v in values.items():
        u_series = list(jc)
        u_series[1] = ctx.sub(u_series[1], j_s)
        inv0 = ctx.inv(u_series[0])
        inv = [inv0]
        for k in range(1, len(u_series)):
            s = ctx.zero
            for t in range(1, k + 1):
                if t < len(u_series):
                    s = ctx.add(s, ctx.mul(u_series[t], inv[k - t]))
            inv.append(ctx.neg(ctx.mul(inv0, s)))
        for e in range(-1, n + 1):
            s = ctx.zero
            for a in range(-2, e):
                b = e - a
                if a + 2 < len(jpc) and 0 <= b - 1 < len(inv):
                    s = ctx.add(s, ctx.mul(jpc[a + 2], inv[b - 1]))
            acc[e + 1] = ctx.add(acc[e + 1], ctx.mul(v, s))
    for k in range(1, 30):
        coeff = acc[k]  # q^k coefficient of psi*, including the xi factor
        assert coeff[0] % p == 0  # anti-invariant sums are pure-xi
        want = coeff[1] % p
        assert psi.coeff(k) == want


def test_eigenvalue_of_examples(rng):
    # p = 11: a_2 = -2, a_3 = -1, matching point counts on conductor-11 curve
    sset, T, al = _level_setup(11, rng)
    rec = linalg.hecke_charpoly(al.minus, linalg.WiedemannParams(), rng)
    v = lift.lift_1dim(al.minus, -2, rec.mu, rec.nu, rng)
    fld = numfield.NumberField([2, 1])
    powers = mestre.separating_powers([v], al.minus, 1)
    assert mestre.eigenvalue_of(powers, al.minus, fld) == fld.elt([-2])
    al3 = ssgraph.split_atkin_lehner(ssgraph.hecke_matrix(sset, 3), sset)
    a3 = mestre.eigenvalue_of(powers, al3.minus, fld)
    curve = oracles.GOLDEN_CURVES[11][0]
    assert a3 == fld.elt([oracles.curve_ap(curve, 3, 11)])
    assert fld.elt([oracles.curve_ap(curve, 2, 11)]) == fld.elt([-2])


def test_hecke_field_build(rng):
    h = mestre.HeckeField.build((-1, 1, 1))
    assert h.disc == 5
    assert h.basis[0] == (Fraction(1), Fraction(0))
    # coordinates round trip
    elt = h.field.elt([3, -2])
    coords = h.to_basis_coords(elt)
    assert h.from_basis_coords(coords) == elt


def test_solve_beta_singular_augmentation():
    # psi[2] = 0 makes the first probe matrix singular; the solver augments
    # with the next prime and the held-out probes stay consistent
    p = 101
    psi = series.PowerSeries(p, 3, [5, 0, 7], 10)  # psi[3]=5, psi[5]=7
    alpha = {2: [0], 3: [10], 5: [14]}
    bs = mestre.solve_beta(alpha, [psi], p)
    assert bs.probes == [3]
    assert bs.beta.tolist() == [[2]]


def test_solve_beta_inconsistent_raises():
    p = 101
    psi = series.PowerSeries(p, 3, [5, 0, 7], 10)
    with pytest.raises(mestre.MestreError):
        mestre.solve_beta({2: [0], 3: [10], 5: [15]}, [psi], p)


def test_solve_beta_takes_composite_probes_only_when_the_primes_are_singular():
    # psi vanishes at 2, 3 and 5 but not at 4: the primes leave the system
    # singular, and the composite columns are asked for only then
    p = 101
    psi = series.PowerSeries(p, 4, [5, 0, 7], 10)  # psi[4] = 5, psi[6] = 7
    alpha = {2: [0], 3: [0], 5: [0]}
    with pytest.raises(mestre.MestreError, match="singular at every probe"):
        mestre.solve_beta(alpha, [psi], p)
    bs = mestre.solve_beta(alpha, [psi], p, lambda: {4: [10], 6: [14], 12: [1]})
    assert bs.probes == [4]
    assert bs.beta.tolist() == [[2]]
    with pytest.raises(mestre.MestreError, match="held-out probe 6"):
        mestre.solve_beta(alpha, [psi], p, lambda: {4: [10], 6: [15]})

    def unused():
        raise AssertionError("composite probes asked for with a regular prime system")

    bs = mestre.solve_beta({2: [0], 3: [0], 5: [14]}, [series.PowerSeries(p, 5, [7], 10)],
                           p, unused)
    assert bs.probes == [5]


def test_composite_probes_follow_multiplicativity():
    # the newform of level 11: a_2 = -2, a_3 = -1, and a_5 unknown here, so
    # 10 and 15 are left out
    fld = numfield.NumberField([2, 1])
    exact = {2: fld.elt([-2]), 3: fld.elt([-1])}
    got = mestre.composite_probes(exact, fld, 11)
    assert {n: int(v[0]) for n, v in got.items()} == {
        4: 2, 6: 2, 8: 0, 9: -2, 12: -2, 16: -4}


def test_q_expansion_hecke_relation_p23(rng):
    from ssforms import pipeline

    rep = pipeline.run_level(23, pipeline.RunConfig(level=23, n_coeffs=12))
    (rec,) = rep.records
    h = [int(c) for c in rec["field_minpoly"]]
    fld = numfield.NumberField(h)
    basis = [tuple(Fraction(x) for x in (Fraction(s) for s in b)) for b in rec["basis"]]

    def elt(row):
        acc = fld.zero
        for c, b in zip(row, basis):
            acc = fld.add(acc, fld.scale(b, int(c)))
        return acc

    rows = [[int(c) for c in row] for row in rec["coeffs"]]
    a = {n + 1: elt(row) for n, row in enumerate(rows)}
    assert a[1] == fld.one
    assert a[4] == fld.sub(fld.mul(a[2], a[2]), fld.scale(fld.one, 2))
    assert a[6] == fld.mul(a[2], a[3])
    assert a[12] == fld.mul(a[4], a[3])
    assert a[8] == fld.sub(fld.mul(a[2], a[4]), fld.scale(a[2], 2))


def test_ambiguous_lift_aborts(rng):
    # p = 11 with N large enough to hit an ambiguous prime (a_17) and no
    # exact override: the assembly must abort rather than guess
    from ssforms import pipeline

    sset, T, al = _level_setup(11, rng)
    rec = linalg.hecke_charpoly(al.minus, linalg.WiedemannParams(), rng)
    v = lift.lift_1dim(al.minus, -2, rec.mu, rec.nu, rng)
    orbit = lift.GaloisOrbit(level=11, block="minus", rho=(2, 1), multiplicity=1,
                             dim=1, field_poly=(2, 1), basis=[v.tolist()], sep_ell=2)
    hecke = mestre.HeckeField.build((2, 1))
    j, jp = series.j_series(11, 40)
    psi = mestre.mestre_rhs(v, "minus", sset, al.minus_orbits, j, jp, 30)
    fld = hecke.field
    powers = mestre.separating_powers(orbit.basis, al.minus, 1)
    a2 = mestre.eigenvalue_of(powers, al.minus, fld)
    bs = mestre.solve_beta({2: hecke.to_basis_coords(a2)}, [psi], 11)
    with pytest.raises(mestre.AmbiguousLiftError):
        mestre.q_expansion(orbit, hecke, bs, [psi], 20, 11)


def test_eigenvalue_of_matches_hecke_field_route(monkeypatch):
    # every orbit of the prime levels 5..500, as the pipeline lifts them:
    # a_ell read off the orbit's integer basis equals T_ell e / e on the
    # Hecke-field eigenvector e of the lifted kernel, at every coordinate
    from ssforms import pipeline

    recorded = []
    separate = lift.separate_orbits

    def recording(hl, level, block):
        got = separate(hl, level, block)
        recorded.extend((o, hl) for o in got)
        return got

    monkeypatch.setattr(lift, "separate_orbits", recording)
    cfg = pipeline.RunConfig(level_range=(5, 500))
    checked, sep_not_2, dim_5_up = 0, 0, 0
    for p in cfg.levels():
        rng = np.random.default_rng([cfg.seed, p])
        store = pipeline.GraphStore(p, rng, None)
        for name in ("minus", "plus"):
            recorded.clear()
            orbits, _, _ = pipeline._lift_block_orbits(store, name, cfg, rng)
            for orbit in orbits:
                fld = numfield.NumberField(orbit.field_poly)
                hl = next((h for o, h in recorded if o is orbit), None)
                if hl is None:  # lift_1dim: the integer eigenvector itself
                    evec = [[Fraction(int(x))] for x in orbit.basis[0]]
                else:
                    evec = oracles.hecke_field_eigenvector(hl.basis, hl.s_matrix, fld)
                powers = mestre.separating_powers(
                    orbit.basis, store.block(orbit.sep_ell, name), orbit.dim)
                for ell in (2, 3, 5, 7, 11, 13):
                    if ell == p:
                        continue
                    t_ell = store.block(ell, name)
                    want = oracles.eigenvalue_ratio(evec, t_ell, fld)
                    assert mestre.eigenvalue_of(powers, t_ell, fld) == want, (p, name, ell)
                    checked += 1
                sep_not_2 += orbit.sep_ell != 2
                dim_5_up += orbit.dim >= 5
    assert sep_not_2 and dim_5_up and checked > 500, (sep_not_2, dim_5_up, checked)


def test_eigenvalue_of_rejects_one_bad_coordinate():
    # T_ell agrees with 5 = P(T_s) on the basis vector except at coordinate 2
    t_s = linalg.SparseSignedMatrix.from_dense(2 * np.eye(3, dtype=np.int64))
    fld = numfield.NumberField([-2, 1])
    powers = mestre.separating_powers([[1, 1, 1]], t_s, 1)
    t5 = linalg.SparseSignedMatrix.from_dense(np.diag([5, 5, 5]))
    assert mestre.eigenvalue_of(powers, t5, fld) == fld.elt([5])
    with pytest.raises(mestre.MestreError):
        mestre.eigenvalue_of(powers, linalg.SparseSignedMatrix.from_dense(np.diag([5, 5, 6])), fld)


def test_eigenvalue_of_rejects_a_perturbed_basis(rng):
    # p = 23's two-dimensional orbit, separated by T_2: changing one entry of
    # either basis vector breaks T_3 = P(T_2) on the orbit
    sset, T, al = _level_setup(23, rng)
    rec = linalg.hecke_charpoly(al.minus, linalg.WiedemannParams(), rng)
    hl = lift.lift_highdim(al.minus, (-1, 1, 1), 1, rec.mu, rec.nu, rng, None, 23)
    (orbit,) = lift.separate_orbits(hl, 23, "minus")
    fld = numfield.NumberField(orbit.field_poly)
    t3 = ssgraph.split_atkin_lehner(ssgraph.hecke_matrix(sset, 3), sset).minus
    powers = mestre.separating_powers(orbit.basis, al.minus, 2)
    assert mestre.eigenvalue_of(powers, t3, fld) == oracles.eigenvalue_ratio(
        oracles.hecke_field_eigenvector(hl.basis, hl.s_matrix, fld), t3, fld)
    for j in range(2):
        for i in range(len(orbit.basis[j])):
            basis = [list(b) for b in orbit.basis]
            basis[j][i] += 1
            with pytest.raises(mestre.MestreError):
                mestre.eigenvalue_of(mestre.separating_powers(basis, al.minus, 2), t3, fld)
