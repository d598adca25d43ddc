"""Tests for the benchmark's own code: the output comparator, the tracer and
the statistic behind ``solve_s``.

Run with ``python -m pytest perfbench``.
"""

import sys
import types

import pytest
import sympy

import refcheck
import run
import spans


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------


def _sqrt2_record(coeffs, al_sign=1):
    """A dim-2 record over Q(sqrt 2) in the power basis of sqrt 2."""
    return {"level": 7, "al_sign": al_sign, "dim": 2, "a2_minpoly": ["-2", "0", "1"],
            "field_minpoly": ["-2", "0", "1"], "field_disc": "8",
            "basis": [["1/1", "0/1"], ["0/1", "1/1"]],
            "coeffs": [[str(a), str(b)] for a, b in coeffs]}


def _golden_record(coeffs):
    """A dim-2 record over Q(sqrt 5) in the power basis of the golden ratio:
    a_n = x + y * (1 + sqrt 5) / 2."""
    return {"level": 11, "al_sign": -1, "dim": 2, "a2_minpoly": ["-1", "-1", "1"],
            "field_minpoly": ["-1", "-1", "1"], "field_disc": "5",
            "basis": [["1/1", "0/1"], ["0/1", "1/1"]],
            "coeffs": [[str(a), str(b)] for a, b in coeffs]}


SQRT2 = [(1, 0), (0, 1), (2, -1), (-3, 2)]
GOLDEN = [(1, 0), (0, 1), (3, -2)]


def _level(*records, status="ok", blocks=None):
    return refcheck.canonical_level({"status": status, "blocks": blocks or {}},
                                    [refcheck.canonical_record(r) for r in records])


def test_charpoly_of_integer_matrix_matches_sympy():
    m = [[2, -1, 0], [3, 1, 4], [-2, 5, 7]]
    expected = sympy.Matrix(m).charpoly().all_coeffs()[::-1]
    assert refcheck._int_charpoly(m) == [int(c) for c in expected]


def test_coefficients_become_their_charpolys():
    canon = refcheck.canonical_record(_sqrt2_record(SQRT2))
    # a_3 = 2 - sqrt 2 has minimal polynomial x^2 - 4x + 2
    assert canon["coeff_charpolys"][2] == ["2", "-4", "1"]
    assert canon["coeff_charpolys"][0] == ["1", "-2", "1"]


def test_identical_outputs_match():
    ref = _level(_sqrt2_record(SQRT2), _golden_record(GOLDEN))
    got = _level(_golden_record(GOLDEN), _sqrt2_record(SQRT2))
    assert refcheck.compare_level(ref, got) == []


def test_rejects_perturbed_coefficient():
    ref = _level(_sqrt2_record(SQRT2))
    bad = list(SQRT2)
    bad[3] = (-3, 1)
    assert refcheck.compare_level(ref, _level(_sqrt2_record(bad)))


def test_rejects_dropped_record():
    ref = _level(_sqrt2_record(SQRT2), _golden_record(GOLDEN))
    assert refcheck.compare_level(ref, _level(_sqrt2_record(SQRT2)))


def test_rejects_changed_al_sign():
    ref = _level(_sqrt2_record(SQRT2))
    assert refcheck.compare_level(ref, _level(_sqrt2_record(SQRT2, al_sign=-1)))


def test_rejects_failed_level():
    ref = _level(_sqrt2_record(SQRT2))
    assert refcheck.compare_level(ref, _level(status="failed"))


def test_accepts_another_integral_basis_and_generator():
    ref = _level(_sqrt2_record(SQRT2), _golden_record(GOLDEN))
    # Q(sqrt 2) generated by theta = 1 + sqrt 2 (minpoly x^2 - 2x - 1) with
    # integral basis {1, 2 + theta}: a + b sqrt 2 = (a - 3b) + b (2 + theta)
    sqrt2 = dict(_sqrt2_record([(a - 3 * b, b) for a, b in SQRT2]),
                 field_minpoly=["-1", "-2", "1"], basis=[["1/1", "0/1"], ["2/1", "1/1"]])
    # Q(sqrt 5) generated by sqrt 5 itself, basis {1, (1 + theta)/2}
    golden = dict(_golden_record(GOLDEN), field_minpoly=["-5", "0", "1"],
                  basis=[["1/1", "0/1"], ["1/2", "1/2"]])
    got = refcheck.canonical_level({"status": "ok", "blocks": {}},
                                   [refcheck.canonical_record(sqrt2),
                                    refcheck.canonical_record(golden)])
    assert refcheck.compare_level(ref, got) == []


def test_rejects_changed_block_dim_or_orbit_count():
    blocks = {"minus": {"dim": 1250, "orbits": 0, "nu": 999983},
              "plus": {"dim": 1251, "orbits": 0, "nu": 999979}}
    ref = _level(blocks=blocks)
    # nu depends on the seed; only dim and orbits are content
    assert refcheck.compare_level(ref, _level(blocks=dict(blocks, plus=dict(
        blocks["plus"], nu=7)))) == []
    assert refcheck.compare_level(ref, _level(blocks=dict(blocks, plus=dict(
        blocks["plus"], dim=1250))))
    assert refcheck.compare_level(ref, _level(blocks=dict(blocks, minus=dict(
        blocks["minus"], orbits=1))))
    assert refcheck.compare_level(ref, _level(blocks={"minus": blocks["minus"]}))


def _sieve(eliminated, remainder):
    return {"minus": {"sieve": {"eliminated": eliminated, "undetermined": [],
                                "certified_remainder": remainder, "nus": [999983]}}}


def test_sieve_degrees_may_grow_but_not_shrink():
    ref = _level(blocks=_sieve([7, 8, 9], None))
    assert refcheck.compare_level(ref, _level(blocks=_sieve([7, 8, 9, 10], 40))) == []
    assert refcheck.compare_level(ref, _level(blocks=_sieve([7, 9], None)))


def test_sieve_certified_remainder_must_agree_when_both_certify():
    ref = _level(blocks=_sieve([7, 8], 40))
    assert refcheck.compare_level(ref, _level(blocks=_sieve([7, 8], 41)))
    assert refcheck.compare_level(ref, _level(blocks=_sieve([7, 8], None))) == []


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


FAKE_SOURCE = '''
def work(dt):
    CLOCK.t += dt

def npoly_mul(a, b):
    work(1.0)
    return a * b

class Ctx:
    def powmod(self, a, e):
        work(0.5)
        return npoly_mul(npoly_mul(a, a), e)

    @classmethod
    def build(cls):
        work(0.25)
        return cls()

    @staticmethod
    def fail():
        work(2.0)
        raise ValueError("boom")

def enumerate_candidates(d):
    work(1.0)
    for k in range(1, d // 2 + 1):
        enumerate_candidates(k)
    return d
'''


@pytest.fixture
def fake(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    mod.CLOCK = clock
    exec(FAKE_SOURCE, mod.__dict__)
    pkg.mod = mod
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod, clock


NAMES = ["mod.npoly_mul", "mod.Ctx.powmod", "mod.Ctx.build", "mod.Ctx.fail",
         "mod.enumerate_candidates"]


def test_self_time_excludes_wrapped_children(fake):
    mod, clock = fake
    with spans.Tracer("fakepkg", NAMES, clock=clock) as tr:
        assert mod.Ctx().powmod(2, 3) == 12
    pm, mul = tr.stats["mod.Ctx.powmod"], tr.stats["mod.npoly_mul"]
    assert (pm.calls, pm.s, pm.self_s) == (1, 2.5, 0.5)
    assert (mul.calls, mul.s, mul.self_s) == (2, 2.0, 2.0)
    assert tr.edges[("mod.Ctx.powmod", "mod.npoly_mul")] == [2, 2.0]


def test_recursive_spans_count_inclusive_time_once(fake):
    mod, clock = fake
    with spans.Tracer("fakepkg", NAMES, clock=clock) as tr:
        mod.enumerate_candidates(4)  # calls itself for 1 and 2, and 2 for 1
    st = tr.stats["mod.enumerate_candidates"]
    assert st.calls == 4
    assert st.s == 4.0
    assert st.self_s == 4.0


def test_methods_and_errors(fake):
    mod, clock = fake
    with spans.Tracer("fakepkg", NAMES, clock=clock) as tr:
        assert isinstance(mod.Ctx.build(), mod.Ctx)
        with pytest.raises(ValueError):
            mod.Ctx.fail()
    assert tr.stats["mod.Ctx.build"].s == 0.25
    assert (tr.stats["mod.Ctx.fail"].errors, tr.stats["mod.Ctx.fail"].s) == (1, 2.0)


def test_missing_names_are_absent_and_wrappers_are_removed(fake):
    mod, clock = fake
    originals = (mod.npoly_mul, mod.Ctx.__dict__["powmod"], mod.Ctx.__dict__["build"])
    names = NAMES + ["mod.gone", "mod.Ctx.gone", "mod.Missing.f", "nosuchmodule.f"]
    tr = spans.Tracer("fakepkg", names, clock=clock)
    with pytest.raises(RuntimeError):
        with tr:
            assert mod.npoly_mul is not originals[0]
            raise RuntimeError("the run ends early")
    assert tr.absent == ["mod.gone", "mod.Ctx.gone", "mod.Missing.f", "nosuchmodule.f"]
    assert set(tr.stats) == set(NAMES)
    assert (mod.npoly_mul, mod.Ctx.__dict__["powmod"], mod.Ctx.__dict__["build"]) == originals


# ---------------------------------------------------------------------------
# solve_s
# ---------------------------------------------------------------------------


def test_solve_s_sums_each_levels_median_over_the_passes():
    # a burst of contention in the second pass slows level 5 ninefold
    passes = [{5: 1.0, 7: 2.0}, {5: 9.0, 7: 2.2}, {5: 1.2, 7: 2.1}]
    assert run._solve_s(passes) == pytest.approx(1.2 + 2.1)
    assert run._solve_s(passes[:1]) == pytest.approx(3.0)
