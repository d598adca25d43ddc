import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssforms import gf, linalg, pipeline, series, ssgraph


def test_run_level_p11():
    rep = pipeline.run_level(11, pipeline.RunConfig(level=11))
    assert rep.status == "ok"
    (rec,) = rep.records
    assert rec["dim"] == 1
    assert rec["a2_minpoly"] == ["2", "1"]
    assert rec["coeffs"][0] == ["1"] and rec["coeffs"][1] == ["-2"]
    assert rec["al_sign"] == -1
    assert rec["version"] == pipeline.SCHEMA_VERSION
    for field in ("level", "al_sign", "dim", "a2_minpoly", "field_minpoly",
                  "field_disc", "basis", "coeffs", "provenance"):
        assert field in rec


def test_run_level_p13_empty():
    rep = pipeline.run_level(13, pipeline.RunConfig(level=13))
    assert rep.status == "ok" and rep.records == []
    assert rep.blocks["minus"]["dim"] == 1  # Eisenstein only
    assert rep.blocks["plus"]["dim"] == 0


def test_run_level_p23_table_row():
    rep = pipeline.run_level(23, pipeline.RunConfig(level=23))
    (rec,) = rep.records
    assert rec["dim"] == 2 and rec["field_disc"] == "5"


def test_orbit_above_gmax_is_listed_not_expanded():
    # the minus block of 1223 has a dimension-9 orbit: a_2 has minimal
    # polynomial t^3 - 5t - 1 with multiplicity 3
    rep = pipeline.run_level(1223, pipeline.RunConfig(level=1223))
    assert rep.status == "ok", rep.error
    assert rep.blocks["minus"]["above_gmax"] == [9]
    assert "above_gmax" not in rep.blocks["plus"]
    assert all(r["dim"] <= 6 for r in rep.records)
    # the key is written only where such an orbit exists
    rep = pipeline.run_level(37, pipeline.RunConfig(level=37))
    assert not any("above_gmax" in blk for blk in rep.blocks.values())


def test_level_1301_solves_beta_with_a_composite_probe():
    # the psi rows of its dimension-4 orbit at the primes 2..13 have rank 3
    # mod p; the composite probe 4, with a_4 = a_2^2 - 2, completes them
    rep = pipeline.run_level(1301, pipeline.RunConfig(level=1301, seed=0))
    assert rep.status == "ok", rep.error
    (rec,) = rep.records
    assert rec["dim"] == 4 and rec["field_disc"] == "2777"
    assert rec["provenance"]["probes"] == [2, 3, 11, 4]


def test_j_series_once_per_level_and_only_for_an_orbit(monkeypatch):
    calls = []
    real = series.j_series

    def counting(p, n):
        calls.append((p, n))
        return real(p, n)

    monkeypatch.setattr(series, "j_series", counting)
    rep = pipeline.run_level(37, pipeline.RunConfig(level=37))
    # both blocks hold an orbit and share one series
    assert {r["provenance"]["block"] for r in rep.records} == {"minus", "plus"}
    assert len(calls) == 1
    calls.clear()
    rep = pipeline.run_level(13, pipeline.RunConfig(level=13))
    assert rep.status == "ok" and rep.records == [] and calls == []


def test_determinism_same_seed(tmp_path):
    cfg = pipeline.RunConfig(level_range=(5, 40), seed=7,
                             out_dir=str(tmp_path / "a"))
    reports = pipeline.run_range(cfg)
    pipeline._write_outputs(reports, cfg)
    cfg2 = pipeline.RunConfig(level_range=(5, 40), seed=7,
                              out_dir=str(tmp_path / "b"))
    reports2 = pipeline.run_range(cfg2)
    pipeline._write_outputs(reports2, cfg2)
    a = (tmp_path / "a" / "newforms.jsonl").read_bytes()
    b = (tmp_path / "b" / "newforms.jsonl").read_bytes()
    assert a == b
    la = (tmp_path / "a" / "levels.jsonl").read_bytes()
    lb = (tmp_path / "b" / "levels.jsonl").read_bytes()
    assert la == lb


def test_cache_correctness(tmp_path):
    cache = tmp_path / "cache"
    cfg_fresh = pipeline.RunConfig(level=37, seed=3)
    rep_fresh = pipeline.run_level(37, cfg_fresh)
    cfg_cache = pipeline.RunConfig(level=37, seed=3, cache_dir=str(cache))
    rep_warm = pipeline.run_level(37, cfg_cache)   # writes the cache
    assert any(cache.glob("graph_*p37*.txt"))
    rep_cached = pipeline.run_level(37, cfg_cache)  # reads it back
    recs = [json.dumps(r.records, sort_keys=True)
            for r in (rep_fresh, rep_warm, rep_cached)]
    assert recs[0] == recs[1] == recs[2]


def test_run_range_reports_all_primes():
    cfg = pipeline.RunConfig(level_range=(5, 100))
    reports = pipeline.run_range(cfg)
    assert [r.level for r in reports] == [
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
        71, 73, 79, 83, 89, 97]
    assert all(r.status == "ok" for r in reports)


def test_config_validation():
    with pytest.raises(pipeline.ConfigError):
        pipeline.RunConfig(level=9).validate()
    with pytest.raises(pipeline.ConfigError):
        pipeline.RunConfig(level=11, n_coeffs=1).validate()
    with pytest.raises(pipeline.ConfigError):
        pipeline.RunConfig(level=11, g_max=9).validate()
    pipeline.RunConfig(level=11).validate()


def test_config_rejects_an_oversized_range_before_sieving(monkeypatch):
    from sympy import primerange

    assert pipeline.RunConfig(level_range=(1, 1000)).levels() == list(primerange(5, 1001))
    assert pipeline.RunConfig(level_range=(13, 13)).levels() == [13]

    def no_sieve(a, b):
        raise AssertionError(f"sieved the range up to {b}")

    # the sieve would take b + 1 bytes: the range end is checked first
    monkeypatch.setattr(pipeline, "_primes_between", no_sieve)
    with pytest.raises(pipeline.ConfigError):
        pipeline.RunConfig(level_range=(5, gf.MAX_MODULUS + 1)).validate()


def test_config_rejects_bad_auxiliary_moduli():
    for nus in ((999983, 999981), (999983, 2**31 - 1), (1,), ()):
        with pytest.raises(pipeline.ConfigError):
            pipeline.RunConfig(level=11, nu_list=nus).validate()
    pipeline.RunConfig(level=11, nu_list=(999983, 2**30 - 35)).validate()


def test_charpoly_counters_logged_and_kept_out_of_levels(caplog):
    with caplog.at_level(logging.INFO, logger="ssforms"):
        rep = pipeline.run_level(389, pipeline.RunConfig(level=389))
    lines = [r.getMessage() for r in caplog.records if "stage=charpoly" in r.getMessage()]
    assert len(lines) == 2 and all("bm_runs=" in x and "bm_skipped=" in x for x in lines)
    assert sum(int(x.split("bm_skipped=")[1].split()[0]) for x in lines) > 0
    assert not any(k.startswith("bm_") for blk in rep.blocks.values() for k in blk)


def test_sieve_reuses_the_lifting_charpoly(monkeypatch):
    # at p = 431 the minus block's sieve uses nu = 999983, whose charpoly the
    # lifting stage already holds, and nu = 999979, which it computes
    sieve_nus = []
    real = linalg.hecke_charpoly

    def recording(m, params, rng, nu_start_index=0):
        rec = real(m, params, rng, nu_start_index)
        if params.max_nus == 1:  # only the sieve pins a single modulus
            sieve_nus.append(rec.nu)
        return rec

    monkeypatch.setattr(linalg, "hecke_charpoly", recording)
    rep = pipeline.run_level(431, pipeline.RunConfig(level=431, run_sieve=True))
    minus = rep.blocks["minus"]
    assert minus["nu"] == 999983 and minus["sieve"]["nus"] == [999983, 999979]
    assert sieve_nus == [999979]
    assert minus["sieve"]["eliminated"] == [7, 8, 9, 10, 11, 12]
    assert minus["sieve"]["certified_remainder"] == 24


def test_cli_level(tmp_path):
    out = tmp_path / "out"
    code = pipeline.main(["level", "11", "--out", str(out), "--seed", "5"])
    assert code == 0
    lines = (out / "newforms.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["level"] == 11 and rec["dim"] == 1
    levels = [json.loads(x) for x in (out / "levels.jsonl").read_text().splitlines()]
    assert levels[0]["status"] == "ok"


def test_cli_config_error():
    assert pipeline.main(["level", "12"]) == 3


def test_cli_entrypoint_subprocess(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "ssforms.pipeline", "level", "13"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"),
             "PATH": "/usr/bin:/bin"},
    )
    assert r.returncode == 0, r.stderr
    assert "level 13: ok" in r.stdout


def test_workers_parallel_range(tmp_path):
    cfg1 = pipeline.RunConfig(level_range=(5, 30), seed=2, workers=2,
                              out_dir=str(tmp_path / "w2"))
    reports = pipeline.run_range(cfg1)
    pipeline._write_outputs(reports, cfg1)
    cfg2 = pipeline.RunConfig(level_range=(5, 30), seed=2, workers=1,
                              out_dir=str(tmp_path / "w1"))
    reports2 = pipeline.run_range(cfg2)
    pipeline._write_outputs(reports2, cfg2)
    assert (tmp_path / "w2" / "newforms.jsonl").read_bytes() == \
        (tmp_path / "w1" / "newforms.jsonl").read_bytes()


_run_level = pipeline.run_level


def _run_level_killing_19(p, cfg):
    """run_level, except that the worker process running level 19 dies."""
    if p == 19:
        os._exit(1)
    return _run_level(p, cfg)


def test_dead_worker_fails_only_its_level(monkeypatch):
    # a worker that dies breaks its pool; the other levels are still run
    # and reported ok, and the dead level becomes a failed report
    monkeypatch.setattr(pipeline, "run_level", _run_level_killing_19)
    cfg = pipeline.RunConfig(level_range=(5, 40), workers=2)
    reports = pipeline.run_range(cfg)
    assert [r.level for r in reports] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    by_level = {r.level: r for r in reports}
    assert by_level[19].status == "failed"
    assert "BrokenProcessPool" in by_level[19].error
    assert all(r.status == "ok" for p, r in by_level.items() if p != 19)


def test_graph_store_builds_no_dense_matrix():
    """At p = 30011 (n = 2502) one dense n x n int64 matrix takes 48 MiB; the
    ell=2 walk, T_3 and their Atkin-Lehner blocks together stay below it."""
    import tracemalloc

    p = 30011
    dense_bytes = ssgraph.supersingular_count(p) ** 2 * 8
    tracemalloc.start()
    try:
        store = pipeline.GraphStore(p, np.random.default_rng(0), None)
        minus = store.block(3, "minus")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert minus.n == len(store.al2.minus_orbits)
    assert peak < dense_bytes, (peak / 2**20, dense_bytes / 2**20)
