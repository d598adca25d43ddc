"""ssforms benchmark: end-to-end times and per-module spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small-range --seed 0 --seconds 38 --trace 0

Each run is one process with one thread of work.  It drives ssforms only
through ``pipeline.RunConfig`` and ``pipeline.run_level`` (a range runs level
by level, as serial ``pipeline.run_range`` does), with no graph cache;
outputs go to a temporary directory and are checked against
``perfbench/reference`` by mathematical content (see ``refcheck.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the machine facts and the raw samples.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass and the tracing overhead.  See README.md.

Other modes: ``--write-reference`` regenerates the reference files at seed 0;
``--setup-probe`` and ``--build-table`` are the child processes a run starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import refcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference"

WORKLOADS = {
    # many small levels: graphs for every ell <= 13, orbits of dimension 1-6
    "small-range": {"range": (5, 150), "sieve": False},
    # a large level with no orbit to expand: factor detection over the whole
    # candidate table, Krylov/Berlekamp-Massey and the dense Atkin-Lehner
    # split on 584 vertices
    "large-levels": {"levels": (7001,), "sieve": False},
    # the degree sieve, where gf's dense-polynomial kernels do the work
    "sieve-1399": {"levels": (1399,), "sieve": True},
}
WARMUP_LEVEL = 11
SETUP_PROBES = 3
TABLE_BUILDS = 5

TRACED = [
    "pipeline.run_level",
    "ssgraph.build_adjacency",
    "ssgraph.split_atkin_lehner",
    "gf.poly_roots",
    "gf.npoly_mul",
    "gf.NPolyModCtx.powmod",
    "gf.npoly_distinct_degree",
    "gf.npoly_equal_degree_split",
    "gf.npoly_rabin_irreducible",
    "linalg.hecke_charpoly",
    "linalg.krylov_probe",
    "linalg.berlekamp_massey",
    "linalg.charpoly_complete",
    "linalg.SparseSignedMatrix.matvec_mod",
    "lift.enumerate_candidates",
    "lift.detect_factors",
    "lift.lift_1dim",
    "lift.lift_highdim",
    "lift.separate_orbits",
    "series.j_series",
    "series.brent_kung_compose",
    "mestre.HeckeField.build",
    "mestre.mestre_rhs",
    "mestre.eigenvalue_of",
    "mestre.solve_beta",
    "mestre.q_expansion",
    "numfield.integral_basis",
    "sieve.certify_degrees",
    "sieve.factor_mod_nu",
]


def log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Importing the program under test
# ---------------------------------------------------------------------------


def _import_program():
    """Import ssforms from the checkout's ``src``; return (lift, pipeline)."""
    sys.path.insert(0, str(SRC))
    from ssforms import lift, pipeline

    return lift, pipeline


def _table_paths() -> tuple[Path, Path]:
    """(table, build record) for the current sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssforms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stem = BUILD / f"candidates-{digest.hexdigest()[:16]}"
    return stem.with_suffix(".npz"), stem.with_suffix(".json")


def _prime_candidates(lift):
    """Serve ``lift.enumerate_candidates`` from the table the build step
    stored, so that a measured process does not build it again; the build's
    own cost is counted from the build record (see ``_ensure_table``).
    Does nothing when the program has no such function."""
    if not hasattr(lift, "enumerate_candidates"):
        return
    import numpy as np

    with np.load(_table_paths()[0], allow_pickle=False) as z:
        table = {int(k[1:]): tuple(map(tuple, z[k].tolist())) for k in z.files}
    compute = lift.enumerate_candidates

    def enumerate_candidates(d):
        return table[d] if d in table else compute(d)

    lift.enumerate_candidates = enumerate_candidates


def build_table(out: Path):
    """Child process: build the candidate table in a fresh process as the
    program does on first use (degrees 1..6 in order, as ``detect_factors``
    asks for them), traced; write it to ``out`` and print the build's
    spans and the process's peak RSS as JSON."""
    import numpy as np

    lift, _ = _import_program()
    tracer = spans.Tracer("ssforms", ["lift.enumerate_candidates"])
    tables = {}
    with tracer:
        if not tracer.absent:
            tables = {d: lift.enumerate_candidates(d) for d in range(1, 7)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    np.savez(out, **{f"d{d}": np.array(t, dtype=np.int64) for d, t in tables.items()})
    st = tracer.stats.get("lift.enumerate_candidates", spans.Stat())
    print(json.dumps({"calls": st.calls, "s": st.s, "self_s": st.self_s, "rss_mb": rss_mb}))


def _ensure_table() -> dict:
    """The benchmark's build step, once per checkout: build the candidate
    table ``TABLE_BUILDS`` times, each in a fresh child process, and store
    it with a build record.  The record keeps the build whose time is the
    median, and the median peak RSS; runs add these to ``setup_s`` and
    ``peak_rss_mb``.  A program without the table records zero build time
    and the peak RSS of importing it."""
    path, record = _table_paths()
    if not record.exists():
        BUILD.mkdir(exist_ok=True)
        builds = []
        for _ in range(TABLE_BUILDS):
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--build-table", str(path)],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            builds.append(json.loads(out.strip().splitlines()[-1]))
            log(f"built the eigenvalue-candidate table in {builds[-1]['s']:.1f}s, "
                f"peak RSS {builds[-1]['rss_mb']:.0f} MB")
        median = sorted(builds, key=lambda b: b["s"])[len(builds) // 2]
        data = {"build": median, "rss_mb": statistics.median(b["rss_mb"] for b in builds),
                "builds": builds}
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, record)
    return json.loads(record.read_text())


# ---------------------------------------------------------------------------
# Running a workload and checking its outputs
# ---------------------------------------------------------------------------


def _solve(pipeline, spec: dict, seed: int):
    """Run one pass of a workload; return ({level: wall seconds}, reports).

    A range is run level by level with the range's ``RunConfig``, which is
    what serial ``run_range`` does, so that each level is timed on its own."""
    RunConfig = pipeline.RunConfig
    if "range" in spec:
        cfg = RunConfig(level_range=spec["range"], seed=seed, run_sieve=spec["sieve"])
        cfg.validate()
        jobs = [(p, cfg) for p in cfg.levels()]
    else:
        jobs = [(p, RunConfig(level=p, seed=seed, run_sieve=spec["sieve"])) for p in spec["levels"]]
        for _, cfg in jobs:
            cfg.validate()
    gc.collect()
    times, reports = {}, []
    for p, cfg in jobs:
        t0 = time.perf_counter()
        reports.append(pipeline.run_level(p, cfg))
        times[p] = time.perf_counter() - t0
    return times, reports


def _solve_s(passes: list[dict]) -> float:
    """The sum over levels of each level's median time over the passes.
    Taking the median per level keeps a burst of contention on the shared
    host, which slows every level it overlaps, out of the figure."""
    return sum(statistics.median(p[level] for p in passes) for level in passes[0])


def _content(pipeline, reports, memo: dict):
    """(canonical content per level, levels.jsonl lines), written by the
    program's own writer to a temporary directory and read back."""
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        pipeline._write_outputs(reports, pipeline.RunConfig(out_dir=tmp))
        content = refcheck.read_outputs(tmp, memo)
        levels = [json.loads(line) for line in (Path(tmp) / "levels.jsonl").read_text().splitlines()]
    return content, levels


def _check(content: dict, reference: dict) -> list[str]:
    """One problem string per level that failed, is missing, is unexpected
    or does not match the reference."""
    problems = []
    for p in sorted(set(reference) | set(content)):
        if p not in content:
            problems.append(f"level {p}: missing from the outputs")
        elif p not in reference:
            problems.append(f"level {p}: not in the reference")
        else:
            msgs = refcheck.compare_level(reference[p], content[p])
            if msgs:
                problems.append(f"level {p}: " + "; ".join(msgs))
    return problems


def _load_reference(name: str) -> dict:
    data = json.loads((REFERENCE / f"{name}.json").read_text())
    return {int(p): c for p, c in data["levels"].items()}


def _warmup(pipeline):
    return [pipeline.run_level(WARMUP_LEVEL, pipeline.RunConfig(level=WARMUP_LEVEL))]


def setup_probe():
    """Child process: time ``import ssforms`` plus one warm-up level.
    Loading the stored candidate table is not timed: the build record
    stands in for building it."""
    t0 = time.perf_counter()
    lift, pipeline = _import_program()
    import_s = time.perf_counter() - t0
    _prime_candidates(lift)
    t1 = time.perf_counter()
    reports = _warmup(pipeline)
    setup_s = import_s + time.perf_counter() - t1
    content, _ = _content(pipeline, reports, {})
    print(json.dumps({"setup_s": setup_s,
                      "problems": _check(content, _load_reference("setup"))}))


def _setup_sample() -> tuple[float, list[str]]:
    out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe"],
                         check=True, capture_output=True, text=True).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    return probe["setup_s"], probe["problems"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "sympy": version("sympy")}


@contextlib.contextmanager
def _npoly_mul_lengths(gf):
    """Count the calls of ``gf.npoly_mul`` and sum their mean input length."""
    acc = {"calls": 0, "len": 0.0}
    npoly_mul = getattr(gf, "npoly_mul", None)
    if npoly_mul is None:
        yield acc
        return

    def counted(a, b, *args, **kwargs):
        acc["calls"] += 1
        acc["len"] += (len(a) + len(b)) / 2
        return npoly_mul(a, b, *args, **kwargs)

    gf.npoly_mul = counted
    try:
        yield acc
    finally:
        gf.npoly_mul = npoly_mul


def _add_table_build(tracer, build: dict):
    """Add the stored table build to the ``lift.enumerate_candidates``
    spans, which in a measured process are only table lookups."""
    st = tracer.stats.get("lift.enumerate_candidates")
    if st is None or not build["calls"]:
        return
    st.calls += build["calls"]
    st.s += build["s"]
    st.self_s += build["self_s"]


def _layer_metrics(tracer, reports, levels, overhead_s: float, mul_lengths: dict,
                   table: dict) -> dict:
    m = {}
    for name in TRACED:
        st = tracer.stats.get(name)
        if st is None:
            continue
        m[f"{name}.calls"] = (st.calls, "count")
        m[f"{name}.s"] = (st.s, "s")
        m[f"{name}.self_s"] = (st.self_s, "s")
    blocks = sum(1 for rep in reports for b in rep.blocks.values() if b.get("dim"))
    if "linalg.hecke_charpoly" in tracer.stats and blocks:
        calls = tracer.edges.get(("pipeline.run_level", "linalg.hecke_charpoly"), [0])[0]
        m["linalg.hecke_charpoly.calls_per_block"] = (calls / blocks, "ratio")
    if "lift.lift_highdim" in tracer.stats:
        m["lift.lift_highdim.errors"] = (tracer.stats["lift.lift_highdim"].errors, "count")
    sieved = [b["sieve"]["nus"] for lvl in levels for b in lvl["blocks"].values()
              if isinstance(b.get("sieve"), dict) and "nus" in b["sieve"]]
    m["sieve.nus_per_block"] = (sum(map(len, sieved)) / len(sieved) if sieved else 0.0, "ratio")
    if "gf.npoly_mul" in tracer.stats:
        calls = mul_lengths["calls"]
        m["gf.npoly_mul.mean_len"] = (mul_lengths["len"] / calls if calls else 0.0, "terms")
    if "lift.enumerate_candidates" in tracer.stats:
        m["lift.enumerate_candidates.peak_rss_mb"] = (table["rss_mb"], "MB")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _write_spans(tracer, name: str, seed: int):
    out = BUILD / "trace"
    out.mkdir(parents=True, exist_ok=True)
    data = {
        "stats": {k: {"calls": s.calls, "s": s.s, "self_s": s.self_s, "errors": s.errors}
                  for k, s in tracer.stats.items()},
        "edges": [{"caller": a, "callee": b, "calls": c, "s": t}
                  for (a, b), (c, t) in sorted(tracer.edges.items())],
        "absent": tracer.absent,
    }
    (out / f"{name}-seed{seed}.json").write_text(json.dumps(data, indent=1))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    info = {"workload": name, "seed": seed, "machine": _machine(),
            "loadavg_start": os.getloadavg()}
    spec = WORKLOADS[name]
    reference = _load_reference(name)
    table = _ensure_table()

    attempted, problems = 0, []
    samples = []

    def setup_sample():
        nonlocal attempted
        setup_s, msgs = _setup_sample()
        samples.append(setup_s)
        attempted += 1
        problems.extend(msgs)

    lift, pipeline = _import_program()
    _prime_candidates(lift)
    memo: dict = {}
    content, _ = _content(pipeline, _warmup(pipeline), memo)
    attempted += 1
    problems += _check(content, _load_reference("setup"))

    def one_pass():
        nonlocal attempted
        times, reports = _solve(pipeline, spec, seed)
        content, levels = _content(pipeline, reports, memo)
        attempted += len(reference)
        problems.extend(_check(content, reference))
        return times, reports, levels

    passes = []
    metrics = {}
    if trace:
        untraced, _, _ = one_pass()
        tracer = spans.Tracer("ssforms", TRACED)
        with _npoly_mul_lengths(sys.modules["ssforms.gf"]) as mul_lengths, tracer:
            traced, reports, levels = one_pass()
        passes = [untraced, traced]
        _add_table_build(tracer, table["build"])
        _write_spans(tracer, name, seed)
        info["absent"] = tracer.absent
        overhead_s = sum(traced.values()) - sum(untraced.values())
        metrics = _layer_metrics(tracer, reports, levels, overhead_s, mul_lengths, table)
    else:
        # passes repeat until the next one would end after `seconds`; the
        # set-up samples run one before each of the first passes and the
        # rest at the end, so that they see the same machine as the passes
        t_start = time.perf_counter()
        while True:
            t_iter = time.perf_counter()
            if len(samples) < SETUP_PROBES - 1:
                setup_sample()
            passes.append(one_pass()[0])
            now = time.perf_counter()
            if now - t_start + (now - t_iter) > seconds:
                break
        while len(samples) < SETUP_PROBES:
            setup_sample()
        own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["own_peak_rss_mb"] = own_rss_mb
        metrics = {
            "setup_s": (table["build"]["s"] + statistics.median(samples), "s"),
            "solve_s": (_solve_s(passes), "s"),
            "peak_rss_mb": (max(table["rss_mb"], own_rss_mb), "MB"),
        }

    failed = len(problems)
    if trace:
        metrics["failed_frac"] = (failed / attempted, "ratio")
    info.update(table_build=table, setup_samples_s=samples, passes_s=passes,
                problems=problems[:50], loadavg_end=os.getloadavg())
    return info, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_reference():
    _ensure_table()
    lift, pipeline = _import_program()
    _prime_candidates(lift)
    REFERENCE.mkdir(exist_ok=True)
    runs = {"setup": _warmup(pipeline)}
    for name, spec in WORKLOADS.items():
        times, runs[name] = _solve(pipeline, spec, 0)
        log(f"{name}: {sum(times.values()):.1f}s")
    for name, reports in runs.items():
        content, _ = _content(pipeline, reports, {})
        bad = [p for p, c in content.items() if c["status"] != "ok"]
        if bad:
            raise SystemExit(f"{name}: levels {bad} failed; no reference written")
        lines = [f"  {json.dumps(str(p))}: {json.dumps(c, sort_keys=True)}"
                 for p, c in sorted(content.items())]
        (REFERENCE / f"{name}.json").write_text(
            f'{{"workload": {json.dumps(name)}, "seed": 0, "levels": {{\n'
            + ",\n".join(lines) + "\n}}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--build-table", metavar="PATH")
    args = ap.parse_args(argv)

    if not (SRC / "ssforms" / "pipeline.py").is_file():
        log(f"no ssforms sources under {SRC}; run from the root of a checkout")
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.build_table:
        build_table(Path(args.build_table))
        return 0
    if args.setup_probe:
        setup_probe()
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
