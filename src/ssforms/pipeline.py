"""Per-level orchestration and the command-line interface.

Stages per level and Atkin-Lehner block: isogeny graph, Wiedemann charpoly
mod an auxiliary prime, candidate detection and eigenbasis lifting, Mestre
q-expansions, and (optionally) the high-degree sieve.  Runs are deterministic
given (config, seed).  With a cache dir, the ell=2 graph (which fixes the
vertex order) is checkpointed as an exact text file keyed by level and schema
version; T_ell for ell >= 3 is rebuilt by vertex matching, and charpolys are
never checkpointed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf, lift, linalg, mestre, series, sieve, ssgraph

SCHEMA_VERSION = 1
log = logging.getLogger("ssforms")


LIFT_NU_RETRIES = 4    # auxiliary primes a failed lift moves on to
SIEVE_NU_BUDGET = 12   # auxiliary primes the degree sieve may use per block


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    level: int | None = None
    level_range: tuple[int, int] | None = None
    g_max: int = 6
    n_coeffs: int | None = None        # default: Sturm bound floor((p+1)/6)
    nu_list: tuple = linalg.NU_DEFAULTS
    seed: int = 0
    run_sieve: bool = False
    workers: int = 1
    cache_dir: str | None = None
    out_dir: str | None = None

    def validate(self):
        # checked before levels() sieves the range up to its end
        top = self.level if self.level is not None else self.level_range[1]
        if top > gf.MAX_MODULUS:
            raise ConfigError(f"level {top} exceeds the word-size threshold")
        for p in self.levels():
            if p < 5 or not gf.is_probable_prime(p):
                raise ConfigError(f"level {p} is not a prime >= 5")
        if not self.nu_list:
            raise ConfigError("need at least one auxiliary modulus")
        for nu in self.nu_list:
            if nu > gf.MAX_MODULUS or not gf.is_probable_prime(nu):
                raise ConfigError(f"auxiliary modulus {nu} is not a prime <= "
                                  f"{gf.MAX_MODULUS}")
        if self.n_coeffs is not None and self.n_coeffs < 2:
            raise ConfigError("need at least 2 coefficients")
        if not 1 <= self.g_max <= 6:
            raise ConfigError("g_max must be between 1 and 6")

    def levels(self) -> list[int]:
        if self.level is not None:
            return [self.level]
        a, b = self.level_range
        return [p for p in _primes_between(max(a, 5), b)]


def _primes_between(a: int, b: int) -> list[int]:
    if b < 2:
        return []
    a = max(a, 2)
    is_comp = np.zeros(b + 1, dtype=bool)
    for q in range(2, int(b**0.5) + 1):
        if not is_comp[q]:
            is_comp[q * q :: q] = True
    return (np.flatnonzero(~is_comp[a:]) + a).tolist()


def sturm_bound(p: int) -> int:
    return (p + 1) // 6


# ---------------------------------------------------------------------------
# Graph store: the ell=2 walk fixes the vertex order; T_ell for ell >= 3 is
# matched against its vertices
# ---------------------------------------------------------------------------


class GraphStore:
    """The supersingular vertices of level p and the plus and minus
    Atkin-Lehner blocks of each T_ell.  T_ell is built once per ell, as a
    sparse matrix (no n x n array), and only its blocks are kept."""

    def __init__(self, p: int, rng, cache_dir: str | None):
        self.p = p
        self.rng = rng
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._blocks: dict[tuple[int, str], linalg.SparseSignedMatrix] = {}
        self._j_series: dict[int, tuple] = {}
        self.sset, t2 = self._load_or_walk()
        self.al2 = ssgraph.split_atkin_lehner(t2, self.sset)

    def _load_or_walk(self):
        """The ell=2 graph, which fixes the vertex order: read from the cache
        when there is one, else walked and (with a cache dir) written."""
        path = None
        if self.cache_dir is not None:
            path = self.cache_dir / f"graph_v{SCHEMA_VERSION}_p{self.p}_l2.txt"
            if path.exists():
                return ssgraph.graph_from_text(path.read_text())
        t0 = time.monotonic()
        sset, t = ssgraph.build_adjacency(self.p, self.rng)
        log.info("stage=graph p=%d ell=2 vertices=%d dt=%.2fs",
                 self.p, len(sset), time.monotonic() - t0)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(ssgraph.graph_to_text(sset, t))
        return sset, t

    def j_series(self, n: int) -> tuple:
        """series.j_series(p, n), computed on first use and kept for the
        level's other block."""
        if n not in self._j_series:
            self._j_series[n] = series.j_series(self.p, n)
        return self._j_series[n]

    def block(self, ell: int, name: str) -> linalg.SparseSignedMatrix:
        key = (ell, name)
        if key not in self._blocks:
            if ell == 2:
                al = self.al2
            else:
                t0 = time.monotonic()
                t = ssgraph.hecke_matrix(self.sset, ell)
                log.info("stage=graph p=%d ell=%d vertices=%d dt=%.2fs",
                         self.p, ell, len(self.sset), time.monotonic() - t0)
                al = ssgraph.split_atkin_lehner(t, self.sset)
            self._blocks[(ell, "plus")] = al.plus
            self._blocks[(ell, "minus")] = al.minus
        return self._blocks[key]


# ---------------------------------------------------------------------------
# Per-level driver
# ---------------------------------------------------------------------------


@dataclass
class LevelReport:
    level: int
    status: str
    blocks: dict
    records: list
    error: str | None = None


def _block_charpoly(store: GraphStore, name: str, cfg: RunConfig, rng,
                    nu_start: int = 0) -> linalg.CharpolyRecord:
    m = store.block(2, name)
    t0 = time.monotonic()
    rec = linalg.hecke_charpoly(m, rng, nu_start, nu_list=cfg.nu_list)
    log.info("stage=charpoly p=%d block=%s n=%d nu=%d completion=%s bm_runs=%s "
             "bm_skipped=%s dt=%.2fs",
             store.p, name, m.n, rec.nu, rec.provenance.get("completion"),
             rec.provenance.get("bm_runs"), rec.provenance.get("bm_skipped"),
             time.monotonic() - t0)
    return rec


def _cuspidal_part(chi: np.ndarray, nu: int, name: str) -> np.ndarray:
    if name != "minus":
        return chi
    eis = np.array([(-3) % nu, 1], dtype=np.int64)
    quo, rem = gf.npoly_divrem(chi, eis, nu)
    if len(rem):
        raise linalg.CharpolyFailure("Eisenstein factor (t-3) missing from minus block")
    q2, r2 = gf.npoly_divrem(quo, eis, nu)
    if not len(r2):
        raise linalg.CharpolyFailure("Eisenstein factor (t-3) repeats; bad modulus")
    return quo


def _lift_block_orbits(store: GraphStore, name: str, cfg: RunConfig, rng):
    """Charpoly, factor detection, and lifting for one AL block, with the
    change-the-modulus retry loop: (orbits, provenance, the block's charpolys
    by modulus)."""
    block = store.block(2, name)
    if block.n == 0:
        return [], {"dim": 0, "nu": None, "orbits": 0}, {}
    rec = _block_charpoly(store, name, cfg, rng)
    chis = {rec.nu: rec.chi}
    cusp = _cuspidal_part(rec.chi, rec.nu, name)
    detected = lift.detect_factors(cusp, rec.nu, cfg.g_max)
    orbits = []
    prov = {"dim": block.n, "nu": rec.nu, "nu_history": [rec.nu],
            "completion": rec.provenance.get("completion"), "dropped": []}
    for rho, mult in detected:
        got, rec = _lift_one_factor(store, name, block, rho, mult, rec, cfg, rng, prov)
        chis[rec.nu] = rec.chi
        orbits.extend(got)
    prov["orbits"] = len(orbits)
    return orbits, prov, chis


def _lift_one_factor(store, name, block, rho, mult, rec, cfg, rng, prov):
    """Lift one detected factor, switching the auxiliary prime on failures;
    a factor that stops dividing chi under a new modulus is discarded."""
    p = store.p
    for attempt in range(LIFT_NU_RETRIES + 1):
        nu = rec.nu
        try:
            if len(rho) == 2 and mult == 1:
                lam = -rho[0]
                v = lift.lift_1dim(block, lam, rec.mu, nu, rng)
                orbit = lift.GaloisOrbit(
                    level=p, block=name, rho=rho, multiplicity=1, dim=1,
                    field_poly=rho, basis=[v.tolist()], sep_ell=2)
                log.info("stage=lift p=%d block=%s rho=%s route=1dim", p, name, rho)
                return [orbit], rec
            hl = lift.lift_highdim(
                block, rho, mult, rec.mu, nu, rng, lambda ell: store.block(ell, name), p)
            got = lift.separate_orbits(hl, p, name)
            log.info("stage=lift p=%d block=%s rho=%s route=highdim sep_ell=%d orbits=%d",
                     p, name, rho, hl.sep_ell, len(got))
            return got, rec
        except lift.LiftFailure as e:
            if attempt == LIFT_NU_RETRIES:
                raise
            start = cfg.nu_list.index(nu) + 1 if nu in cfg.nu_list else attempt + 1
            rec = _block_charpoly(store, name, cfg, rng, nu_start=start)
            prov["nu_history"].append(rec.nu)
            cusp = _cuspidal_part(rec.chi, rec.nu, name)
            redetected = dict(lift.detect_factors(cusp, rec.nu, cfg.g_max))
            if rho not in redetected:
                prov["dropped"].append(list(rho))
                log.info("stage=lift p=%d block=%s rho=%s dropped (not a factor mod %d)",
                         p, name, rho, rec.nu)
                return [], rec
            mult = min(mult, redetected[rho])
    raise lift.LiftFailure("unreachable")


def _qexpansions(store: GraphStore, orbits, cfg: RunConfig, rng, prov: dict):
    """The records of the block's orbits of dimension at most g_max; the
    dimensions of the others (a factor of degree <= g_max met with a
    multiplicity) go to the block provenance under above_gmax."""
    p = store.p
    above = [orbit.dim for orbit in orbits if orbit.dim > cfg.g_max]
    if above:
        prov["above_gmax"] = above
    n_coeffs = cfg.n_coeffs if cfg.n_coeffs is not None else sturm_bound(p)
    n_coeffs = max(n_coeffs, 2)
    prec = n_coeffs + mestre.PRECISION_GUARD
    records = []
    for orbit in orbits:
        if orbit.dim > cfg.g_max:
            continue
        j, jp = store.j_series(prec + 4)
        t0 = time.monotonic()
        hecke = mestre.HeckeField.build(orbit.field_poly)
        fld = hecke.field
        t_series = time.monotonic()
        psis = [
            mestre.mestre_rhs(np.array(u, dtype=np.int64), orbit.block, store.sset,
                              _orbit_pairs(store, orbit.block), j, jp, prec)
            for u in orbit.basis
        ]
        t_series = time.monotonic() - t_series
        powers = mestre.separating_powers(
            orbit.basis, store.block(orbit.sep_ell, orbit.block), fld.deg)
        alpha_cols = {}
        exact = {}
        needed = fld.deg + 2
        for ell in (2, 3, 5, 7, 11, 13):
            if ell == p or len(alpha_cols) >= needed:
                continue
            a_ell = mestre.eigenvalue_of(powers, store.block(ell, orbit.block), fld)
            alpha_cols[ell] = hecke.to_basis_coords(a_ell)
            exact[ell] = a_ell
        beta = mestre.solve_beta(
            alpha_cols, psis, p,
            lambda: {n: hecke.to_basis_coords(a)
                     for n, a in mestre.composite_probes(exact, fld, p).items()})
        qe = mestre.q_expansion(orbit, hecke, beta, psis, n_coeffs, p, exact)
        log.info("stage=qexp p=%d block=%s dim=%d disc=%d probes=%s series=%.2fs dt=%.2fs",
                 p, orbit.block, orbit.dim, hecke.disc, beta.probes, t_series,
                 time.monotonic() - t0)
        records.append(_record_of(qe, orbit, hecke, beta))
    return records


def _orbit_pairs(store: GraphStore, block: str):
    return store.al2.minus_orbits if block == "minus" else store.al2.plus_orbits


def _record_of(qe: mestre.QExpansion, orbit, hecke: mestre.HeckeField, beta):
    return {
        "version": SCHEMA_VERSION,
        "level": qe.level,
        "al_sign": -qe.a_p,
        "dim": orbit.dim,
        "a2_minpoly": [str(c) for c in orbit.rho],
        "field_minpoly": [str(c) for c in hecke.poly],
        "field_disc": str(hecke.disc),
        "basis": [
            [f"{x.numerator}/{x.denominator}" for x in b] for b in hecke.basis
        ],
        "coeffs": [[str(c) for c in row] for row in qe.coeffs],
        "provenance": {
            "block": orbit.block,
            "sep_ell": orbit.sep_ell,
            "probes": list(beta.probes),
            "a_p": qe.a_p,
        },
    }


def run_level(p: int, cfg: RunConfig) -> LevelReport:
    rng = np.random.default_rng([cfg.seed, p])
    t_start = time.monotonic()
    try:
        store = GraphStore(p, rng, cfg.cache_dir)
        blocks = {}
        records = []
        for name in ("minus", "plus"):
            orbits, prov, chis = _lift_block_orbits(store, name, cfg, rng)
            records.extend(_qexpansions(store, orbits, cfg, rng, prov))
            if cfg.run_sieve:
                prov["sieve"] = _run_sieve(store, name, orbits, chis, cfg, rng)
            else:
                prov["sieve"] = "skipped"
            blocks[name] = prov
        records.sort(key=lambda r: (r["provenance"]["block"], r["dim"],
                                    [int(c) for c in r["a2_minpoly"]]))
        log.info("stage=level p=%d records=%d dt=%.2fs", p, len(records),
                 time.monotonic() - t_start)
        return LevelReport(p, "ok", blocks, records)
    except Exception as e:  # noqa: BLE001 - per-level failures must not kill ranges
        log.exception("level %d failed", p)
        return LevelReport(p, "failed", {}, [], error=f"{type(e).__name__}: {e}")


def _run_sieve(store: GraphStore, name: str, orbits, chis: dict, cfg: RunConfig, rng):
    """Degree sieve for one AL block.  chis holds the charpolys the lifting
    stage computed, by modulus; the charpoly mod nu is unique, so those are
    reused and Wiedemann runs only at the other moduli."""
    block = store.block(2, name)
    if block.n == 0:
        return {"eliminated": [], "undetermined": [], "certified_remainder": None}
    known = []
    if name == "minus":
        known.append(((-3, 1), 1))
    by_rho = {}
    for orbit in orbits:
        mult = orbit.dim // (len(orbit.rho) - 1)
        by_rho[orbit.rho] = by_rho.get(orbit.rho, 0) + mult
    known.extend((rho, mult) for rho, mult in sorted(by_rho.items()))

    def chi_provider(nu):
        if nu in chis:
            return chis[nu]
        return linalg.hecke_charpoly(block, rng, nu_list=(nu,), max_nus=1,
                                     retry_budget0=4).chi

    rep = sieve.certify_degrees(chi_provider, block.n, known, name, cfg.nu_list,
                                rng, nu_budget=SIEVE_NU_BUDGET)
    return {
        "eliminated": rep.eliminated,
        "undetermined": rep.undetermined,
        "certified_remainder": rep.certified_remainder,
        "nus": rep.nus_used,
    }


def _pool_run(levels, cfg: RunConfig, workers: int) -> dict:
    """Run levels in a process pool: per level its LevelReport, or the
    exception that its future raised."""
    import concurrent.futures as cf

    out = {}
    with cf.ProcessPoolExecutor(max_workers=workers) as ex:
        futures = {ex.submit(run_level, p, cfg): p for p in levels}
        for fut in cf.as_completed(futures):
            p = futures[fut]
            try:
                out[p] = fut.result()
            except Exception as e:  # noqa: BLE001 - turned into failed reports
                out[p] = e
    return out


def run_range(cfg: RunConfig):
    levels = cfg.levels()
    if cfg.workers <= 1:
        return [run_level(p, cfg) for p in levels]
    from concurrent.futures.process import BrokenProcessPool

    results = _pool_run(levels, cfg, cfg.workers)
    for p in levels:
        if isinstance(results[p], BrokenProcessPool):
            # a worker that dies (say, killed for memory) breaks every level
            # still pending in its pool; rerun each alone, so that only a
            # level that kills its own worker fails
            results[p] = _pool_run([p], cfg, 1)[p]
        if isinstance(results[p], Exception):
            e = results[p]
            log.error("level %d failed in its worker process: %s: %s",
                      p, type(e).__name__, e)
            results[p] = LevelReport(p, "failed", {}, [],
                                     error=f"{type(e).__name__}: {e}")
    return [results[p] for p in levels]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_outputs(reports, cfg: RunConfig):
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "newforms.jsonl", "w") as fh:
        for rep in reports:
            for rec in rep.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out / "levels.jsonl", "w") as fh:
        for rep in reports:
            fh.write(json.dumps({
                "version": SCHEMA_VERSION,
                "level": rep.level,
                "status": rep.status,
                "blocks": rep.blocks,
                "error": rep.error,
            }, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssforms",
        description="q-expansions of weight-2 prime-level newforms via "
                    "supersingular isogeny graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_level = sub.add_parser("level", help="run a single prime level")
    p_level.add_argument("p", type=int)
    p_range = sub.add_parser("range", help="run all prime levels in [a, b]")
    p_range.add_argument("a", type=int)
    p_range.add_argument("b", type=int)
    for sp in (p_level, p_range):
        sp.add_argument("--gmax", type=int, default=6)
        sp.add_argument("--ncoeffs", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--sieve", choices=("on", "off"), default="off")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s")
    try:
        cfg = RunConfig(
            level=args.p if args.command == "level" else None,
            level_range=(args.a, args.b) if args.command == "range" else None,
            g_max=args.gmax, n_coeffs=args.ncoeffs, seed=args.seed,
            run_sieve=args.sieve == "on", workers=args.workers,
            cache_dir=args.cache_dir, out_dir=args.out)
        cfg.validate()
    except (ConfigError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    reports = run_range(cfg)
    _write_outputs(reports, cfg)
    failed = [r for r in reports if r.status != "ok"]
    for rep in reports:
        print(f"level {rep.level}: {rep.status}, {len(rep.records)} newform "
              f"record(s)")
        for rec in rep.records:
            print(f"  dim {rec['dim']} al_sign {rec['al_sign']:+d} "
                  f"disc {rec['field_disc']} a2_minpoly {rec['a2_minpoly']}")
    if failed:
        print(f"{len(failed)} level(s) failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
