#!/usr/bin/env python3
"""Desk-scale survey: tabulate newform orbits by dimension and Hecke-field
discriminant over a range of prime levels, in the style of the classical
small-level tables.

    python scripts/survey_levels.py 5 500 --out survey_out
    python scripts/survey_levels.py 10000 10200 --sieve

With --sieve each level also runs the degree sieve, and one line per
Atkin-Lehner block gives the counts of the degrees it eliminated and left
undetermined, and its certified remainder: the degree of the one factor of
dimension > g_max the block can hold, or "-" when none is certified.
"""

import argparse
import collections
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssforms import pipeline  # noqa: E402


def print_sieve(reports):
    print(f"\n{'level':>7} {'block':>5} {'dim':>5} {'elim':>5} {'undet':>5} "
          f"{'certified':>9}  undetermined degrees")
    for rep in reports:
        for name, prov in sorted(rep.blocks.items()):
            sv = prov["sieve"]
            cert = sv["certified_remainder"]
            print(f"{rep.level:>7} {name:>5} {prov['dim']:>5} {len(sv['eliminated']):>5} "
                  f"{len(sv['undetermined']):>5} {'-' if cert is None else cert:>9}  "
                  f"{sv['undetermined'] or ''}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("a", type=int)
    ap.add_argument("b", type=int)
    ap.add_argument("--gmax", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--sieve", action="store_true",
                    help="run the degree sieve and print its report per block")
    args = ap.parse_args()

    cfg = pipeline.RunConfig(level_range=(args.a, args.b), g_max=args.gmax,
                             seed=args.seed, out_dir=args.out, run_sieve=args.sieve)
    cfg.validate()
    t0 = time.time()
    reports = pipeline.run_range(cfg)
    if args.out:
        pipeline._write_outputs(reports, cfg)

    by_disc = collections.defaultdict(list)
    failures = []
    for rep in reports:
        if rep.status != "ok":
            failures.append((rep.level, rep.error))
            continue
        for rec in rep.records:
            by_disc[(rec["dim"], int(rec["field_disc"]))].append(rep.level)

    print(f"\norbit counts for prime levels in [{args.a}, {args.b}] "
          f"(dimension <= {args.gmax}), {time.time() - t0:.1f}s\n")
    print(f"{'dim':>4} {'disc':>10} {'count':>6}  levels")
    for (dim, disc), levels in sorted(by_disc.items()):
        shown = ", ".join(map(str, levels[:8])) + (", ..." if len(levels) > 8 else "")
        print(f"{dim:>4} {disc:>10} {len(levels):>6}  {shown}")
    if args.sieve:
        print_sieve(reports)
    if failures:
        print(f"\n{len(failures)} failed level(s):")
        for level, error in failures:
            print(f"level {level} failed: {error}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
