#!/usr/bin/env python3
"""Desk-scale survey: tabulate newform orbits by dimension and Hecke-field
discriminant over a range of prime levels, in the style of the classical
small-level tables.

    python scripts/survey_levels.py 5 500 --out survey_out
"""

import argparse
import collections
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssforms import pipeline  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("a", type=int)
    ap.add_argument("b", type=int)
    ap.add_argument("--gmax", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cfg = pipeline.RunConfig(level_range=(args.a, args.b), g_max=args.gmax,
                             seed=args.seed, out_dir=args.out)
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
    if failures:
        print(f"\n{len(failures)} failed level(s):")
        for level, error in failures:
            print(f"level {level} failed: {error}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
