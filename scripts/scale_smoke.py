#!/usr/bin/env python3
"""Timing/memory smoke at five-digit levels: wall time and peak RSS per level.

    python scripts/scale_smoke.py 10007
    python scripts/scale_smoke.py 10061              # has a dimension-1 orbit
    python scripts/scale_smoke.py 10007 --sieve on
    python scripts/scale_smoke.py 389 10007 10061 30011
    python scripts/scale_smoke.py --ladder           # the above, then 10007 with the sieve
    python scripts/scale_smoke.py --ladder-large     # 1000003 (no orbit), 997813 (one orbit)

With more than one level, each runs in its own child process, one after the
other, so that each peak RSS is that level's alone.  The large ladder takes
tens of minutes and peaks above 1 GB, so no test runs it.
"""

import argparse
import logging
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssforms import pipeline  # noqa: E402

LADDER = [(389, False), (10007, False), (10061, False), (30011, False), (10007, True)]
LADDER_LARGE = [(1000003, False), (997813, False)]


def run_one(p: int, sieve: bool) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    t0 = time.time()
    rep = pipeline.run_level(p, pipeline.RunConfig(level=p, run_sieve=sieve))
    dt = time.time() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"level {p}{' --sieve on' if sieve else ''}: {rep.status}, "
          f"{len(rep.records)} record(s), {dt:.1f}s, peak rss {rss:.0f} MB", flush=True)
    for rec in rep.records:
        print(f"  dim {rec['dim']} al_sign {rec['al_sign']:+d} "
              f"disc {rec['field_disc']} coeffs to n={len(rec['coeffs'])}")
    return 0 if rep.status == "ok" else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("levels", nargs="*", type=int)
    ap.add_argument("--sieve", choices=("on", "off"), default="off",
                    help="run the degree sieve on the listed levels")
    ap.add_argument("--ladder", action="store_true",
                    help="also run 389, 10007, 10061, 30011 and 10007 with the sieve")
    ap.add_argument("--ladder-large", action="store_true",
                    help="also run 1000003 and 997813, each in its own process")
    args = ap.parse_args(argv)
    runs = [(p, args.sieve == "on") for p in args.levels]
    if args.ladder:
        runs += LADDER
    if args.ladder_large:
        runs += LADDER_LARGE
    if not runs:
        runs = [(10007, False)]
    if len(runs) == 1:
        return run_one(*runs[0])
    failed = 0
    for p, sieve in runs:
        cmd = [sys.executable, __file__, str(p), "--sieve", "on" if sieve else "off"]
        failed += subprocess.call(cmd) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
