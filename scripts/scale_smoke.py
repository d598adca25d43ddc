#!/usr/bin/env python3
"""Single-level timing/memory smoke at five-digit levels.

    python scripts/scale_smoke.py 10007
    python scripts/scale_smoke.py 10061   # has a dimension-1 orbit
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import logging  # noqa: E402

from ssforms import pipeline  # noqa: E402


def main():
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 10007
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    t0 = time.time()
    rep = pipeline.run_level(p, pipeline.RunConfig(level=p))
    dt = time.time() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"level {p}: {rep.status}, {len(rep.records)} record(s), "
          f"{dt:.1f}s, peak rss {rss:.0f} MB")
    for rec in rep.records:
        print(f"  dim {rec['dim']} al_sign {rec['al_sign']:+d} "
              f"disc {rec['field_disc']} coeffs to n={len(rec['coeffs'])}")
    return 0 if rep.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
