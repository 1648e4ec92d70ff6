"""Campaign benchmark: four end-to-end workloads and a per-layer ledger.

Run from the root of the repository::

    python3 campaign_bench/run.py --workload modes_report --seed 1 \\
        --seconds 10 --trace 0

Workloads (closed loop: one campaign starts when the previous one ends):

* ``modes_report`` -- Fig.-6 engine-modes MTD, 120 boundary-value
  scenarios x 200 ticks through ``run_with_report``, serial, backend auto.
* ``fda_native_pool`` -- Sec.-5 reengineered FDA, 64 random walks x 400
  ticks through ``run_sharded``, 2-process pool, backend native.
* ``fda_batch_sweep`` -- the same FDA, 512 random walks x 50 ticks through
  ``run_sharded``, serial, backend batch.
* ``search_coverage`` -- coverage searches, each from a weak one-scenario
  battery to full transition coverage, serial, with minimization; one
  campaign is one search on the Fig.-6 MTD plus one on the door-lock MTD,
  cycling through 12 seeded pairs.

A run sets up the workload several times (model build, battery, compile;
the median is ``setup_s``), runs an untimed warm-up campaign and the
reference outputs, then times campaigns for ``--seconds`` and checks each
one.  Before each set-up and each campaign it times a fixed reference
job, and reports timings at the reference host speed (``calibration.py``).
A correctness oracle runs after the timed region; any mismatch counts as a
failed scenario and makes the run incorrect.  With ``--trace 1`` half of
the time runs plain campaigns and half runs campaigns with the layer ledger
installed (``ledger.py``); the run then reports per-layer figures (medians
over the traced campaigns) instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
record of the host fingerprint, the seed, raw timings with their sample
counts, and details per workload.  Everything the run writes goes under
``.campaign_bench_tmp/`` in the repository root and is removed at exit.
"""

import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"campaign_bench: no library sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from campaign_bench.bench import main as bench_main
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
