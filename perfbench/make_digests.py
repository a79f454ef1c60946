"""Rebuild ``digests.json``: the ``corpus`` workload's output oracle.

Runs every runnable (app, mode) pair once on ``titan`` under the
``interp`` tier, the reference interpreter, and records one digest per
run (see :func:`oracle.digest`).  Takes several minutes; rerun it only
when the corpus or the modeled results change on purpose::

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
import time

import oracle
import repo

REFERENCE_TIER = "interp"


def main() -> int:
    repo.bootstrap()
    from repro.apps.base import all_apps
    from repro.harness import runner

    runs = {}
    t0 = time.perf_counter()
    for app, mode in oracle.corpus_pairs(all_apps()):
        result = oracle.run_pair(runner, app, mode, REFERENCE_TIER)
        if not result.ok:
            print(f"{oracle.pair_key(app, mode)} failed under "
                  f"{REFERENCE_TIER}", file=sys.stderr)
            return 1
        runs[oracle.pair_key(app, mode)] = oracle.digest(result)
    doc = {"tier": REFERENCE_TIER, "device": "titan", "runs": runs}
    oracle.DIGESTS_PATH.write_text(json.dumps(doc, indent=1) + "\n",
                                   encoding="utf-8")
    print(f"{len(runs)} digests written to {oracle.DIGESTS_PATH.name} in "
          f"{time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
