"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py

Runs one pass of every workload for the default seed and the held-out
seed and writes ``digests.json``. Only re-record when outputs are meant to
change: the recorded digests are what makes "identical verdicts and
traces" a mechanical check.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1, 2)  # default seed, held-out seed


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import workloads

    digests: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            tally = run.Tally()
            with run.workdir(workload):
                run.run_pass(workloads.setup(workload, seed), {}, tally)
            if tally.failed:
                print(f"error: {workload} seed {seed}: {tally.failed} item(s) failed", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = tally.first
            print(f"{workload} seed {seed}: {len(tally.first)} items", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
