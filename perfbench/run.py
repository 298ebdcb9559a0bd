"""Benchmark entry point.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Sets up the workload's inputs from the
seed, then runs passes over its items, one item at a time, until
``--seconds`` have passed. Every item's outputs are checked against the
digests recorded in ``digests.json`` for that seed, if any, and against the
first pass of this run. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs untraced passes, one cProfile pass, then traced
passes, and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# End-to-end metrics, in BENCHMARK.json order; README.md defines them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Names the work and verdict rates go by on each workload.
RATE_NAMES = {
    "corpus": ("traces_per_s", "steps_per_s"),
    "large": ("traces_per_s", "steps_per_s"),
    "certify": ("instances_per_s", "configs_per_s"),
    "certify-split": ("instances_per_s", "configs_per_s"),
}
SPAN_SECONDS = (
    "graph.component_info", "graph.root_distances", "engine.write_trace", "daemon.select",
    "analysis.check_aar_monotone", "analysis.segment_language_check",
    "analysis.check_round_milestones", "analysis.legitimate_config", "analysis.count_rounds",
    "analysis.check_bounds", "cli.bench_corpus", "explorer.certify_instance",
    "explorer.enumerate_initial_configs",
)
SPAN_CALLS = ("graph.component_info", "daemon.select")
OUTPUT_COUNTS = (
    "engine.steps", "engine.trace_bytes",
    "explorer.initial_configs", "explorer.reachable", "explorer.max_steps",
)
SETUP_REPS = 40
# About what ``probe`` takes, run back to back, on the reference host
# (Python 3.11.7, 2-CPU Xeon at 2.0 GHz); timed metrics are scaled to it.
PROBE_REFERENCE_S = 0.0015


def probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now: tuples hashed
    into a dict, the kind of work the program does. Other work on a shared
    host slows it about as much as it slows the program. The cyclic garbage
    collector is held off while it runs, so garbage the program left behind
    is collected in the program's time, as it would be without probes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(10000):
            key = (i & 127, i >> 7)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host's speed, judged by the probes run
    just before and just after."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


@dataclass
class Tally:
    """What the passes of one run attempted, and how it went."""

    probed: bool = True   # run ``probe`` between items, for ``ref_seconds``
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    latencies: list = field(default_factory=list)  # seconds, every successful item
    best: dict = field(default_factory=dict)       # item key -> fastest seconds
    ref_times: dict = field(default_factory=dict)  # item key -> [reference seconds]
    outcome: dict = field(default_factory=dict)    # item key -> first successful outcome
    first: dict = field(default_factory=dict)      # item key -> digest of its first run
    last_probe: float | None = None

    def pass_seconds(self) -> float:
        """One pass with every item at its fastest, in host seconds."""
        return sum(self.best.values())

    def ref_seconds(self) -> float:
        """One pass with every item at its median reference seconds. Each
        run of an item is scaled by the probes on either side of it, so a
        host that is slower for a while, from other work on it, moves the
        probes and the item alike and the ratio stays put."""
        return sum(statistics.median(v) for v in self.ref_times.values())

    def per_pass(self, attr: str) -> int:
        return sum(getattr(out, attr) for out in self.outcome.values())


def run_pass(items, expected: dict, tally: Tally, deadline: float | None = None) -> None:
    """Run every item once, closed loop, and check its outputs. After the
    first pass, stop early once ``deadline`` has passed."""
    tally.passes += 1
    if tally.probed and tally.last_probe is None:
        tally.last_probe = probe()
    for item in items:
        if deadline is not None and tally.passes > 1 and time.perf_counter() >= deadline:
            return
        tally.attempted += 1
        try:
            out = item.run()
        except Exception:
            tally.failed += 1
            print(f"item {item.key} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        finally:
            if tally.probed:
                before, tally.last_probe = tally.last_probe, probe()
        first = tally.first.setdefault(item.key, out.digest)
        want = expected.get(item.key, first)
        if not out.ok or out.digest != want or out.digest != first:
            tally.failed += 1
            print(f"item {item.key} failed: ok={out.ok} digest={out.digest} want={want}", file=sys.stderr)
            continue
        tally.latencies.append(out.seconds)
        tally.best[item.key] = min(out.seconds, tally.best.get(item.key, out.seconds))
        if tally.probed:
            tally.ref_times.setdefault(item.key, []).append(scaled(out.seconds, before, tally.last_probe))
        tally.outcome.setdefault(item.key, out)


def run_passes(items, expected, tally: Tally, seconds: float, whole: bool = True) -> None:
    """Passes, at least one whole one, until ``seconds`` have passed; the
    last pass is cut short at the deadline unless ``whole``."""
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(items, expected, tally, None if whole else deadline)
        if time.perf_counter() >= deadline:
            return


def measure_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Reference seconds to import the package afresh and write the
    workload's inputs into a scratch directory, ``SETUP_REPS`` times. It
    runs before any item exists, so no item holds a module from an earlier
    import; the last import stays in ``sys.modules``."""
    times = []
    before = probe()
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.split(".")[0] in ("stabtree", "workloads")]:
            del sys.modules[name]
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as scratch:
            home = os.getcwd()
            os.chdir(scratch)
            try:
                start = time.perf_counter()
                importlib.import_module("workloads").setup(workload, seed, tiny)
                seconds = time.perf_counter() - start
            finally:
                os.chdir(home)
        after = probe()
        times.append(scaled(seconds, before, after))
        before = after
    return times


def tail(latencies: list) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; None with fewer than 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict:
    wall = tally.ref_seconds()
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "verdicts_per_s": tally.per_pass("verdicts") / wall,
        "work_per_s": tally.per_pass("work") / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    verdict_name, work_name = RATE_NAMES[workload]
    print(f"# {workload}: {tally.passes} passes of {len(tally.best)} items")
    print(f"# {verdict_name} = verdicts_per_s, {work_name} = work_per_s")
    print(f"host_wall_s {tally.pass_seconds():.4f} s (each item at its fastest, unscaled)")
    n = len(tally.latencies)
    print(f"latency_p50_ms {1000 * statistics.median(tally.latencies):.4f} ms ({n} samples)")
    tail_ms = tail(tally.latencies)
    if tail_ms is None:
        print(f"latency_tail_ms omitted: {n} samples")
    else:
        print(f"latency_tail_ms {1000 * tail_ms[1]:.4f} ms (p{tail_ms[0]:.1f} of {n} samples)")
    print(f"fail_ratio {tally.failed / tally.attempted:.4f} 1 ({tally.failed}/{tally.attempted})")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(items, expected, tally: Tally, seconds: float) -> dict:
    """Untraced passes for a third of ``seconds``, one cProfile pass, then
    traced passes for the rest; per-layer values are per pass."""
    import layers

    deadline = time.perf_counter() + seconds
    run_passes(items, expected, tally, seconds / 3, whole=False)
    untraced = tally.pass_seconds()
    profiled = Tally(probed=False, first=tally.first)
    profile_wall, profile = layers.profile_pass(lambda: run_pass(items, expected, profiled))
    recorder = layers.SpanRecorder()
    traced = Tally(probed=False, first=tally.first)
    with layers.traced(recorder):
        run_passes(items, expected, traced, max(0.0, deadline - time.perf_counter()))
    tally.attempted += profiled.attempted + traced.attempted
    tally.failed += profiled.failed + traced.failed

    passes = traced.passes
    totals = recorder.totals()
    values: dict[str, tuple[float, str]] = {}
    for name in SPAN_SECONDS:
        values[f"{name}.s"] = (totals[name][1] / passes, "s")
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = (totals[name][0] / passes, "count")
    for name in OUTPUT_COUNTS:
        counts = [out.counts.get(name, 0) for out in tally.outcome.values()]
        values[name] = (max(counts, default=0) if name == "explorer.max_steps" else sum(counts), "count")
    run_self = totals["engine.run"][2] / passes
    steps = values["engine.steps"][0]
    values["engine.run.self_s"] = (run_self, "s")
    values["engine.step_us"] = (1e6 * run_self / steps if steps else 0.0, "us")
    for name, value in profile.items():
        values[name] = (value, "count" if name.endswith(".calls") else "s")
    values["profile.overhead_s"] = (profile_wall - untraced, "s")
    values["trace.overhead_s"] = (traced.pass_seconds() - untraced, "s")
    for name, (calls, total, self_s) in sorted(totals.items()):
        print(f"span {name} calls={calls / passes:g} s={total / passes:.6f} self_s={self_s / passes:.6f}")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


@contextmanager
def workdir(workload: str) -> Iterator[None]:
    """Run inside a fresh directory under the checkout; remove it after.
    Items name their files relative to it, so outputs (trace headers name
    the graph file) do not depend on where the checkout is."""
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{workload}-", dir=root)
    home = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)
        shutil.rmtree(path, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("corpus", "large", "certify", "certify-split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "stabtree" / "__init__.py").is_file():
        print(f"error: no stabtree package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = {} if args.tiny else recorded.get(args.workload, {}).get(str(args.seed), {})
    with workdir(args.workload):
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.tiny)
        import workloads

        items = workloads.setup(args.workload, args.seed, args.tiny)
        tally = Tally()
        if args.trace:
            metrics = per_layer(items, expected, tally, args.seconds)
        else:
            run_passes(items, expected, tally, args.seconds, whole=False)
            if not tally.ref_times:
                print("error: no item reached a verdict", file=sys.stderr)
                return 1
            metrics = end_to_end(args.workload, tally, statistics.median(setup_times))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
