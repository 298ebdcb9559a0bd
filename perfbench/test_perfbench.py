"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stabtree import engine, graph  # noqa: E402
from stabtree.daemon import parse_daemon_spec  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, key):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in BENCH[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert f"\n{name} {m['value']} {m['unit']}\n" in proc.stdout
    if trace == "0":
        assert "fail_ratio 0.0000 1" in proc.stdout
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name


def test_tampered_digest_counts_as_failure():
    tally = run.Tally()
    with run.workdir("large"):
        items = workloads.setup("large", 1, tiny=True)
        run.run_pass(items, {items[0].key: "0" * 16}, tally)
    assert tally.attempted == len(items)
    assert tally.failed == 1
    assert items[0].key not in tally.best


def test_short_run_times_every_item_once():
    tally = run.Tally()
    with run.workdir("certify"):
        items = workloads.setup("certify", 3, tiny=True)
        run.run_passes(items, {}, tally, 0, whole=False)
    assert tally.passes == 1
    assert {key: len(v) for key, v in tally.ref_times.items()} == {item.key: 1 for item in items}


def test_scaling_cancels_a_uniformly_slower_host():
    ref = run.PROBE_REFERENCE_S
    assert run.scaled(0.5, ref, ref) == pytest.approx(0.5)
    assert run.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.scaled(1.0, ref, 3 * ref) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", ["1", "2"])
def test_recorded_digests_match(workload, seed):
    expected = json.loads(run.DIGESTS.read_text())[workload][seed]
    tally = run.Tally()
    with run.workdir(workload):
        items = workloads.setup(workload, int(seed))
        run.run_pass(items, expected, tally)
    assert set(expected) == {item.key for item in items}
    assert tally.failed == 0


@pytest.mark.parametrize("spec", workloads.CORPUS_DAEMONS)
def test_timed_daemon_leaves_traces_byte_identical(spec):
    g = graph.generate_random_graph(seed=5, node_count=14, edge_probability=0.4, max_weight=3)
    start = engine.random_configuration(g, 9, 3 * g.node_count)
    recorder = layers.SpanRecorder()
    texts = []
    for policy in (parse_daemon_spec(spec, 11), layers.TimedDaemon(parse_daemon_spec(spec, 11), recorder)):
        trace = engine.run(start, g, policy)
        out = io.StringIO()
        engine.write_trace(trace, out, seed=11, daemon=policy.name)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert trace.step_count > 0
    assert recorder.totals()["daemon.select"][0] == trace.step_count


def test_tracing_changes_no_output_and_is_undone():
    from stabtree import analysis, cli

    originals = (cli.parse_daemon_spec, analysis.component_info, graph.component_info)
    untraced, traced = run.Tally(), run.Tally()
    recorder = layers.SpanRecorder()
    with run.workdir("large"):
        items = workloads.setup("large", 4, tiny=True)
        run.run_pass(items, {}, untraced)
        with layers.traced(recorder):
            run.run_pass(items, {}, traced)
    assert traced.failed == 0 and traced.first == untraced.first
    assert (cli.parse_daemon_spec, analysis.component_info, graph.component_info) == originals
    totals = recorder.totals()
    assert totals["engine.run"][0] == len(items)
    assert totals["daemon.select"][0] == sum(out.work for out in traced.outcome.values())


def test_profile_counts_repeat_exactly():
    with run.workdir("corpus"):
        items = workloads.setup("corpus", 2, tiny=True)
        counts = []
        for _ in range(2):
            _, metrics = layers.profile_pass(lambda: run.run_pass(items, {}, run.Tally()))
            counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["profile.protocol.enabled_rule.calls"] > 0


def test_refuses_to_run_without_the_package():
    with run.workdir("bare"):
        bare = Path.cwd()
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs():
    def inputs(seed):
        with run.workdir("large"):
            workloads.setup("large", seed, tiny=True)
            return {p.name: p.read_bytes() for p in sorted(Path.cwd().iterdir())}

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    corpus = [[item.key for item in workloads.setup_corpus(seed, workloads.TINY)] for seed in (1, 1, 2)]
    assert corpus[0] == corpus[1] != corpus[2]
