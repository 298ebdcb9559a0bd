"""Command-line front end: run one execution, certify an instance, or
sweep a seeded benchmark corpus against the worst-case bounds."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from dataclasses import asdict, dataclass
from typing import IO, Iterable, Iterator, Sequence

from . import analysis, engine, explorer
from .analysis import CheckResult
from .daemon import DaemonSpecError, parse_daemon_spec
from .graph import WeightedGraph, component_info, generate_random_graph, load_graph
from .protocol import Configuration

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BUDGET = 3

#: What a command refuses with exit 2: the parser of each input raises a
#: ValueError (UnicodeDecodeError is one) and each path an OSError
#: (OutputPathError is one). Only the parsing is wrapped, so a ValueError
#: raised during a run stays a traceback.
INPUT_ERRORS = (ValueError, OSError)


class OutputPathError(OSError):
    """An output path resolves to an input or to another output."""


def build_initial_config(spec: str, g: WeightedGraph) -> Configuration:
    """Parse an --init spec: ``normal``, ``file:<path>``, or
    ``rand:<seed>:<dcap>``."""
    if spec == "normal":
        return engine.normal_initial_configuration(g)
    if spec.startswith("file:"):
        return engine.load_configuration(spec[len("file:"):], g)
    if spec.startswith("rand:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise engine.ConfigurationError(f"expected rand:<seed>:<dcap>, got {spec!r}")
        try:
            seed, d_cap = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise engine.ConfigurationError(f"bad rand spec {spec!r}") from exc
        return engine.random_configuration(g, seed, d_cap)
    raise engine.ConfigurationError(f"unknown init spec {spec!r}")


def _print_report(results: Sequence[CheckResult]) -> None:
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.ok else "FAIL"
        line = f"{r.name:<{width}}  {verdict}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)


def _write_machine_report(results: Sequence[CheckResult], out: IO[str]) -> None:
    for r in results:
        out.write(
            json.dumps({"check": r.name, "verdict": "PASS" if r.ok else "FAIL", "detail": r.detail})
            + "\n"
        )


def _file_key(path: str) -> tuple[int, int] | str:
    """The file a path resolves to: its ``(st_dev, st_ino)`` when it exists,
    so a hard link matches its target, else the resolved path."""
    resolved = os.path.realpath(path)
    with contextlib.suppress(OSError):
        st = os.stat(resolved)
        return st.st_dev, st.st_ino
    return resolved


def _open_outputs(
    stack: contextlib.ExitStack, inputs: dict[str, str | None], outputs: dict[str, str | None]
) -> list[IO[str] | None]:
    """Open each given output path for writing (None where no path is
    given), so that an unwritable path is an input error before any work
    starts, not a traceback after it. An output that resolves to an input or
    another output is refused first, so no file is created or truncated."""
    claimed = {_file_key(p): flag for flag, p in inputs.items() if p}
    for flag, p in outputs.items():
        if p and (other := claimed.setdefault(_file_key(p), flag)) != flag:
            raise OutputPathError(f"{flag} {p!r} names the same file as {other}")
    return [stack.enter_context(open(p, "w", encoding="utf-8")) if p else None for p in outputs.values()]


def cmd_run(args) -> int:
    with contextlib.ExitStack() as outputs:
        try:
            g = load_graph(args.graph)
            config = build_initial_config(args.init, g)
            policy = parse_daemon_spec(args.daemon, args.seed)
            trace_out, report_out = _open_outputs(
                outputs,
                {"-g": args.graph, "--init": args.init[len("file:"):] if args.init.startswith("file:") else None},
                {"--trace": args.trace, "--report": args.report},
            )
        except INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        walk = analysis.TraceWalk(config, g)
        consumers = [walk]
        if trace_out:
            writer = engine.TraceWriter(trace_out, config, graph_name=args.graph, seed=args.seed, daemon=policy.name)
            consumers.append(outputs.enter_context(contextlib.closing(writer)))
        trace = engine.run(config, g, policy, args.max_steps, consumers)
        if trace_out:
            writer.finish(trace.terminated)
        results = analysis.full_trace_report(trace, g, walk.report(trace.terminated))
        print(f"steps={trace.step_count} rounds={trace.rounds} terminated={trace.terminated}")
        _print_report(results)
        if report_out:
            _write_machine_report(results, report_out)
        return EXIT_OK if all(r.ok for r in results) else EXIT_CHECK_FAILED


def cmd_explore(args) -> int:
    with contextlib.ExitStack() as outputs:
        try:
            g = load_graph(args.graph)
            (report_out,) = _open_outputs(outputs, {"-g": args.graph}, {"--report": args.report})
        except INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        result = explorer.certify_instance(g, args.dcap, args.max_visited)
        if result.verdict == "INCONCLUSIVE":
            print(f"INCONCLUSIVE: {result.violations[0]}", file=sys.stderr)
        record = {
            "verdict": result.verdict,
            "initial_configs": result.initial_configs,
            "reachable": result.reachable_count,
            "max_steps": result.max_steps_any_path,
            "step_limit": result.step_limit,
        }
        print(" ".join(f"{key}={value}" for key, value in record.items()))
        for violation in result.violations:
            print(f"violation: {violation}")
        if report_out:
            report_out.write(json.dumps({**record, "violations": result.violations}) + "\n")
    if result.verdict == "INCONCLUSIVE":
        return EXIT_BUDGET
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


@dataclass
class BenchRun:
    instance: int
    daemon: str
    n: int
    steps: int
    rounds: int
    step_limit: int
    round_limit: int
    failures: list[str]


def corpus_instances(count: int, seed: int) -> Iterator[WeightedGraph]:
    """Deterministic stream of benchmark graphs: 4 to 20 nodes, edge
    weights up to 5, and one to three components."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 20)
        p = rng.uniform(0.25, 0.9)
        w = rng.randint(1, 5)
        hint = rng.randint(1, 3)
        yield generate_random_graph(
            seed=rng.randrange(2**32), node_count=n, edge_probability=p, max_weight=w, component_hint=hint
        )


def bench_corpus(count: int, seed: int, daemons: Iterable[str]) -> list[BenchRun]:
    """Run every daemon on every corpus instance from a random initial
    configuration and collect all per-trace check failures."""
    daemons = list(daemons)
    runs: list[BenchRun] = []
    rng = random.Random(seed ^ 0x5BD1E995)
    for idx, g in enumerate(corpus_instances(count, seed)):
        info = component_info(g)
        d_cap = max(1, info.w_max * g.node_count)
        init = engine.random_configuration(g, rng.randrange(2**32), d_cap)
        step_limit, round_limit = analysis.step_bound_for(g), analysis.round_bound_for(g)
        for spec in daemons:
            policy = parse_daemon_spec(spec, seed=rng.randrange(2**32))
            walk = analysis.TraceWalk(init, g)
            trace = engine.run(init, g, policy, consumers=[walk])
            results = analysis.full_trace_report(trace, g, walk.report(trace.terminated))
            failures = [r.name for r in results if not r.ok]
            runs.append(
                BenchRun(
                    instance=idx,
                    daemon=spec,
                    n=g.node_count,
                    steps=trace.step_count,
                    rounds=trace.rounds,
                    step_limit=step_limit,
                    round_limit=round_limit,
                    failures=failures,
                )
            )
    return runs


def cmd_bench(args) -> int:
    daemons = [d.strip() for d in args.daemons.split(",") if d.strip()]
    with contextlib.ExitStack() as outputs:
        try:
            if not daemons:
                raise DaemonSpecError(f"no daemon spec in --daemons {args.daemons!r}")
            for spec in daemons:
                parse_daemon_spec(spec, 0)
            (report_out,) = _open_outputs(outputs, {}, {"--report": args.report})
        except INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        runs = bench_corpus(count=args.count, seed=args.seed, daemons=daemons)
        bad = [r for r in runs if r.failures]
        max_step_ratio = max((r.steps / r.step_limit for r in runs if r.step_limit), default=0.0)
        max_round_ratio = max((r.rounds / r.round_limit for r in runs if r.round_limit), default=0.0)
        print(f"runs={len(runs)} violations={len(bad)}")
        print(f"max steps/limit={max_step_ratio:.3f} max rounds/limit={max_round_ratio:.3f}")
        for r in bad:
            print(f"instance={r.instance} daemon={r.daemon} failures={','.join(r.failures)}")
        if report_out:
            for r in runs:
                report_out.write(json.dumps(asdict(r)) + "\n")
    return EXIT_OK if not bad else EXIT_CHECK_FAILED


def _at_least_one(text: str) -> int:
    """argparse type for counts and caps: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabtree",
        description="Simulate and verify the self-stabilizing shortest-path tree protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one execution and check the trace")
    p_run.add_argument("-g", "--graph", required=True, help="graph file")
    p_run.add_argument(
        "--init",
        default="normal",
        help="initial configuration: normal | file:<path> | rand:<seed>:<dcap>",
    )
    p_run.add_argument(
        "-d",
        "--daemon",
        default="sync",
        help="daemon: sync | central | rand:p=<float> | adv:starve | adv:churn",
    )
    p_run.add_argument("--seed", type=int, default=0, help="seeds the daemon's random streams")
    p_run.add_argument("--max-steps", type=_at_least_one, help="step budget, by default 10 x the step bound; a run cut "
                       "short fails step_bound, round_bound and round_milestones with NonTerminated")
    p_run.add_argument("--trace", help="write the trace to this path")
    p_run.add_argument("--report", help="write machine-readable verdicts to this path")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("explore", help="exhaustively certify a small instance")
    p_exp.add_argument("-g", "--graph", required=True)
    p_exp.add_argument("--dcap", type=_at_least_one, required=True, help="initial distance cap")
    p_exp.add_argument(
        "--max-visited",
        type=_at_least_one,
        default=explorer.DEFAULT_MAX_VISITED,
        help="most configurations expanded per connected component (a hard cap); "
        "the reported counts are the products over components",
    )
    p_exp.add_argument("--report", help="write machine-readable result to this path")
    p_exp.set_defaults(func=cmd_explore)

    p_bench = sub.add_parser("bench", help="seeded corpus sweep against the bounds")
    p_bench.add_argument("--count", type=_at_least_one, default=100, help="corpus instances, each run under every daemon")
    p_bench.add_argument("--seed", type=int, default=0, help="seeds the corpus graphs, initial configurations and daemons")
    p_bench.add_argument(
        "--daemons",
        default="sync,central,rand:p=0.5,adv:starve,adv:churn",
        help="comma-separated daemon specs",
    )
    p_bench.add_argument("--report", help="write per-run records to this path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
