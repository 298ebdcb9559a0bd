import json
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stabtree import cli, graph, protocol
from stabtree.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    bench_corpus,
    build_initial_config,
    corpus_instances,
    main,
)
from stabtree.daemon import DaemonPolicy
from stabtree.engine import ConfigurationError, SelectionError, normal_initial_configuration
from stabtree.graph import build_graph, format_graph, save_graph
from stabtree.protocol import Status

from conftest import mk_config, never_ef
from test_graph import _large_grid


@pytest.fixture
def path3_file(tmp_path, path3):
    path = tmp_path / "path3.g"
    save_graph(path3, path)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.g"
    path.write_text("g 2 0\ne 0 1 1\n")
    return str(path)


class TestInitSpecs:
    def test_normal(self, path3):
        assert build_initial_config("normal", path3) == normal_initial_configuration(path3)

    def test_file(self, tmp_path, path3):
        cfg = tmp_path / "init.cfg"
        cfg.write_text("p 1 C 0 1\np 2 C 1 2\n")
        config = build_initial_config(f"file:{cfg}", path3)
        assert config == mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))

    def test_rand_deterministic(self, path3):
        assert build_initial_config("rand:5:8", path3) == build_initial_config(
            "rand:5:8", path3
        )

    def test_bad_specs(self, path3):
        with pytest.raises(ConfigurationError, match=r"^expected rand:<seed>:<dcap>, got 'rand:5'$"):
            build_initial_config("rand:5", path3)
        with pytest.raises(ConfigurationError, match=r"^bad rand spec 'rand:x:3'$"):
            build_initial_config("rand:x:3", path3)
        with pytest.raises(ConfigurationError, match=r"^unknown init spec 'warm'$"):
            build_initial_config("warm", path3)

    @settings(max_examples=300, deadline=None)
    @given(
        hs.one_of(
            hs.text(),
            hs.builds("rand:{}".format, hs.text()),
            hs.builds("rand:{}:{}".format, hs.integers(-3, 10**6), hs.one_of(hs.integers(-3, 9), hs.text())),
        ).filter(lambda spec: not spec.startswith("file:"))
    )
    def test_any_spec_raises_only_configuration_error(self, spec):
        # A file: spec opens a path, which may also raise an OSError.
        try:
            build_initial_config(spec, build_graph([(0, 1, 1), (1, 2, 1)], 3, 0))
        except ConfigurationError:
            pass


class TestRunCommand:
    def test_clean_run(self, path3_file, capsys):
        code = main(["run", "-g", path3_file, "-d", "sync"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "steps=2 rounds=2 terminated=True" in out
        assert "final_legitimate  PASS" in out

    def test_tiny_inclusion_probability_returns(self, edge_file, capsys):
        # Every draw of the random daemon is empty here; the bounded
        # redraws and the nonempty sampler still pick node 1.
        code = main(["run", "-g", edge_file, "-d", "rand:p=1e-300"])
        assert code == EXIT_OK
        assert "steps=1 rounds=1 terminated=True" in capsys.readouterr().out

    def test_truncated_run_fails_checks(self, path3_file, capsys):
        code = main(["run", "-g", path3_file, "--max-steps", "1"])
        assert code == EXIT_CHECK_FAILED
        assert "terminated=False" in capsys.readouterr().out

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(["run", "-g", str(tmp_path / "nope.g")])
        assert code == EXIT_PARSE_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("e 0 1 1\n")
        assert main(["run", "-g", str(bad)]) == EXIT_PARSE_ERROR

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["-g", "{bad_graph}"], "error: line 2: duplicate header\n"),
            (["-g", "{graph}", "--init", "file:{bad_config}"], "error: line 1: bad process id 0\n"),
            (["-g", "{graph}", "--init", "rand:1:-1"], "error: d_cap must be >= 0, got -1\n"),
            (["-g", "{self_loop}"], "error: self-loop at node 0\n"),
            (["-g", "{zero_weight}"], "error: edge (0, 1) has weight 0; weights must be integers >= 1\n"),
            (["-g", "{graph}", "--init", "rand:x:3"], "error: bad rand spec 'rand:x:3'\n"),
            (["-g", "{graph}", "-d", "rand:p=2"], "error: inclusion probability must be in (0, 1], got 2.0\n"),
        ],
        ids=["graph-file", "init-file", "init-rand", "self-loop", "zero-weight", "init-rand-seed", "daemon-p"],
    )
    def test_bad_inputs_exit_2(self, argv, message, path3_file, tmp_path, capsys):
        files = {
            "bad_graph": "g 3 0\ng 3 0\n",
            "bad_config": "p 0 C 0 1\n",
            "self_loop": "g 2 0\ne 0 0 1\n",
            "zero_weight": "g 2 0\ne 0 1 0\n",
        }
        paths = {"graph": path3_file}
        for name, text in files.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        code = main(["run", *(a.format(**paths) for a in argv)])
        assert code == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_bad_daemon_spec(self, path3_file):
        assert main(["run", "-g", path3_file, "-d", "maybe"]) == EXIT_PARSE_ERROR

    def test_trace_and_report_files(self, path3_file, tmp_path, capsys):
        trace_path = tmp_path / "out.trace"
        report_path = tmp_path / "out.report"
        code = main(
            [
                "run",
                "-g",
                path3_file,
                "--init",
                "rand:3:6",
                "-d",
                "central",
                "--seed",
                "4",
                "--trace",
                str(trace_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert header["type"] == "header"
        assert header["daemon"] == "central"
        verdicts = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert {v["check"] for v in verdicts} >= {"terminated", "final_legitimate"}
        assert all(v["verdict"] == "PASS" for v in verdicts)


#: Graphs whose round bound reads D: perfbench's relabelled 16x16 grid, a
#: weighted root component (D = 3) beside a rootless one, and a root alone
#: (D = 0).
ASIDE_GRAPHS = {
    "large-grid": _large_grid(1),
    "rootless-component": build_graph([(0, 1, 2), (1, 2, 3), (0, 3, 1), (4, 5, 2), (5, 6, 1)], 7, 0),
    "root-alone": build_graph([(1, 2, 2)], 3, 0),
}


def _child_oracle(monkeypatch, before):
    """Wrap the oracle the forked child calls, as a span tracer would, so
    that the child calls ``before()`` ahead of the real oracle. The
    parent's inline D goes through ``analysis``, which holds the real
    oracle, and only a process other than the parent calls ``before``."""
    parent, real = os.getpid(), graph.hop_diameter_root

    def oracle(g):
        if os.getpid() != parent:
            before()
        return real(g)

    monkeypatch.setattr(graph, "hop_diameter_root", oracle)


def _raise():
    raise RuntimeError("the child's oracle failed")


def _record_waits(monkeypatch):
    """Wrap ``os.waitpid``; the returned list gets each reaped child's status."""
    statuses, real = [], os.waitpid

    def waitpid(pid, options):
        reaped, status = real(pid, options)
        if reaped:
            statuses.append(status)
        return reaped, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return statuses


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHopDiameterAside:
    """``stabtree run`` computes D in a forked child while the execution
    runs, and falls back to computing it inline."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # The child is forked only where the process may run on a second CPU.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("case", ["end-rooted-path", "root-alone", "one-cpu"])
    def test_no_child_where_it_hides_nothing(self, case, tmp_path, monkeypatch, capsys):
        g = {
            # The root's sweep reaches |V_r| - 1 hops, so D needs no other sweep.
            "end-rooted-path": build_graph([(u, u + 1, 1 + u % 3) for u in range(9)], 10, 0),
            "root-alone": ASIDE_GRAPHS["root-alone"],
            "one-cpu": ASIDE_GRAPHS["rootless-component"],
        }[case]
        graph_path = tmp_path / "g.g"
        save_graph(g, graph_path)
        argv = ["run", "-g", str(graph_path), "--init", "rand:3:20", "-d", "central", "--seed", "1"]
        assert main(argv) == EXIT_OK
        forked = capsys.readouterr().out
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forks = []

        def fork():
            forks.append(1)
            raise OSError("counted, not forked")

        monkeypatch.setattr(os, "fork", fork)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == forked and forks == []

    @pytest.mark.parametrize("name", ASIDE_GRAPHS)
    def test_same_bytes_with_and_without_the_child(self, name, tmp_path, monkeypatch, capsys):
        graph_path = tmp_path / "g.g"
        save_graph(ASIDE_GRAPHS[name], graph_path)
        sweeps = []
        real_sweep = graph._lex_dijkstra
        monkeypatch.setattr(graph, "_lex_dijkstra", lambda adj, src: sweeps.append(src) or real_sweep(adj, src))

        def no_fork():
            raise OSError("no process to spare")

        modes = {
            "child": lambda m: None,
            "child-through-a-wrapper": lambda m: _child_oracle(m, lambda: None),
            "fork-raises": lambda m: m.setattr(os, "fork", no_fork),
            "no-fork": lambda m: m.delattr(os, "fork"),
            "child-oracle-raises": lambda m: _child_oracle(m, _raise),
        }
        argv = ["run", "-g", str(graph_path), "--init", "rand:3:20", "-d", "central", "--seed", "1"]
        outputs = {}
        for mode, patch in modes.items():
            trace, report = tmp_path / f"{mode}.trace", tmp_path / f"{mode}.jsonl"
            sweeps.clear()
            with monkeypatch.context() as m:
                patch(m)
                code = main([*argv, "--trace", str(trace), "--report", str(report)])
            captured = capsys.readouterr()
            outputs[mode] = (code, captured.out, captured.err, trace.read_bytes(), report.read_bytes())
            if mode in ("child", "child-through-a-wrapper"):
                # The parent swept only from the root, before the fork.
                assert len(sweeps) == 1
            _assert_no_child_left()
        assert outputs["child"][0] == EXIT_OK and "round_bound       PASS" in outputs["child"][1]
        assert all(out == outputs["child"] for out in outputs.values())

    @pytest.mark.parametrize("case", ["terminated", "truncated", "refused-selection"])
    def test_no_process_is_left(self, case, tmp_path, monkeypatch, capsys):
        graph_path = tmp_path / "grid.g"
        save_graph(ASIDE_GRAPHS["large-grid"], graph_path)
        argv = ["run", "-g", str(graph_path), "--init", "rand:3:20"]
        if case != "terminated":
            # Held up, the child is still computing when the block ends.
            _child_oracle(monkeypatch, lambda: time.sleep(60))
        statuses = _record_waits(monkeypatch)
        if case == "truncated":
            assert main([*argv, "--max-steps", "1"]) == EXIT_CHECK_FAILED
        elif case == "refused-selection":

            class Idle(DaemonPolicy):
                def select(self, config, g, enabled):
                    return frozenset()

            monkeypatch.setattr(cli, "parse_daemon_spec", lambda spec, seed: Idle())
            with pytest.raises(SelectionError):
                main(argv)
        else:
            assert main(argv) == EXIT_OK
        _assert_no_child_left()
        (status,) = statuses
        if case == "terminated":
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        else:
            assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


class TestExploreCommand:
    def test_certifies_edge(self, edge_file, capsys):
        code = main(["explore", "-g", edge_file, "--dcap", "2"])
        assert code == EXIT_OK
        assert "verdict=PASS" in capsys.readouterr().out

    def test_budget_exhausted(self, path3_file, capsys):
        code = main(["explore", "-g", path3_file, "--dcap", "2", "--max-visited", "10"])
        assert code == EXIT_BUDGET
        assert "INCONCLUSIVE" in capsys.readouterr().err

    def test_budget_keeps_partial_verdict(self, path3_file, tmp_path, capsys):
        report = tmp_path / "partial.json"
        code = main(
            ["explore", "-g", path3_file, "--dcap", "2", "--max-visited", "1", "--report", str(report)]
        )
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "INCONCLUSIVE" in captured.err
        assert captured.out.splitlines() == [
            "verdict=INCONCLUSIVE initial_configs=1 reachable=1 max_steps=0 step_limit=30",
            "violation: visited more than 1 configurations",
        ]
        assert json.loads(report.read_text()) == {
            "verdict": "INCONCLUSIVE",
            "initial_configs": 1,
            "reachable": 1,
            "max_steps": 0,
            "step_limit": 30,
            "violations": ["visited more than 1 configurations"],
        }

    def test_enabled_set_cap_is_inconclusive(self, tmp_path, capsys):
        # The root at the centre of a star with 11 leaves: the first
        # enumerated configuration enables all 11 leaves.
        star = tmp_path / "star.g"
        star.write_text("g 12 0\n" + "".join(f"e 0 {u} 1\n" for u in range(1, 12)))
        report = tmp_path / "star.json"
        code = main(["explore", "-g", str(star), "--dcap", "1", "--report", str(report)])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.err == "INCONCLUSIVE: enabled set of size 11 exceeds limit 10\n"
        assert captured.out.splitlines() == [
            "verdict=INCONCLUSIVE initial_configs=1 reachable=0 max_steps=0 step_limit=14916",
            "violation: enabled set of size 11 exceeds limit 10",
        ]
        assert json.loads(report.read_text()) == {
            "verdict": "INCONCLUSIVE",
            "initial_configs": 1,
            "reachable": 0,
            "max_steps": 0,
            "step_limit": 14916,
            "violations": ["enabled set of size 11 exceeds limit 10"],
        }

    def test_report_file(self, edge_file, tmp_path):
        report = tmp_path / "cert.json"
        main(["explore", "-g", edge_file, "--dcap", "2", "--report", str(report)])
        data = json.loads(report.read_text())
        assert data["verdict"] == "PASS"
        assert data["max_steps"] <= data["step_limit"]


class TestBenchCommand:
    def test_small_sweep_clean(self, capsys):
        code = main(["bench", "--count", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "violations=0" in out

    def test_mutant_fails_with_a_line_per_run(self, monkeypatch, capsys):
        # A protocol whose EB processes never acknowledge the freeze stops
        # with an EB process left: every run ends illegitimate.
        monkeypatch.setattr(protocol, "enabled_rule", never_ef)
        code = main(["bench", "--count", "2", "--seed", "1", "--daemons", "sync,adv:churn"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_CHECK_FAILED
        assert out[0] == "runs=4 violations=4"
        assert out[2:] == [
            f"instance={i} daemon={d} failures=final_legitimate"
            for i in range(2)
            for d in ("sync", "adv:churn")
        ]

    def test_bad_daemon_list(self, capsys):
        assert main(["bench", "--count", "1", "--daemons", "sync,what"]) == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("daemons", ["", " , "], ids=["empty", "blank"])
    def test_empty_daemon_list(self, daemons, capsys):
        # A sweep with no daemon runs nothing; it must not pass.
        assert main(["bench", "--count", "2", "--daemons", daemons]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_corpus_shape_is_not_an_option(self, capsys):
        # The corpus is always 4-20 nodes, weights up to 5, 1-3 components.
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--max-n", "8"])
        assert exc_info.value.code == EXIT_PARSE_ERROR
        assert "error: unrecognized arguments: --max-n 8" in capsys.readouterr().err

    def test_report_records(self, tmp_path):
        report = tmp_path / "bench.jsonl"
        main(
            [
                "bench",
                "--count",
                "3",
                "--seed",
                "2",
                "--daemons",
                "sync,central",
                "--report",
                str(report),
            ]
        )
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 6
        assert all(r["steps"] <= r["step_limit"] for r in records)


class TestCorpus:
    def test_instances_deterministic(self):
        a = [format_graph(g) for g in corpus_instances(4, 9)]
        b = [format_graph(g) for g in corpus_instances(4, 9)]
        assert a == b

    def test_bench_runs_deterministic(self):
        a = bench_corpus(3, 7, ["sync", "adv:churn"])
        b = bench_corpus(3, 7, ["sync", "adv:churn"])
        assert a == b
        assert all(not r.failures for r in a)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-g", "unread.g", "--max-steps", "0"],
        ["explore", "-g", "unread.g", "--dcap", "0"],
        ["explore", "-g", "unread.g", "--dcap", "1", "--max-visited", "-5"],
        ["bench", "--count", "0"],
        ["bench", "--count", "-3"],
        ["explore", "-g", "unread.g", "--dcap", "x"],
    ],
)
def test_out_of_range_numbers_are_input_errors(argv, capsys):
    # Rejected while parsing, before any file is read or run starts.
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_PARSE_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-g", "{binary}"],
        ["explore", "-g", "{binary}", "--dcap", "1"],
        ["run", "-g", "{graph}", "--init", "file:{binary}"],
    ],
)
def test_undecodable_files_are_input_errors(argv, tmp_path, path3_file, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe")
    code = main([a.format(binary=binary, graph=path3_file) for a in argv])
    assert code == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-g", "{graph}", "--trace", "{missing}/x.trace"],
        ["run", "-g", "{graph}", "--report", "{missing}/r.jsonl"],
        ["explore", "-g", "{graph}", "--dcap", "2", "--report", "{missing}/r.json"],
        ["bench", "--count", "2", "--report", "{missing}/b.jsonl"],
    ],
)
def test_unwritable_outputs_are_input_errors(argv, tmp_path, path3_file, capsys):
    # Rejected before the run, certification or sweep starts: nothing on stdout.
    missing = tmp_path / "missing"
    code = main([a.format(graph=path3_file, missing=missing) for a in argv])
    assert code == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-g", "{graph}", "--trace", "{same}", "--report", "{same}"],
        ["run", "-g", "{graph}", "--trace", "{graph}"],
        ["run", "-g", "{graph}", "--report", "{graph_alias}"],
        ["explore", "-g", "{graph}", "--dcap", "1", "--report", "{graph}"],
        ["run", "-g", "{graph}", "--init", "file:{init}", "--report", "{init}"],
        ["run", "-g", "{graph}", "--trace", "{graph_link}"],
    ],
    ids=[
        "trace-is-report",
        "trace-is-graph",
        "report-is-graph-alias",
        "explore-report-is-graph",
        "report-is-init",
        "trace-is-graph-hard-link",
    ],
)
def test_colliding_outputs_are_input_errors(argv, tmp_path, path3_file, capsys):
    # Refused before any output is opened: no file is created or truncated.
    init = tmp_path / "init.cfg"
    init.write_text("p 1 C 0 1\np 2 C 1 2\n")
    os.link(path3_file, tmp_path / "link.g")  # a second name, not a symlink
    paths = {
        "graph": path3_file,
        "graph_alias": tmp_path / "sub" / ".." / "path3.g",
        "graph_link": tmp_path / "link.g",
        "init": init,
        "same": tmp_path / "same.out",
    }
    inputs = {path: path.read_bytes() for path in (tmp_path / "path3.g", init)}
    code = main([a.format(**paths) for a in argv])
    assert code == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert not (tmp_path / "same.out").exists()
