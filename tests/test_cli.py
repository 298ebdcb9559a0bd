import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stabtree import protocol
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
from stabtree.engine import ConfigurationError, normal_initial_configuration
from stabtree.graph import build_graph, format_graph, save_graph
from stabtree.protocol import Status

from conftest import mk_config, never_ef


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
