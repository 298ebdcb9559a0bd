import contextlib
import dataclasses
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stabtree import engine, protocol
from stabtree.cli import corpus_instances
from stabtree.daemon import CentralDaemon, DaemonPolicy, SynchronousDaemon, parse_daemon_spec
from stabtree.engine import (
    ConfigurationError,
    SelectionError,
    enabled,
    format_configuration,
    load_configuration,
    normal_initial_configuration,
    parse_configuration,
    random_configuration,
    run,
    save_configuration,
    validate_configuration,
    write_trace,
)
from stabtree.graph import build_graph, component_info, generate_random_graph, root_distances
from stabtree.protocol import ROOT_STATE, Move, ProcessState, Rule, Status, enabled_rule

from conftest import (
    NEIGHBOURHOOD_MUTANTS,
    Recorder,
    mk_config,
    readers_by_rule,
    reference_write_trace,
    replay,
    step,
    use_mutant,
)


class TestEnabledSet:
    def test_normal_initial_on_path(self, path3):
        config = normal_initial_configuration(path3)
        assert enabled(config, path3) == {1: Move(Rule.R_R, ProcessState(Status.C, 0, 1))}

    def test_terminal_configuration(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert enabled(config, path3) == {}

    def test_stray_parent_triggers_broadcast(self, path3):
        config = mk_config(
            path3, n1=(Status.C, 1, 5), n2=(Status.I, 2, 0)
        )  # node 1 points at itself
        assert 1 in enabled(config, path3)

    def test_matches_guard_evaluation_in_node_order(self):
        for trial in range(30):
            g = generate_random_graph(trial, 6, 0.6, 3, root_id=trial % 6)
            config = random_configuration(g, trial, 10)
            expected = {}
            for u in range(g.node_count):
                if u != g.root_id and enabled_rule(config, g, u) is not None:
                    expected[u] = enabled_rule(config, g, u)
            rules = enabled(config, g)
            assert rules == expected
            assert list(rules) == sorted(rules)


class TestStep:
    def test_single_rejoin(self):
        g = build_graph([(0, 1, 3)], 2, 0)
        config = mk_config(g)
        assert step(config, g, {1})[1] == ProcessState(Status.C, 0, 3)

    def test_reads_precede_writes(self):
        # Two nodes that can both improve; both must compute against the
        # pre-step distances, not each other's updates.
        g = build_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1)], 3, 0)
        config = mk_config(g, n1=(Status.C, 2, 9), n2=(Status.C, 1, 9))
        merged = step(config, g, {1, 2})
        solo1 = step(config, g, {1})
        solo2 = step(config, g, {2})
        assert merged[1] == solo1[1]
        assert merged[2] == solo2[2]

    def test_rootless_pair_freezes_first(self, two_comp):
        config = mk_config(two_comp, n1=(Status.C, 2, 2), n2=(Status.C, 1, 1))
        assert enabled(config, two_comp) == {2: Move(Rule.R_EB, ProcessState(Status.EB, 1, 1))}
        after = step(config, two_comp, {2})
        assert after[2] == ProcessState(Status.EB, 1, 1)
        assert after[1] == config[1]

    def test_input_untouched_and_tuple_returned(self, triangle):
        config = random_configuration(triangle, 5, 6)
        before = list(config)
        for arg in (config, before):
            after = step(arg, triangle, enabled(config, triangle))
            assert isinstance(after, tuple) and after != config
            assert list(config) == before == list(arg)


class TestRun:
    def test_path_synchronous(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        assert trace.terminated
        assert trace.step_count == 2
        dist = root_distances(path3)
        assert trace.final[1].d == dist[1] == 1
        assert trace.final[2].d == dist[2] == 2

    def test_freeze_then_rejoin(self):
        g = build_graph([(0, 1, 2)], 2, 0)
        config = mk_config(g, n1=(Status.C, 0, 1))
        trace = run(config, g, SynchronousDaemon())
        assert trace.terminated
        assert [trace.steps[i][1].rule for i in range(3)] == [
            Rule.R_EB,
            Rule.R_EF,
            Rule.R_R,
        ]
        assert trace.final[1] == ProcessState(Status.C, 0, 2)

    def test_rootless_component_isolates(self, two_comp):
        config = mk_config(two_comp, n1=(Status.C, 2, 2), n2=(Status.C, 1, 1))
        trace = run(config, two_comp, CentralDaemon(3))
        assert trace.terminated
        assert trace.step_count == 6
        assert trace.final[1].status is Status.I
        assert trace.final[2].status is Status.I

    def test_root_state_constant_throughout(self, triangle):
        config = random_configuration(triangle, 99, 6)
        trace = run(config, triangle, CentralDaemon(1))
        assert all(c[0] == ROOT_STATE for c in replay(trace))

    def test_max_steps_truncates(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon(), max_steps=1)
        assert not trace.terminated
        assert trace.step_count == 1
        with pytest.raises(ValueError, match=r"^max_steps must be >= 1, got 0$"):
            run(normal_initial_configuration(path3), path3, SynchronousDaemon(), max_steps=0)

    def test_step_records_are_consistent(self, triangle):
        config = random_configuration(triangle, 5, 6)
        trace = run(config, triangle, CentralDaemon(7))
        configs = list(replay(trace))
        for fired, pre, post in zip(trace.steps, configs, configs[1:]):
            moves = enabled(pre, triangle)
            assert fired
            assert fired.keys() <= moves.keys()
            assert all(move.rule is moves[u].rule for u, move in fired.items())
            assert all(post[u] == moves[u].state for u in fired)

    def test_steps_change_only_fired_nodes(self):
        # Every recorded move is the whole enabled move of its process in
        # the replayed pre-step configuration, and the replay ends at
        # ``final``: the run changes only the fired nodes, so the trace
        # walk, which applies the same steps, sees every configuration the
        # run passed through.
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        for trial in range(30):
            n = 3 + trial % 9
            g = generate_random_graph(
                trial, n, 0.5, 4, component_hint=1 + trial % 3, root_id=1 + trial % (n - 1)
            )
            config = random_configuration(g, trial, 4 * n)
            for spec in daemons:
                trace = run(config, g, parse_daemon_spec(spec, trial))
                configs = list(replay(trace))
                assert len(configs) == trace.step_count + 1
                assert configs[0] == trace.initial == config
                assert configs[-1] == trace.final
                for fired, pre in zip(trace.steps, configs):
                    moves = enabled(pre, g)
                    assert fired
                    assert all(move == moves[u] for u, move in fired.items())

    def test_composite_atomicity_merge_property(self):
        rng = random.Random(0)
        for trial in range(30):
            g = generate_random_graph(trial, 6, 0.6, 3)
            config = random_configuration(g, trial, 10)
            rules = enabled(config, g)
            if not rules:
                continue
            selection = frozenset(rng.sample(sorted(rules), rng.randint(1, len(rules))))
            merged = step(config, g, selection)
            for u in selection:
                assert merged[u] == step(config, g, {u})[u]

    def test_empty_selection_rejected(self, path3):
        class Idle(DaemonPolicy):
            def select(self, config, g, enabled):
                return frozenset()

        with pytest.raises(SelectionError, match=r"^step 0: selection must be nonempty$"):
            run(normal_initial_configuration(path3), path3, Idle())

    def test_disabled_selection_rejected(self, path3):
        class Reckless(DaemonPolicy):
            def select(self, config, g, enabled):
                return frozenset(enabled) | {2}  # node 2 has no enabled rule yet

        start = normal_initial_configuration(path3)
        assert 2 not in enabled(start, path3)
        with pytest.raises(SelectionError, match=r"^step 0: selected processes \[2\] are not enabled$"):
            run(start, path3, Reckless())

    def test_default_step_budget_skips_hop_diameter(self):
        # The step bound needs only n_max_cc and w_max; the all-pairs hop
        # diameter is for the round bound alone.
        n = 1200
        g = build_graph([(u, u + 1, 1) for u in range(n - 1)], n, 0)
        trace = run(normal_initial_configuration(g), g, SynchronousDaemon())
        assert trace.terminated
        assert "component_info" in g._oracles
        assert "hop_diameter_root" not in g._oracles

    def test_trace_holds_no_per_step_configurations(self):
        # 1000 nodes and 1106 steps: one stored configuration per step
        # peaks at about 9.6 MiB; the moves and the two end configurations
        # at about 1.6 MiB.
        n = 1000
        g = build_graph([(u, u + 1, 1) for u in range(n - 1)], n, 0)
        start = random_configuration(g, 3, n)
        tracemalloc.start()
        try:
            trace = run(start, g, SynchronousDaemon())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.terminated and trace.step_count > n
        assert peak < 4 * 2**20

    def test_stale_selection_rejected(self, path3):
        # A node enabled at an earlier step is checked against the moves of
        # the current configuration, not the one the policy first saw.
        class Stale(DaemonPolicy):
            first = None

            def select(self, config, g, enabled):
                self.first = self.first or frozenset(enabled)
                return self.first

        start = normal_initial_configuration(path3)
        assert enabled(start, path3).keys() == {1}
        with pytest.raises(SelectionError, match=r"^step 1: selected processes \[1\] are not enabled$"):
            run(start, path3, Stale())

    def test_policy_cannot_write_enabled(self, path3):
        class Meddler(DaemonPolicy):
            def select(self, config, g, enabled):
                enabled[2] = enabled[1]
                return frozenset(enabled)

        with pytest.raises(TypeError):
            run(normal_initial_configuration(path3), path3, Meddler())

    def test_invalid_initial_config_rejected(self, path3):
        bad = (ROOT_STATE, ProcessState(Status.C, 0, -1), ProcessState(Status.I, 2, 0))
        with pytest.raises(ConfigurationError, match=r"^node 1: bad distance -1$"):
            run(bad, path3, SynchronousDaemon())


#: A numeric field of a configuration line: a small int or any short text.
_TOKEN = hs.one_of(hs.integers(-2, 4), hs.text(max_size=3))


class TestConfigFiles:
    def test_roundtrip(self, triangle):
        config = random_configuration(triangle, 4, 6)
        text = format_configuration(config, triangle)
        assert parse_configuration(text, triangle) == config

    def test_file_roundtrip(self, tmp_path):
        # Roots off node 0 and a second component, so parents and
        # statuses of every kind reach the file.
        for seed in range(5):
            g = generate_random_graph(seed, 7, 0.5, 4, component_hint=2, root_id=seed + 1)
            config = random_configuration(g, seed, 9)
            path = tmp_path / f"c{seed}.cfg"
            save_configuration(config, g, path)
            assert path.read_text(encoding="utf-8") == format_configuration(config, g)
            assert load_configuration(path, g) == config

    def test_missing_process(self, triangle):
        with pytest.raises(ConfigurationError, match=r"^missing states for processes \[2\]$"):
            parse_configuration("p 1 C 0 2\n", triangle)

    def test_duplicate_process(self, triangle):
        with pytest.raises(ConfigurationError, match=r"^line 2: duplicate process 1$"):
            parse_configuration("p 1 C 0 2\np 1 I 1 0\np 2 I 2 0\n", triangle)

    def test_bad_status(self, triangle):
        with pytest.raises(ConfigurationError, match=r"^line 1: 'X' is not a valid Status$"):
            parse_configuration("p 1 X 0 2\np 2 I 2 0\n", triangle)

    def test_blank_and_comment_lines_skipped(self, triangle):
        text = "# states\n\np 1 C 0 2\n   \n# more\np 2 I 2 0\n"
        assert parse_configuration(text, triangle) == mk_config(
            triangle, n1=(Status.C, 0, 2), n2=(Status.I, 2, 0)
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("q 1 C 0 2\np 2 I 2 0\n", "line 1: expected 'p <id> <status> <par> <d>'"),
            ("p 1 C 0\np 2 I 2 0\n", "line 1: expected 'p <id> <status> <par> <d>'"),
            ("p 0 C 0 2\np 2 I 2 0\n", "line 1: bad process id 0"),
            ("p 1 C 0 2\np 3 I 2 0\n", "line 2: bad process id 3"),
            ("p 1 C 0 2\np -1 I 2 0\n", "line 2: bad process id -1"),
        ],
        ids=["record", "arity", "root", "past-end", "negative"],
    )
    def test_malformed_lines(self, triangle, text, message):
        with pytest.raises(ConfigurationError) as exc_info:
            parse_configuration(text, triangle)
        assert str(exc_info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        hs.lists(
            hs.one_of(
                hs.text(),
                hs.builds(
                    "p {} {} {} {}".format,
                    _TOKEN,
                    hs.one_of(hs.sampled_from([s.value for s in Status]), hs.text(max_size=2)),
                    _TOKEN,
                    _TOKEN,
                ),
            ),
            max_size=4,
        ).map("\n".join)
    )
    def test_any_text_raises_only_configuration_error(self, text):
        try:
            parse_configuration(text, build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3, 0))
        except ConfigurationError:
            pass


_ISOLATED_2 = ProcessState(Status.I, 2, 0)


class TestValidateConfiguration:
    @pytest.mark.parametrize(
        "config,message",
        [
            ((ROOT_STATE, ProcessState(Status.I, 1, 0)), "configuration has 2 states for 3 nodes"),
            (
                (ProcessState(Status.I, 0, 0), ProcessState(Status.I, 1, 0), _ISOLATED_2),
                f"root state must be {ROOT_STATE}, got {ProcessState(Status.I, 0, 0)}",
            ),
            ((ROOT_STATE, ProcessState("C", 0, 1), _ISOLATED_2), "node 1: bad status 'C'"),
            ((ROOT_STATE, ProcessState(Status.C, 3, 1), _ISOLATED_2), "node 1: bad parent 3"),
            ((ROOT_STATE, ProcessState(Status.C, None, 1), _ISOLATED_2), "node 1: bad parent None"),
        ],
        ids=["length", "root-state", "status", "parent-range", "parent-type"],
    )
    def test_rejected(self, triangle, config, message):
        with pytest.raises(ConfigurationError) as exc_info:
            validate_configuration(config, triangle)
        assert str(exc_info.value) == message

    def test_negative_random_cap_rejected(self, triangle):
        with pytest.raises(ConfigurationError, match=r"^d_cap must be >= 0, got -1$"):
            random_configuration(triangle, 0, -1)


class MoveMapCheck(DaemonPolicy):
    """Wraps a policy. Before each selection it checks the engine's move
    map, kept up to date at the processes whose guards read what the last
    step changed, against ``enabled``'s evaluation of every process."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0

    def select(self, config, g, moves):
        assert dict(moves) == enabled(tuple(config), g)
        self.checked += 1
        return self.inner.select(config, g, moves)


def _grid_edges(side):
    """The edges of a unit-weight ``side`` x ``side`` grid: degree up to 4
    and many tied offers."""
    edges = [(r * side + c, r * side + c + 1, 1) for r in range(side) for c in range(side - 1)]
    return edges + [(r * side + c, (r + 1) * side + c, 1) for r in range(side - 1) for c in range(side)]


class TestIncrementalMoves:
    @pytest.mark.parametrize("mutant", NEIGHBOURHOOD_MUTANTS)
    def test_move_map_matches_full_evaluation(self, monkeypatch, mutant):
        # After every step, on corpus graphs, random graphs rooted off node
        # 0, unit grids and a grid beside a rootless path, under every
        # daemon; a terminated run ends terminal. Each call to ``readers``
        # names a subset of what the rule-based reference names.
        use_mutant(monkeypatch, mutant)
        exact = protocol.readers

        def checked_readers(config, g, u, move, moves):
            named = exact(config, g, u, move, moves)
            assert set(named) <= set(readers_by_rule(config, g, u, move)), (u, move)
            return named

        monkeypatch.setattr(protocol, "readers", checked_readers)
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        graphs = list(corpus_instances(8, 17))
        graphs += [
            generate_random_graph(trial, 5 + trial, 0.5, 4, component_hint=1 + trial % 2, root_id=1 + trial)
            for trial in range(4)
        ]
        rootless_path = [(16 + i, 17 + i, 1) for i in range(4)]
        graphs += [
            build_graph(_grid_edges(4), 16, 0),
            build_graph(_grid_edges(5), 25, 12),
            build_graph(_grid_edges(4) + rootless_path, 21, 5),
        ]
        assert len(component_info(graphs[-1]).components) == 2
        checked = 0
        for trial, g in enumerate(graphs):
            start = random_configuration(g, trial, 4 * g.node_count)
            for spec in daemons:
                policy = MoveMapCheck(parse_daemon_spec(spec, trial))
                trace = run(start, g, policy, max_steps=150)
                assert trace.terminated == (not enabled(trace.final, g))
                checked += policy.checked
        assert checked > 300


class TestConsumers:
    def test_consumers_see_every_step_and_trace_keeps_none(self):
        for trial in range(10):
            g = generate_random_graph(trial, 8, 0.5, 3, component_hint=1 + trial % 2)
            start = random_configuration(g, trial, 24)
            kept = run(start, g, CentralDaemon(trial))
            recorder = Recorder()
            fed = run(start, g, CentralDaemon(trial), consumers=[recorder])
            assert fed.steps is None and kept.steps == recorder.steps
            assert fed.step_count == kept.step_count == len(recorder.steps)
            assert fed.round_ends == kept.round_ends
            assert [i for i, closed in enumerate(recorder.closed, 1) if closed] == kept.round_ends
            assert (fed.final, fed.terminated, fed.rounds) == (kept.final, kept.terminated, kept.rounds)

    def test_replays_of_a_fed_run_raise_value_error(self, path3):
        # A run fed to consumers keeps no steps, so nothing can replay it.
        fed = run(normal_initial_configuration(path3), path3, SynchronousDaemon(), consumers=[Recorder()])
        with pytest.raises(ValueError, match="kept none"):
            engine.check_trace(fed, path3)
        with pytest.raises(ValueError, match="kept none"):
            write_trace(fed, io.StringIO())


class TestTraceOutput:
    def test_header_and_step_records(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        buf = io.StringIO()
        write_trace(trace, buf, graph_name="path3.g", seed=7, daemon="sync")
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["graph"] == "path3.g"
        assert lines[0]["daemon"] == "sync"
        assert len(lines[0]["initial"]) == 3
        assert len(lines) == 1 + trace.step_count
        assert lines[1]["selected"] == [1]
        assert lines[1]["fired"] == {"1": "R_R"}

    def test_file_holds_the_in_memory_trace(self):
        # Read back, the file gives the initial configuration and each
        # step's fired rules and written states: the same data as the trace.
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        split = 0
        for trial in range(20):
            n = 4 + trial % 8
            g = generate_random_graph(trial, n, 0.5, 4, component_hint=2 + trial % 2, root_id=trial % n)
            split += len(component_info(g).components) > 1
            config = random_configuration(g, trial, 4 * n)
            for spec in daemons:
                trace = run(config, g, parse_daemon_spec(spec, trial))
                buf = io.StringIO()
                write_trace(trace, buf)
                initial, steps = read_back(buf.getvalue())
                assert initial == trace.initial
                assert steps == [{u: (m.rule, m.state) for u, m in fired.items()} for fired in trace.steps]
        assert split >= 10

    def test_records_match_json_reference(self):
        # The step records are formatted directly; the reference encodes
        # every record with json.dumps. The set covers split graphs, roots
        # off node 0, node ids of two digits, every rule and every daemon,
        # and a graph name that the header must escape.
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        names = ["", "path.g", 'we"ird gr\u00e2ph \u2713.g']
        split = rooted_off_zero = traces = 0
        rules, top = set(), 0
        for trial in range(24):
            n = 6 + trial % 20
            g = generate_random_graph(
                trial, n, 0.4, 5, component_hint=1 + trial % 3, root_id=(3 * trial + 1) % n
            )
            split += len(component_info(g).components) > 1
            rooted_off_zero += g.root_id != 0
            config = random_configuration(g, trial, 5 * n)
            for k, spec in enumerate(daemons):
                trace = run(config, g, parse_daemon_spec(spec, trial))
                kwargs = {
                    "graph_name": names[(trial + k) % 3],
                    "seed": trial if k % 2 else None,
                    "daemon": spec,
                }
                got, want = io.StringIO(), io.StringIO()
                write_trace(trace, got, **kwargs)
                reference_write_trace(trace, want, **kwargs)
                assert got.getvalue() == want.getvalue(), (trial, spec)
                traces += 1
                rules.update(m.rule for fired in trace.steps for m in fired.values())
                top = max([top, *(u for fired in trace.steps for u in fired)])
        assert traces >= 100 and split >= 10 and rooted_off_zero >= 20
        assert rules == set(Rule) and top >= 10

    @pytest.mark.parametrize(
        "spool_bytes, flush_bytes, descending",
        [
            pytest.param(engine._SPOOL_BYTES, engine._FLUSH_BYTES, False, id="in memory"),
            pytest.param(64, engine._FLUSH_BYTES, False, id="spilled"),
            pytest.param(engine._SPOOL_BYTES, 1, False, id="flush every record"),
            pytest.param(64, 300, False, id="records straddle flushes"),
            pytest.param(engine._SPOOL_BYTES, engine._FLUSH_BYTES, True, id="several fired out of id order"),
        ],
    )
    def test_writer_matches_write_trace(self, monkeypatch, spool_bytes, flush_bytes, descending):
        # The writer fed live by ``run`` writes the bytes ``write_trace``
        # writes from the kept steps, also once its records spill to disk,
        # when every record is written alone, and when a flush comes once
        # a few records of 100 to 200 bytes pass 300. ``descending`` feeds
        # the writer synchronous steps with each step's moves in descending
        # id order, and checks its bytes against json.dumps of the same
        # records too: the one-pass formatter sorts by id and joins the
        # three fields in the same order.
        monkeypatch.setattr(engine, "_SPOOL_BYTES", spool_bytes)
        monkeypatch.setattr(engine, "_FLUSH_BYTES", flush_bytes)
        several = 0
        for trial in range(12):
            g = generate_random_graph(trial, 6 + trial, 0.4, 4, root_id=trial % 6)
            start = random_configuration(g, trial, 4 * g.node_count)
            if descending:
                kwargs = {"graph_name": "g.g", "seed": trial, "daemon": "sync"}
                kept = run(start, g, SynchronousDaemon())
                steps = [dict(sorted(fired.items(), reverse=True)) for fired in kept.steps]
                several += sum(len(fired) > 2 for fired in steps)
                trace = dataclasses.replace(kept, steps=steps)
                want, reference, got = io.StringIO(), io.StringIO(), io.StringIO()
                write_trace(trace, want, **kwargs)
                reference_write_trace(trace, reference, **kwargs)
                with contextlib.closing(engine.TraceWriter(got, start, **kwargs)) as writer:
                    for fired in steps:
                        writer.step(None, fired, False)
                    writer.finish(trace.terminated)
                assert got.getvalue() == want.getvalue() == reference.getvalue(), trial
                continue
            kwargs = {"graph_name": "g.g", "seed": trial, "daemon": "central"}
            for max_steps in (None, 3):
                want = io.StringIO()
                write_trace(run(start, g, CentralDaemon(trial), max_steps), want, **kwargs)
                got = io.StringIO()
                with contextlib.closing(engine.TraceWriter(got, start, **kwargs)) as writer:
                    trace = run(start, g, CentralDaemon(trial), max_steps, consumers=[writer])
                    writer.finish(trace.terminated)
                assert got.getvalue() == want.getvalue()
        assert several >= 20 or not descending

    def test_writer_closed_without_finish_writes_nothing(self, monkeypatch):
        # A run that raised is closed, never finished: the output stays
        # empty, and the batch and the spilled spool are dropped.
        monkeypatch.setattr(engine, "_SPOOL_BYTES", 64)
        monkeypatch.setattr(engine, "_FLUSH_BYTES", 300)
        g = generate_random_graph(3, 12, 0.4, 4)
        start = random_configuration(g, 3, 48)
        out = io.StringIO()
        with contextlib.closing(engine.TraceWriter(out, start)) as writer:
            trace = run(start, g, CentralDaemon(3), consumers=[writer])
            assert trace.step_count > 10 and writer._batch
        assert out.getvalue() == "" and writer._batch == [] and writer._records.closed


def read_back(text):
    """The initial configuration and each step's ``{u: (rule, post state)}``,
    parsed from ``write_trace``'s JSON lines."""

    def state(fields):
        return ProcessState(Status(fields[0]), fields[1], fields[2])

    header, *records = (json.loads(line) for line in text.splitlines())
    steps = []
    for i, record in enumerate(records):
        assert record["type"] == "step" and record["index"] == i
        keys = [str(u) for u in record["selected"]]
        assert list(record["fired"]) == list(record["post"]) == keys
        steps.append({int(u): (Rule(record["fired"][u]), state(record["post"][u])) for u in keys})
    return tuple(state(fields) for fields in header["initial"]), steps
