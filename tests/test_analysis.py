import dataclasses
import inspect
import random
import sys

import pytest

from stabtree import analysis, protocol
from stabtree.analysis import (
    _alive_ab_root,
    TraceWalk,
    _local_facts,
    full_trace_report,
    legitimate_config,
    legitimate_state,
    round_bound,
    round_bound_for,
    step_bound,
    step_bound_for,
    uniform_step_bound,
)
from stabtree.daemon import CentralDaemon, SynchronousDaemon, parse_daemon_spec
from stabtree.engine import (
    ConfigurationError,
    ExecutionTrace,
    SelectionError,
    check_trace,
    enabled,
    format_configuration,
    normal_initial_configuration,
    random_configuration,
    run,
)
from stabtree.cli import EXIT_CHECK_FAILED, corpus_instances, main
from stabtree.explorer import enumerate_initial_configs
from stabtree.graph import (
    INFINITY,
    build_graph,
    component_info,
    format_graph,
    generate_random_graph,
    root_distances,
)
from stabtree.protocol import ROOT_STATE, Move, ProcessState, Rule, Status

from conftest import (
    RULE_LETTER,
    Recorder,
    SEGMENT_RE,
    ab_root_far_parent,
    ab_root_without_distance,
    alive_abnormal_roots,
    check_round_milestones,
    children,
    forest_view,
    mk_config,
    neighbourhood_walk,
    replay,
    segment_language_check,
    spanning_tree_holds,
    walk_matches_references,
    walk_recorded,
)
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, DAEMONS


@pytest.fixture
def weight2():
    """Single edge r(0) - a(1) of weight 2."""
    return build_graph([(0, 1, 2)], 2, 0)


class TestBoundFormulas:
    def test_step_bound_small_path(self, path3):
        assert step_bound(3, 2, 1) == 30
        assert step_bound_for(path3) == 30

    def test_uniform_bound(self, path3):
        assert uniform_step_bound(3, 2) == 30
        assert uniform_step_bound(5, 4) == 300

    def test_heavier_weights_inflate(self, triangle):
        assert step_bound_for(triangle) == 54  # w_max=3, n_max_cc=2

    def test_round_bound(self, path3):
        assert round_bound(2, 2) == 8
        assert round_bound_for(path3) == 8

    def test_uniform_bound_never_above_general(self):
        # The two bounds differ by (W - 1)(k^3 - k)(n - 1) >= 0, so a run
        # within the uniform bound is within the general one.
        for n in range(1, 12):
            for k in range(1, n + 1):
                for w in range(1, 7):
                    diff = step_bound(n, k, w) - uniform_step_bound(n, k)
                    assert diff == (w - 1) * (k**3 - k) * (n - 1) >= 0

    def test_uniform_bound_under_n_fourth(self):
        for n in range(2, 25):
            assert uniform_step_bound(n, n - 1) <= n**4


class TestLegitimacy:
    def test_solved_configuration(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert legitimate_config(config, path3) == {}
        assert spanning_tree_holds(config, path3)

    def test_wrong_distance_flagged(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 5))
        ok, why = legitimate_state(config, path3, 2)
        assert not ok
        assert "distance" in why

    def test_wrong_status_flagged(self, path3):
        config = mk_config(path3, n1=(Status.EB, 0, 1), n2=(Status.C, 1, 2))
        assert not legitimate_state(config, path3, 1)[0]

    def test_outside_root_component_must_be_isolated(self, two_comp):
        good = mk_config(two_comp)
        assert legitimate_config(good, two_comp) == {}
        bad = mk_config(two_comp, n1=(Status.C, 2, 1))
        ok, why = legitimate_state(bad, two_comp, 1)
        assert not ok
        assert "isolated" in why

    def test_root_always_legitimate(self, path3):
        assert legitimate_state(mk_config(path3), path3, 0) == (True, None)

    def test_correct_distance_wrong_parent_chain(self):
        # both spokes carry true distances but node 2 points at node 1,
        # giving d inconsistent with its claimed parent
        g = build_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1)], 3, 0)
        config = mk_config(g, n1=(Status.C, 0, 1), n2=(Status.C, 1, 1))
        assert legitimate_config(config, g) == {2: "distance inconsistent with parent"}

    def test_config_lists_each_failing_clause(self):
        # legitimate_config's keys are exactly the processes whose
        # legitimate_state fails, each with that clause: every enumerated
        # configuration at d_cap 1 of the weighted triangle and a 4-node
        # graph with 2 components, each also with the root moved off its
        # constant state, and run finals on random graphs.
        configs = []
        for edges, n in (([(0, 1, 2), (1, 2, 3), (2, 0, 1)], 3), ([(0, 1, 1), (2, 3, 2)], 4)):
            g = build_graph(edges, n, 0)
            for config in enumerate_initial_configs(g, 1):
                configs += [(g, config), (g, (ProcessState(Status.C, None, 1),) + config[1:])]
        for trial in range(20):
            g = generate_random_graph(900 + trial, 2 + trial % 7, 0.5, 3, component_hint=1 + trial % 2)
            configs.append((g, run(random_configuration(g, trial, 9), g, CentralDaemon(trial)).final))
        sizes = set()
        for g, config in configs:
            verdicts = {u: legitimate_state(config, g, u) for u in range(g.node_count)}
            failing = legitimate_config(config, g)
            assert failing == {u: why for u, (ok, why) in verdicts.items() if not ok}
            sizes.add(min(len(failing), 2))
        assert sizes == {0, 1, 2}

    def test_per_node_clauses_imply_spanning_tree(self):
        # legitimate_config makes no spanning-tree walk of its own: wherever
        # every per-process clause holds, the reference walk must hold too.
        # Every enumerated configuration at d_cap 2 of the guard-agreement
        # graphs (test_protocol), the triangle also rooted at its last id,
        # and the unit 3-path, where parents 1 <-> 2 with true distances
        # pass every clause but the parent-distance one.
        instances = [
            ([(0, 1, 2)], 2, 0),
            ([(0, 1, 1), (1, 2, 2)], 3, 0),
            ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3, 0),
            ([(0, 1, 1), (1, 2, 2), (1, 3, 1)], 4, 0),
            ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3, 2),
            ([(0, 1, 1), (1, 2, 1)], 3, 0),
        ]
        legitimate = []
        for edges, n, root in instances:
            g = build_graph(edges, n, root)
            for config in enumerate_initial_configs(g, 2):
                if not legitimate_config(config, g):
                    assert spanning_tree_holds(config, g), (edges, root, config)
                    legitimate.append((g, config))
        # One each; none on the weighted 3-path or the 4-node graph, which
        # need a d of 3.
        assert len(legitimate) == 4
        # Run finals on random graphs, some split, some rooted away from 0.
        for trial in range(60):
            n = 2 + trial % 9
            g = generate_random_graph(
                700 + trial, n, 0.45, 1 + trial % 4, component_hint=1 + trial % 3, root_id=trial % n
            )
            for daemon in (SynchronousDaemon(), CentralDaemon(trial)):
                final = run(random_configuration(g, trial, 3 * n), g, daemon).final
                assert legitimate_config(final, g) == {}
                assert spanning_tree_holds(final, g)
                legitimate.append((g, final))
        # The root's clause is its constant state: any other root state is
        # illegitimate, though every other process is unchanged.
        for g, config in legitimate:
            root = g.root_id
            for state in (
                ProcessState(Status.C, None, 1),
                ProcessState(Status.EB, None, 0),
                ProcessState(Status.C, root, 0),
            ):
                bad = config[:root] + (state,) + config[root + 1:]
                assert legitimate_state(bad, g, root)[0] is False
                assert legitimate_config(bad, g)[root] == "root state is not (C, None, 0)"
            assert config[root] == ROOT_STATE


class TestForestView:
    def test_alive_and_dead_abnormal_roots(self, path3):
        config = mk_config(path3, n1=(Status.EF, 1, 5), n2=(Status.EB, 2, 4))
        view = forest_view(config, path3)
        assert view.abnormal_roots == {1: False, 2: True}
        assert {u for u in (1, 2) if _alive_ab_root(config, path3, u)} == {2}

    def test_legitimate_configuration_is_clean(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        view = forest_view(config, path3)
        assert view.abnormal_roots == {}
        assert not any(view.illegal_membership.values())
        assert branch_edges(config, path3) == {(0, 1), (1, 2)}

    def test_illegal_branch_membership_propagates(self, path3):
        # node 1 is an abnormal root; node 2 hangs off it coherently
        config = mk_config(path3, n1=(Status.C, 1, 5), n2=(Status.C, 1, 6))
        view = forest_view(config, path3)
        assert view.illegal_membership[1]
        assert view.illegal_membership[2]
        assert not view.illegal_membership[0]

    def test_long_chain_toward_high_labelled_root(self):
        # A legitimate configuration whose parent chains are 1199 edges
        # long and point toward higher ids: no recursion-depth limit, and
        # linear work.
        n = 1200
        g = build_graph([(i, i + 1, 1) for i in range(n - 1)], n, n - 1)
        config = tuple(
            ProcessState(Status.C, None, 0) if u == n - 1 else ProcessState(Status.C, u + 1, n - 1 - u)
            for u in range(n)
        )
        assert legitimate_config(config, g) == {}
        assert spanning_tree_holds(config, g)
        view = forest_view(config, g)
        assert view.abnormal_roots == {}
        assert not any(view.illegal_membership.values())
        assert len(branch_edges(config, g)) == n - 1


def branch_edges(config, g):
    """Every (parent, child) edge of the children relation."""
    return {(u, v) for u in range(g.node_count) for v in children(config, g, u)}


def relabelled(g, config, perm):
    """The same graph and configuration with node v renamed perm[v]."""
    h = build_graph([(perm[u], perm[v], w) for u, v, w in g.edges()], g.node_count, perm[g.root_id])
    states = [None] * g.node_count
    for v, s in enumerate(config):
        states[perm[v]] = s if s.par is None else s._replace(par=perm[s.par])
    return h, tuple(states)


class TestLabelIndependence:
    def test_verdicts_survive_random_relabelling(self):
        rng = random.Random(5)
        for trial in range(40):
            n = 3 + trial % 7
            g = generate_random_graph(trial, n, 0.5, 3, component_hint=1 + trial % 2)
            config = random_configuration(g, trial, 3 * n)
            for start in (config, run(config, g, SynchronousDaemon()).final):
                perm = list(range(n))
                rng.shuffle(perm)
                h, image = relabelled(g, start, perm)
                legit, legit_h = legitimate_config(start, g), legitimate_config(image, h)
                assert spanning_tree_holds(image, h) == spanning_tree_holds(start, g)
                assert {perm[u]: why for u, why in legit.items()} == legit_h
                view, view_h = forest_view(start, g), forest_view(image, h)
                assert {perm[u]: a for u, a in view.abnormal_roots.items()} == view_h.abnormal_roots
                edges, edges_h = branch_edges(start, g), branch_edges(image, h)
                assert {(perm[u], perm[v]) for u, v in edges} == edges_h
                assert {perm[u]: i for u, i in view.illegal_membership.items()} == view_h.illegal_membership


class TestRounds:
    def test_synchronous_rounds_equal_steps(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        assert trace.rounds == trace.step_count == 2

    def test_central_on_path(self, path3):
        trace = run(normal_initial_configuration(path3), path3, CentralDaemon(0))
        # only one process is ever enabled, so every step closes a round
        assert trace.step_count == 2
        assert trace.rounds == 2

    def test_single_step_is_one_round(self, path3):
        trace = run(
            normal_initial_configuration(path3), path3, SynchronousDaemon(), max_steps=1
        )
        assert trace.rounds == 1

    def test_empty_trace_has_no_rounds(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        trace = run(config, path3, SynchronousDaemon())
        assert trace.step_count == 0
        assert trace.rounds == 0

    def test_neutralized_process_closes_round(self):
        # r - a (1), a - b (1), r - b (1): firing b can disable a without a
        # ever firing, which must still let the round finish.
        g = build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3, 0)
        config = mk_config(g, n1=(Status.C, 2, 9), n2=(Status.C, 0, 9))
        trace = run(config, g, CentralDaemon(2))
        assert trace.terminated
        assert trace.rounds <= round_bound_for(g)


    def test_run_matches_replayed_round_ends(self):
        # ``run`` closes rounds online; replaying every configuration's
        # enabled set must give the same ends, also for runs cut short.
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        uneven = 0
        for trial in range(30):
            n = 4 + trial % 8
            g = generate_random_graph(trial, n, 0.5, 4, component_hint=1 + trial % 3)
            config = random_configuration(g, trial, 4 * n)
            for spec in daemons:
                full = run(config, g, parse_daemon_spec(spec, trial))
                assert full.round_ends == replayed_round_ends(full, g)
                uneven += full.round_ends != list(range(1, full.step_count + 1))
                if full.step_count < 2:
                    continue
                cut = run(config, g, parse_daemon_spec(spec, trial), max_steps=full.step_count // 2)
                assert not cut.terminated
                assert cut.round_ends == replayed_round_ends(cut, g)
                assert cut.round_ends == [e for e in full.round_ends if e <= cut.step_count]
                assert cut.rounds == len(cut.round_ends) + (cut.round_ends[-1:] != [cut.step_count])
        assert uneven > 0  # some rounds span several steps


def replayed_round_ends(trace, g):
    """Configuration indices at which each round closes, replayed from the
    enabled set of every configuration: a round closes once every process
    enabled at its start has fired or been disabled by a step."""
    sets = [enabled(c, g).keys() for c in replay(trace)]
    ends = []
    pending = set(sets[0])
    for i, fired in enumerate(trace.steps):
        pending -= fired.keys()
        pending -= sets[i] - sets[i + 1]
        if not pending:
            ends.append(i + 1)
            pending = set(sets[i + 1])
    return ends


class TestAarMonotone:
    def test_real_traces_pass(self, triangle):
        for seed in range(5):
            config = random_configuration(triangle, seed, 8)
            trace = run(config, triangle, parse_daemon_spec("rand:p=0.5", seed))
            assert check_trace(trace, triangle).aar_monotone

    def test_fabricated_regression_fails(self, path3):
        clean = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        broken = mk_config(path3, n1=(Status.C, 1, 5), n2=(Status.C, 1, 2))
        trace = fabricated_trace([clean, broken], [{1: Rule.R_C}])
        report = walk_recorded(trace, path3)
        assert not report.aar_monotone
        by_name = {r.name: r for r in full_trace_report(trace, path3, report)}
        assert not by_name["aar_monotone"].ok


def fabricated_trace(configs, fired_maps):
    # Each fired process writes its state in the next configuration; no
    # other process may change, or the replay would hide the change. Each
    # step fires every enabled process, so each step closes a round. The
    # protocol would not take these steps, so ``check_trace`` refuses
    # them and the tests walk them with ``walk_recorded``.
    steps = []
    for pre, post, fired in zip(configs, configs[1:], fired_maps):
        assert {u for u in range(len(pre)) if pre[u] != post[u]} <= fired.keys()
        steps.append({u: Move(rule, post[u]) for u, rule in fired.items()})
    return ExecutionTrace(
        initial=configs[0],
        steps=steps,
        step_count=len(steps),
        final=configs[-1],
        terminated=True,
        round_ends=list(range(1, len(steps) + 1)),
    )


class TestSegments:
    def test_freeze_cycle_uses_two_segments(self, weight2):
        config = mk_config(weight2, n1=(Status.C, 0, 1))
        trace = run(config, weight2, SynchronousDaemon())
        report = check_trace(trace, weight2)
        assert report.segments_ok
        assert report.segment_counts[1] == 2

    def test_quiet_node_passes(self, path3):
        config = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        trace = run(config, path3, SynchronousDaemon())
        assert check_trace(trace, path3).segments_ok

    def test_rejoin_then_isolate_in_one_segment_fails(self, path3):
        # a node may isolate before rejoining within a segment, never after
        config = normal_initial_configuration(path3)
        trace = fabricated_trace(
            [config, config, config],
            [{1: Rule.R_R}, {1: Rule.R_I}],
        )
        report = walk_recorded(trace, path3)
        assert not report.per_node_ok[1]
        assert not report.segments_ok

    def test_double_broadcast_fails(self, path3):
        config = normal_initial_configuration(path3)
        trace = fabricated_trace(
            [config, config, config],
            [{2: Rule.R_EB}, {2: Rule.R_EB}],
        )
        assert not walk_recorded(trace, path3).per_node_ok[2]

    def test_other_component_boundary_does_not_split(self):
        # Components A = {r, 1} and B = {2, 3}. A's alive abnormal root
        # (node 1, parent not a neighbor) corrects itself at step 0, which
        # ends A's segment but not B's: node 2's two broadcasts share a
        # segment.
        g = build_graph([(0, 1, 1), (2, 3, 1)], 4, 0)
        broken = mk_config(g, n1=(Status.C, 1, 1))
        fixed = mk_config(g, n1=(Status.C, 0, 1))
        assert alive_abnormal_roots(broken, g) == {1}
        assert alive_abnormal_roots(fixed, g) == set()
        trace = fabricated_trace(
            [broken, fixed, fixed], [{1: Rule.R_C, 2: Rule.R_EB}, {2: Rule.R_EB}]
        )
        report = walk_recorded(trace, g)
        assert report.segment_counts == {1: 2, 2: 1, 3: 1}
        assert not report.per_node_ok[2]
        assert report.per_node_ok[1] and report.per_node_ok[3]
        assert not report.segments_ok


def segments_by_rescan(trace, g):
    """Reference: the segment check by full rescan, rebuilding the alive
    abnormal roots of every configuration from ``forest_view``."""
    info = component_info(g)
    comp_of = info.component_of
    aars = [alive_abnormal_roots(c, g) for c in replay(trace)]
    segment = [0] * len(info.components)
    words = {}
    for i, fired in enumerate(trace.steps):
        for u, move in fired.items():
            key = (u, segment[comp_of[u]])
            words[key] = words.get(key, "") + RULE_LETTER[move.rule]
        for c in {comp_of[u] for u in aars[i] - aars[i + 1]}:
            segment[c] += 1
    bad = {u for (u, _), word in words.items() if not SEGMENT_RE.fullmatch(word)}
    per_node_ok, counts = {}, {}
    for u in range(g.node_count):
        if u != g.root_id:
            counts[u] = segment[comp_of[u]] + 1
            per_node_ok[u] = u not in bad and counts[u] <= info.n_max_cc + 1
    monotone = all(cur <= prev for prev, cur in zip(aars, aars[1:]))
    return per_node_ok, counts, all(per_node_ok.values()), monotone


class TestSegmentReference:
    def test_incremental_series_matches_rescan(self):
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        rng = random.Random(9)
        split = several_segments = 0
        for trial in range(30):
            n = 4 + trial % 9
            g = generate_random_graph(trial, n, 0.5, 4, component_hint=2 + trial % 2)
            perm = list(range(n))
            rng.shuffle(perm)
            h, start = relabelled(g, random_configuration(g, trial, 4 * n), perm)
            split += len(component_info(h).components) > 1
            for spec in daemons:
                full = run(start, h, parse_daemon_spec(spec, trial))
                cut = run(start, h, parse_daemon_spec(spec, trial), max_steps=max(1, full.step_count // 2))
                for trace in (full, cut):
                    report = check_trace(trace, h)
                    got = (report.per_node_ok, report.segment_counts, report.segments_ok, report.aar_monotone)
                    assert got == segments_by_rescan(trace, h)
                    assert walk_matches_references(trace, h)
                    several_segments += max(report.segment_counts.values(), default=1) > 1
        assert split and several_segments  # components split, and segments end


class TestTraceWalk:
    def test_one_walk_per_report(self, monkeypatch, triangle):
        # A terminated run that reaches the milestones, so every check
        # runs, and the same run cut short: one walk each, which judges
        # the initial configuration and each step once.
        full = run(random_configuration(triangle, 16, 10), triangle, parse_daemon_spec("adv:churn", 16))
        assert full.terminated and full.rounds > component_info(triangle).n_max_cc
        cut = run(full.initial, triangle, parse_daemon_spec("adv:churn", 16), max_steps=full.step_count // 2)
        assert not cut.terminated
        step = TraceWalk.step
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(TraceWalk, "step", counted)
        for trace in (full, cut):
            calls = 0
            full_trace_report(trace, triangle, check_trace(trace, triangle))
            assert calls == trace.step_count + 1

    @pytest.mark.parametrize("mutant", [False, True], ids=["protocol", "ab_root mutant"])
    def test_cut_traces_walk_as_if_terminated(self, monkeypatch, mutant):
        # The walk takes one path whether or not the trace terminated: on
        # corpus traces cut short, every field but the milestones equals
        # the walk of the same steps marked terminated, and the milestones
        # read None. Some cut traces complete n_max_cc rounds, so the
        # marked walk judges milestones; under the real protocol they
        # equal the reference replay's.
        if mutant:
            monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        milestones = {
            "no_status_c_in_illegal_ok",
            "illegal_cleared_ok",
            "hop_legitimacy_ok",
            "acyclic_ok",
            "milestones_ok",
        }
        judged = 0
        for idx, g in enumerate(corpus_instances(40, CORPUS_SEED)):
            start = random_configuration(g, idx, component_info(g).w_max * g.node_count)
            for spec in DAEMONS:
                full = run(start, g, parse_daemon_spec(spec, idx), max_steps=200)
                cut = run(start, g, parse_daemon_spec(spec, idx), max_steps=max(1, full.step_count // 2))
                if cut.terminated:
                    continue
                marked = dataclasses.replace(cut, terminated=True)
                report, as_terminated = vars(check_trace(cut, g)), vars(walk_recorded(marked, g))
                assert all(report[key] is None for key in milestones)
                for key in report.keys() - milestones:
                    assert report[key] == as_terminated[key], key
                if not mutant:
                    assert walk_matches_references(marked, g, walk_recorded)
                judged += len(cut.round_ends) >= component_info(g).n_max_cc
        assert judged

    @pytest.mark.parametrize("mutant", [False, True], ids=["protocol", "ab_root mutant"])
    def test_live_walk_matches_neighbourhood_walk(self, monkeypatch, mutant):
        # The walk that ``run`` feeds as each step fires, which updates
        # only the fired processes and their children and reads one count
        # at a round end, equals the reference that updates every
        # neighbour of a fired process and rescans at each round end, on
        # the same steps: on corpus traces, full and cut short, and on
        # graphs of two to five nodes, whose runs complete 3 * n_max_cc
        # rounds often enough to judge the hops. No run tried completes
        # more, so the fabricated traces below judge the raised budgets.
        # ``check_trace``'s replay of the recorded steps, and
        # ``walk_recorded``'s walk of them, report the same.
        if mutant:
            monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        graphs = list(corpus_instances(40, CORPUS_SEED))
        graphs += [
            generate_random_graph(trial, 2 + trial % 4, 0.6, 3, component_hint=1 + trial % 2, root_id=trial % 2)
            for trial in range(60)
        ]
        compared = cut_short = hop_judged = 0
        for idx, g in enumerate(graphs):
            start = random_configuration(g, idx, component_info(g).w_max * g.node_count)
            for spec in DAEMONS:
                full = run(start, g, parse_daemon_spec(spec, idx), max_steps=200)
                for max_steps in (200, max(1, full.step_count // 2)):
                    walk, recorder = TraceWalk(start, g), Recorder()
                    trace = run(start, g, parse_daemon_spec(spec, idx), max_steps, consumers=[walk, recorder])
                    recorded = dataclasses.replace(trace, steps=recorder.steps)
                    live = vars(walk.report(trace.terminated))
                    assert live == neighbourhood_walk(recorded, g)
                    assert live == vars(check_trace(recorded, g)) == vars(walk_recorded(recorded, g))
                    compared += 1
                    cut_short += not trace.terminated
                    hop_judged += len(trace.round_ends) >= 3 * component_info(g).n_max_cc
        assert compared == 1000 and cut_short and hop_judged

    def test_first_configuration_of_round_n_max_cc_is_judged(self, path3):
        # The only configuration with status C in an illegal branch sits at
        # index round_ends[n_max_cc - 1], when n_max_cc rounds have just
        # completed: the walk must fail it. One index earlier, only
        # n_max_cc - 1 rounds have completed: the walk must pass it.
        nm = component_info(path3).n_max_cc
        clean = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        bad = mk_config(path3, n1=(Status.C, 1, 5), n2=(Status.C, 1, 6))
        assert forest_view(bad, path3).illegal_membership[1]
        fired = {1: Rule.R_C, 2: Rule.R_C}
        for at, ok in ((nm, False), (nm - 1, True)):
            configs = [clean] * (nm + 2)
            configs[at] = bad
            trace = fabricated_trace(configs, [fired] * (nm + 1))
            assert trace.round_ends[nm - 1] == nm
            report = walk_recorded(trace, path3)
            assert report.no_status_c_in_illegal_ok is ok
            assert report.milestones_ok is ok
            assert walk_matches_references(trace, path3, walk_recorded)

    def test_faulty_protocol_matches_references(self, monkeypatch):
        # Under the mutant ab_root parent pointers can close a cycle, and
        # some milestones fail. The segment fields and aar_monotone must
        # equal both references' on full runs and on runs cut short. The
        # walk's acyclic_ok fails on a loose link, which every cycle needs
        # but which can come without one: wherever it holds, the milestone
        # fields equal the reference's, and wherever the reference fails
        # the milestones, so does the walk.
        monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        daemons = ["sync", "central", "rand:p=0.5", "adv:starve", "adv:churn"]
        failed = 0
        for trial in range(80):
            n = 2 + trial % 5
            g = generate_random_graph(trial, n, 0.6, 3, component_hint=1 + trial % 2, root_id=trial % n)
            start = random_configuration(g, trial, 2 * n)
            for spec in daemons:
                full = run(start, g, parse_daemon_spec(spec, trial), max_steps=60)
                cut = run(start, g, parse_daemon_spec(spec, trial), max_steps=max(1, full.step_count // 2))
                for trace in (full, cut):
                    report = vars(check_trace(trace, g))
                    segments = segment_language_check(trace, g)
                    assert {key: report[key] for key in segments} == segments
                    if not trace.terminated:
                        assert all(report[key] is None for key in report.keys() - segments.keys())
                        continue
                    milestones = check_round_milestones(trace, g)
                    if report["acyclic_ok"] is not False:
                        assert {key: report[key] for key in milestones} == milestones
                    if milestones["milestones_ok"] is False:
                        assert report["milestones_ok"] is False
                failed += full.terminated and not check_trace(full, g).milestones_ok
        assert failed  # the mutant breaks milestones

    def test_hop_budget_judges_untouched_processes(self):
        # Node 1 (hop 1) has a wrong distance and no step touches it: only
        # node 2, which is not its neighbour, fires. The round end that
        # raises the hop budget to 1 must fail it; one round earlier the
        # budget is 0 and the same trace passes.
        g = build_graph([(0, 1, 1), (0, 2, 1)], 3, 0)
        nm = component_info(g).n_max_cc
        config = mk_config(g, n1=(Status.C, 0, 5), n2=(Status.C, 0, 1))
        assert not legitimate_state(config, g, 1)[0]
        for rounds, ok in ((3 * nm + 1, False), (3 * nm, True)):
            trace = fabricated_trace([config] * (rounds + 1), [{2: Rule.R_C}] * rounds)
            report = walk_recorded(trace, g)
            assert report.hop_legitimacy_ok is ok
            assert report.no_status_c_in_illegal_ok and report.illegal_cleared_ok and report.acyclic_ok
            assert walk_matches_references(trace, g, walk_recorded)

    def test_abnormal_root_calls_bounded_by_touched_nodes(self, monkeypatch):
        # The walk evaluates ab_root at most twice per process and per
        # node a step touches (fired or a neighbour of one): no
        # configuration is scanned whole once n_max_cc rounds complete.
        # The guards call ab_root too, so the walk is fed without a replay.
        n = 300
        g = build_graph([(i, i + 1, 1) for i in range(n - 1)], n, 0)
        trace = run(random_configuration(g, 3, n), g, SynchronousDaemon())
        assert trace.terminated and trace.rounds > component_info(g).n_max_cc
        touched = sum(len(set(fired).union(*(g.adjacency[u] for u in fired))) for fired in trace.steps)
        real = protocol.ab_root
        calls = 0

        def counted(config, g, u):
            nonlocal calls
            calls += 1
            return real(config, g, u)

        monkeypatch.setattr(protocol, "ab_root", counted)
        walk_recorded(trace, g)
        assert 0 < calls <= 2 * (n + touched)


def foreign_traces():
    """A terminated corpus trace under the central daemon (12 steps on 12
    nodes, two rounds), its graph, and copies of it that no run could
    record, by name: each with the error ``check_trace`` must raise and
    the error's message."""
    g = list(corpus_instances(2, CORPUS_SEED))[1]
    start = random_configuration(g, 1, component_info(g).w_max * g.node_count)
    trace = run(start, g, parse_daemon_spec("central", 1))
    assert trace.terminated and trace.step_count == 12 and trace.round_ends == [10, 12]
    steps, n = trace.steps, trace.step_count
    pre = list(replay(trace))[2]
    (u, move), = steps[1].items()
    rule, (status, par, d) = move.rule.value, move.state
    edited = move._replace(state=move.state._replace(d=d + 1))
    idle = min(v for v in range(g.node_count) if v != g.root_id and v not in enabled(pre, g))
    final = list(trace.final)
    final[u] = final[u]._replace(d=final[u].d + 1)
    replace = dataclasses.replace
    return trace, g, {
        "post state edited": (
            replace(trace, steps=[steps[0], {u: edited}, *steps[2:]]),
            SelectionError,
            f"step 1: process {u} records {rule} to ({status.value}, {par}, {d + 1}), "
            f"the protocol computes {rule} to ({status.value}, {par}, {d})",
        ),
        "disabled process selected": (
            replace(trace, steps=[*steps[:2], {**steps[2], idle: Move(Rule.R_C, pre[idle])}, *steps[3:]]),
            SelectionError,
            f"step 2: selected processes [{idle}] are not enabled",
        ),
        "empty step": (
            replace(trace, steps=[*steps[:2], {}, *steps[3:]]),
            SelectionError,
            "step 2: selection must be nonempty",
        ),
        "last step dropped": (
            replace(trace, steps=steps[:-1], step_count=n - 1, round_ends=[10]),
            ValueError,
            "the trace records terminated=True, the replay False",
        ),
        "terminated flipped": (
            replace(trace, terminated=False),
            ValueError,
            "the trace records terminated=False, the replay True",
        ),
        "round ends altered": (
            replace(trace, round_ends=[11, 12]),
            ValueError,
            "the trace records round_ends=[11, 12], the replay [10, 12]",
        ),
        "no steps from a non-terminal start": (
            replace(trace, steps=[], step_count=0, final=trace.initial, round_ends=[]),
            ValueError,
            f"the trace records no step, yet processes {sorted(enabled(trace.initial, g))} are enabled",
        ),
        "step after the terminal configuration": (
            replace(trace, steps=[*steps, steps[-1]], step_count=n + 1),
            ValueError,
            f"the trace records step_count={n + 1}, the replay {n}",
        ),
        "step count not the steps": (
            replace(trace, step_count=n - 1),
            ValueError,
            f"the trace records {n} steps and a step_count of {n - 1}",
        ),
        "initial configuration short of a state": (
            replace(trace, initial=trace.initial[:-1]),
            ConfigurationError,
            f"configuration has {g.node_count - 1} states for {g.node_count} nodes",
        ),
        "final configuration edited": (
            replace(trace, final=tuple(final)),
            ValueError,
            "the trace's final configuration is not the replay's",
        ),
    }


class TestReplay:
    def test_recorded_trace_replays(self):
        trace, g, _ = foreign_traces()
        assert vars(check_trace(trace, g)) == vars(walk_recorded(trace, g))

    @pytest.mark.parametrize("case", list(foreign_traces()[2]))
    def test_foreign_trace_is_refused(self, case):
        # A trace the protocol could not produce is refused with a message
        # that names the fault. Each message is its own.
        _, g, cases = foreign_traces()
        assert len({message for _, _, message in cases.values()}) == len(cases)
        foreign, error, message = cases[case]
        with pytest.raises(ValueError) as info:
            check_trace(foreign, g)
        assert type(info.value) is error and str(info.value) == message


def _bound_lines(trace, g):
    """``(ok, detail)`` of the report's step and round bound lines."""
    lines = {r.name: (r.ok, r.detail) for r in full_trace_report(trace, g, check_trace(trace, g))}
    return lines["step_bound"], lines["round_bound"]


class TestBoundsCheck:
    def test_terminated_run_within_limits(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        assert _bound_lines(trace, path3) == (
            (True, "steps=2 limit=30 uniform_limit=30"),
            (True, "rounds=2 limit=8"),
        )

    def test_uniform_limit_is_the_one_compared(self, monkeypatch, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        monkeypatch.setattr(analysis, "uniform_step_bound", lambda n, n_max_cc: 1)
        assert _bound_lines(trace, path3)[0] == (False, "steps=2 limit=30 uniform_limit=1")

    def test_nonuniform_weights_skip_tight_bound(self, triangle):
        config = random_configuration(triangle, 1, 8)
        trace = run(config, triangle, SynchronousDaemon())
        steps, rounds = _bound_lines(trace, triangle)
        assert steps == (True, f"steps={trace.step_count} limit={step_bound_for(triangle)}")
        assert rounds == (True, f"rounds={trace.rounds} limit={round_bound_for(triangle)}")

    def test_uniform_rule_matches_weight_set(self):
        # The uniform bound applies when ComponentInfo's w_min == w_max; that
        # must agree with the set-of-weights rule it replaced,
        # len(weights) <= 1, on every acceptance-corpus graph and on an
        # edgeless graph.
        graphs = [*corpus_instances(CORPUS_SIZE, CORPUS_SEED), build_graph([], 3, 0)]
        seen = set()
        for g in graphs:
            info = component_info(g)
            old_rule = len({w for _, _, w in g.edges()}) <= 1
            assert (info.w_min == info.w_max) == old_rule
            seen.add(old_rule)
        assert seen == {True, False}
        edgeless = graphs[-1]
        trace = run(normal_initial_configuration(edgeless), edgeless, SynchronousDaemon())
        assert (component_info(edgeless).w_min, component_info(edgeless).w_max) == (1, 1)
        (ok, detail), _ = _bound_lines(trace, edgeless)
        assert ok and detail.endswith(f" uniform_limit={uniform_step_bound(3, 1)}")

    def test_truncated_trace_rejected(self, path3):
        trace = run(
            normal_initial_configuration(path3), path3, SynchronousDaemon(), max_steps=1
        )
        with pytest.raises(ValueError, match="terminated trace"):
            check_round_milestones(trace, path3)
        assert check_trace(trace, path3).milestones_ok is None
        lines = {r.name: (r.ok, r.detail) for r in full_trace_report(trace, path3, check_trace(trace, path3))}
        for name in ("step_bound", "round_bound", "round_milestones"):
            assert lines[name] == (False, "NonTerminated")


class TestMilestones:
    def test_freeze_cycle(self, weight2):
        config = mk_config(weight2, n1=(Status.C, 0, 1))
        trace = run(config, weight2, SynchronousDaemon())
        assert check_trace(trace, weight2).milestones_ok

    def test_rootless_component(self, two_comp):
        config = mk_config(two_comp, n1=(Status.C, 2, 2), n2=(Status.C, 1, 1))
        trace = run(config, two_comp, CentralDaemon(3))
        assert check_trace(trace, two_comp).milestones_ok

    def test_random_instances(self, triangle):
        for seed in range(8):
            config = random_configuration(triangle, seed, 10)
            trace = run(config, triangle, parse_daemon_spec("adv:churn", seed))
            assert trace.terminated
            assert check_trace(trace, triangle).milestones_ok

    @pytest.mark.parametrize("status,rule", [(Status.EB, Rule.R_EB), (Status.EF, Rule.R_EF)])
    def test_abnormal_root_left_outside_the_root_component(self, two_comp, status, rule):
        # Node 1 of the rootless component {1, 2} heads a broken tree (its
        # parent is itself) at every step of a trace that closes a round
        # per step. Once 3 * n_max_cc rounds complete, cleared fails on
        # its one line: an abnormal root remains. It is also an
        # illegitimate process outside V_r, which the reference checks on
        # its own. One configuration earlier, cleared still holds.
        nm = component_info(two_comp).n_max_cc
        stuck = mk_config(two_comp, n1=(status, 1, 3))
        assert protocol.ab_root(stuck, two_comp, 1)
        assert not legitimate_state(stuck, two_comp, 1)[0]
        lines, first = inspect.getsourcelines(TraceWalk.step)
        cleared = {first + i for i, line in enumerate(lines) if line.strip() == "self._ok_cleared = False"}
        assert len(cleared) == 1
        for count, ok in ((3 * nm + 1, False), (3 * nm, True)):
            trace = fabricated_trace([stuck] * count, [{1: rule}] * (count - 1))
            report, ran = lines_run(TraceWalk.step, walk_recorded, trace, two_comp)
            assert report.illegal_cleared_ok is ok
            assert report.no_status_c_in_illegal_ok and report.acyclic_ok
            assert cleared & ran == (set() if ok else cleared)
            assert check_round_milestones(trace, two_comp)["illegal_cleared_ok"] is ok
            assert walk_matches_references(trace, two_comp, walk_recorded)


def lines_run(watched, func, *args):
    """``func(*args)`` and the line numbers of ``watched``'s own code that
    ran during the call."""
    ran = set()

    def in_func(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return in_func

    def on_call(frame, event, arg):
        return in_func if frame.f_code is watched.__code__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return func(*args), ran
    finally:
        sys.settrace(previous)


def local_flags(config, g):
    """Whether a C head, an abnormal root and a loose link exist, from
    ``analysis._local_facts`` alone."""
    facts = (_local_facts(config, g, u) for u in range(g.node_count) if u != g.root_id)
    ab, head, loose = map(any, zip(*facts))
    return head, ab, loose


def forest_flags(config, g):
    """Whether status C lies in an illegal branch, whether any process
    does, and whether the parent pointers are acyclic, from the
    reference's parent-chain walk."""
    view = forest_view(config, g)
    illegal = view.illegal_membership
    c_illegal = any(illegal[u] and config[u].status is Status.C for u in illegal)
    return c_illegal, any(illegal.values()), view.acyclic


class TestLocalFacts:
    @pytest.mark.parametrize("mutant", [False, True])
    def test_lemma_on_every_small_configuration(self, monkeypatch, mutant):
        # The argument in TraceWalk's docstring, exhaustively: every
        # enumerated configuration, self-pointer parents included, of the
        # 3-path rooted at an end and in the middle, the weighted
        # triangle, the 4-star and a 4-node graph with 2 components. The
        # real ab_root leaves no loose link; under the mutant the local
        # flags still equal the walk's wherever none exists, and every
        # parent cycle has one.
        if mutant:
            monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        instances = [
            ([(0, 1, 1), (1, 2, 1)], 3, 0),
            ([(0, 1, 1), (1, 2, 1)], 3, 1),
            ([(0, 1, 2), (1, 2, 3), (2, 0, 1)], 3, 0),
            ([(0, 1, 1), (0, 2, 1), (0, 3, 1)], 4, 0),
            ([(0, 1, 1), (2, 3, 2)], 4, 0),
        ]
        seen = {"c_illegal": 0, "illegal": 0, "loose": 0, "cycle": 0}
        for edges, n, root in instances:
            g = build_graph(edges, n, root)
            for d_cap in (1, 2):
                for config in enumerate_initial_configs(g, d_cap):
                    c_head, ab, loose = local_flags(config, g)
                    c_illegal, illegal, acyclic = forest_flags(config, g)
                    assert loose or acyclic, config
                    if not loose:
                        assert (c_head, ab) == (c_illegal, illegal), config
                    seen["c_illegal"] += c_illegal
                    seen["illegal"] += illegal
                    seen["loose"] += loose
                    seen["cycle"] += not acyclic
        assert seen["c_illegal"] and seen["illegal"]
        if mutant:
            assert 0 < seen["cycle"] < seen["loose"]
        else:
            assert seen["loose"] == 0

    @pytest.mark.parametrize(
        "ab_root",
        [protocol.ab_root, ab_root_without_distance, ab_root_far_parent],
        ids=["real", "without distance", "far parent"],
    )
    def test_process_outside_root_component_implies_a_cleared_fact(self, monkeypatch, ab_root):
        # TraceWalk's cleared clause reads only the abnormal roots and
        # loose links, by the argument in its docstring: every enumerated
        # configuration of these graphs with a rootless component, in which
        # a process outside V_r is not isolated, has one of the two there.
        # Some such configurations need the parent-chain step: the process
        # is neither itself. Only the mutant without the distance clause
        # leaves a loose link, and some configuration has no abnormal root
        # there but a loose link.
        monkeypatch.setattr(protocol, "ab_root", ab_root)
        instances = [
            ([(1, 2, 1)], 3, 0),
            ([(0, 1, 1), (2, 3, 2)], 4, 0),
            ([(1, 2, 1), (2, 3, 1)], 4, 0),
            ([(1, 2, 2), (2, 3, 3), (3, 1, 1)], 4, 0),
            ([(0, 1, 1), (1, 2, 2)], 4, 3),
        ]
        seen = {"configs": 0, "by_chain": 0, "loose_only": 0}
        for edges, n, root in instances:
            g = build_graph(edges, n, root)
            outside = [u for u, d in enumerate(root_distances(g)) if d == INFINITY]
            for config in enumerate_initial_configs(g, 2):
                awake = [u for u in outside if config[u].status is not Status.I]
                if not awake:
                    continue
                facts = {u: _local_facts(config, g, u) for u in outside}
                ab, _, loose = map(any, zip(*facts.values()))
                assert ab or loose, (edges, root, config)
                seen["configs"] += 1
                seen["by_chain"] += any(not (facts[u][0] or facts[u][2]) for u in awake)
                seen["loose_only"] += not ab
        assert 0 < seen["by_chain"] < seen["configs"]
        assert (seen["loose_only"] > 0) == (ab_root is ab_root_without_distance)


class TestFaultyProtocol:
    def test_parent_cycle_fails_milestones(self, monkeypatch, tmp_path, capsys):
        # Nodes 0 and 1 point at each other, outside the root's component.
        # Once n_max_cc = 2 rounds complete, the milestone check sees the
        # cycle: a FAIL verdict, not an exception.
        monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        g = build_graph([(0, 1, 1)], 3, 2)
        start = mk_config(g, n0=(Status.EB, 1, 5), n1=(Status.EB, 0, 2))
        trace = run(start, g, SynchronousDaemon())
        assert trace.terminated and trace.rounds == 2
        by_name = {r.name: r for r in full_trace_report(trace, g, check_trace(trace, g))}
        assert not by_name["round_milestones"].ok
        assert by_name["round_milestones"].detail.endswith(" acyclic=False")
        assert not check_trace(trace, g).acyclic_ok
        view = forest_view(trace.final, g)
        assert not view.acyclic
        assert view.illegal_membership == {0: True, 1: True, 2: False}
        graph_file, init_file = tmp_path / "pair.g", tmp_path / "pair.cfg"
        graph_file.write_text(format_graph(g))
        init_file.write_text(format_configuration(start, g))
        assert main(["run", "-g", str(graph_file), "--init", f"file:{init_file}", "-d", "sync"]) == EXIT_CHECK_FAILED
        assert "round_milestones  FAIL" in capsys.readouterr().out


class TestTerminalLegitimateEquivalence:
    def test_every_visited_configuration(self, triangle):
        for seed in range(6):
            config = random_configuration(triangle, 100 + seed, 10)
            trace = run(config, triangle, parse_daemon_spec("rand:p=0.5", seed))
            for c in replay(trace):
                terminal = not enabled(c, triangle)
                legit = not legitimate_config(c, triangle)
                assert terminal == legit


class TestFullReport:
    def test_clean_run_all_green(self, path3):
        trace = run(normal_initial_configuration(path3), path3, SynchronousDaemon())
        results = full_trace_report(trace, path3, check_trace(trace, path3))
        assert [r.name for r in results] == [
            "terminated",
            "final_legitimate",
            "step_bound",
            "round_bound",
            "round_milestones",
            "aar_monotone",
            "segment_language",
        ]
        assert all(r.ok for r in results)

    def test_truncated_run_flags_bounds(self, path3):
        trace = run(
            normal_initial_configuration(path3), path3, SynchronousDaemon(), max_steps=1
        )
        by_name = {r.name: r for r in full_trace_report(trace, path3, check_trace(trace, path3))}
        assert not by_name["terminated"].ok
        assert not by_name["step_bound"].ok
        assert by_name["step_bound"].detail == "NonTerminated"
