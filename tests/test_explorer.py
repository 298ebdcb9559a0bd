import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

from stabtree import analysis, engine, protocol
from stabtree.analysis import step_bound_for
from stabtree.engine import normal_initial_configuration, random_configuration, run
from stabtree.daemon import SynchronousDaemon
from stabtree.explorer import (
    DEFAULT_MAX_VISITED,
    BudgetExceededError,
    _Explorer,
    _view_facts,
    certify_instance,
    enumerate_initial_configs,
)
from stabtree.graph import build_graph, generate_random_graph
from stabtree.protocol import ROOT_STATE, ProcessState, Status

from conftest import (
    ab_root_far_parent,
    ab_root_without_distance,
    alive_abnormal_roots,
    initial_configs_by_fill,
    mk_config,
    restless_enabled_rule,
    step,
)


@pytest.fixture
def edge():
    """Single edge r(0) - a(1), unit weight."""
    return build_graph([(0, 1, 1)], 2, 0)


def _explore(g, config, max_visited=DEFAULT_MAX_VISITED):
    """Every execution from one configuration, over the whole graph."""
    ex = _Explorer(g, range(g.node_count), max_visited)
    ex.explore_from(config)
    return ex


def _longest(ex):
    """Each finished configuration's longest execution, decoded from its
    memo entry ``longest << width | alive``."""
    return {c: entry >> ex.width for c, entry in ex.memo.items() if entry >= 0}


def _terminals(ex):
    return {c for c, k in _longest(ex).items() if k == 0}


class TestExplore:
    def test_normal_start_on_edge(self, edge):
        config = normal_initial_configuration(edge)
        ex = _explore(edge, config)
        assert ex.expanded == 2
        assert _longest(ex)[config] == 1
        assert ex.cycle_witness is None
        assert not ex.illegitimate_terminals
        assert not ex.nonterminal_legitimate
        assert len(_terminals(ex)) == 1

    def test_already_terminal(self, edge):
        config = mk_config(edge, n1=(Status.C, 0, 1))
        ex = _explore(edge, config)
        assert ex.expanded == 1
        assert _longest(ex)[config] == 0
        assert _terminals(ex) == {config}

    def test_chain_with_weight_two(self):
        g = build_graph([(0, 1, 2)], 2, 0)
        config = mk_config(g, n1=(Status.C, 0, 1))
        ex = _explore(g, config)
        assert ex.expanded == 4  # freeze, acknowledge, rejoin
        assert _longest(ex)[config] == 3 <= step_bound_for(g)

    def test_adversarial_triangle_within_bound(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3, 0)
        config = mk_config(g, n1=(Status.C, 2, 5), n2=(Status.C, 1, 5))
        ex = _explore(g, config)
        assert ex.cycle_witness is None
        assert not ex.aar_violations
        assert _longest(ex)[config] <= step_bound_for(g) == 30

    def test_longest_path_at_least_any_run(self, triangle):
        config = mk_config(triangle, n1=(Status.C, 2, 9), n2=(Status.C, 1, 9))
        trace = run(config, triangle, SynchronousDaemon())
        assert _longest(_explore(triangle, config))[config] >= trace.step_count

    def test_visited_budget(self, triangle):
        config = mk_config(triangle, n1=(Status.C, 2, 9), n2=(Status.C, 1, 9))
        ex = _Explorer(triangle, range(3), 1)
        with pytest.raises(BudgetExceededError):
            ex.explore_from(config)
        assert ex.expanded == 1


def _parts(g, nodes):
    """``nodes`` split into the parts connected by edges among them, each
    part in node order, the parts ordered by their smallest node."""
    left, parts = set(nodes), []
    while left:
        part, todo = set(), [min(left)]
        while todo:
            u = todo.pop()
            if u in left:
                left.discard(u)
                part.add(u)
                todo.extend(g.adjacency[u])
        parts.append(sorted(part))
    return parts


def _mask_successors(g, config, connected_only=False):
    """The former mask-loop successor generation, the reference for the
    order of ``_Explorer._successors``: mask bit i selects the i-th
    enabled process, so the first enabled process varies fastest. With
    ``connected_only``, the masks whose selection splits into parts with
    no edge between them are skipped, as the explorer skips them.
    Returns the successors and the steps creating an alive abnormal root."""
    new_states = [(u, move.state) for u, move in engine.enabled(config, g).items()]
    pre_aar = alive_abnormal_roots(config, g)
    succs, violations = [], []
    for mask in range(1, 1 << len(new_states)):
        chosen = [u for bit, (u, _) in enumerate(new_states) if mask >> bit & 1]
        if connected_only and len(_parts(g, chosen)) > 1:
            continue
        states = list(config)
        for bit, (u, state) in enumerate(new_states):
            if mask >> bit & 1:
                states[u] = state
        succ = tuple(states)
        if not alive_abnormal_roots(succ, g) <= pre_aar:
            violations.append((config, succ))
        succs.append(succ)
    return succs, violations


UNIT_4PATH = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
STAR4 = [(0, 1, 1), (0, 2, 1), (0, 3, 1)]  # rooted at its centre
UNIT_4CYCLE = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
SPLIT4 = [(0, 1, 1), (2, 3, 2)]  # 4-node 2 components


class TestSuccessorOrder:
    @pytest.mark.parametrize(
        "edges,n,widest",
        [
            ([(0, 1, 1), (1, 2, 2)], 3, 3),
            ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3, 3),
            (UNIT_4PATH, 4, 6),  # every selection but {1, 3}
            (STAR4, 4, 3),  # the single leaves
        ],
        ids=["3-path", "triangle", "unit 4-path", "4-star"],
    )
    def test_matches_mask_loop(self, edges, n, widest):
        # Same successors in the same order as the mask loop restricted to
        # connected selections: DFS order, cycle witnesses and budgeted
        # partials depend on it. One explorer serves every sample, so later
        # samples read local facts and selections tabled by earlier ones.
        # The legitimacy verdict is legitimate_config's, on the samples and
        # on the legitimate end of a run.
        g = build_graph(edges, n, 0)
        ex = _Explorer(g, range(n), 1)
        samples = [random_configuration(g, seed, 3) for seed in range(300)]
        samples.append(run(normal_initial_configuration(g), g, SynchronousDaemon()).final)
        most = 0
        legit_seen = set()
        for config in samples:
            succs, _ = _mask_successors(g, config, connected_only=True)
            alive = sum(1 << u for u in alive_abnormal_roots(config, g))
            legit = not analysis.legitimate_config(config, g)
            assert ex._successors(config) == (succs, alive, legit), config
            most = max(most, len(succs))
            legit_seen.add(legit)
        assert most == widest  # some sample has every process enabled
        assert legit_seen == {True, False}

    @pytest.mark.parametrize(
        "edges", [UNIT_4PATH, STAR4, UNIT_4CYCLE, SPLIT4], ids=["unit 4-path", "4-star", "unit 4-cycle", "4-node 2 components"]
    )
    def test_dropped_successors_are_reached_by_their_parts(self, edges):
        # The lemma behind the reduction: firing a disconnected selection
        # equals firing its connected parts one at a time, each part still
        # enabled with the same move in the intermediate configuration, and
        # each of those steps is a successor the explorer keeps.
        g = build_graph(edges, 4, 0)
        ex = _Explorer(g, range(4), 1)
        dropped = 0
        for seed in range(200):
            config = random_configuration(g, seed, 3)
            moves = engine.enabled(config, g)
            for mask in range(1, 1 << len(moves)):
                chosen = [u for bit, u in enumerate(moves) if mask >> bit & 1]
                parts = _parts(g, chosen)
                if len(parts) == 1:
                    continue
                dropped += 1
                current = config
                for part in parts:
                    now = engine.enabled(current, g)
                    assert all(now.get(u) == moves[u] for u in part), (config, chosen, part)
                    after = step(current, g, part)
                    assert after in ex._successors(current)[0]
                    current = after
                assert current == step(config, g, chosen)
        assert dropped > 50

    @pytest.mark.parametrize(
        "max_visited,partial",
        [(10, (4, 10, 3)), (100, (8, 100, 10)), (1000, (485, 1000, 12))],
    )
    def test_budgeted_partials_are_pinned(self, max_visited, partial):
        # (initial_configs, reachable, max_steps) when the budget runs out
        # on the unit 4-path at d_cap 1, as recorded under the mask loop.
        g = build_graph(UNIT_4PATH, 4, 0)
        got = certify_instance(g, 1, max_visited=max_visited)
        assert got.verdict == "INCONCLUSIVE"
        assert (got.initial_configs, got.reachable_count, got.max_steps_any_path) == partial


# Instances on which ``ab_root_without_distance`` leaves terminal
# configurations illegitimate and lets steps create alive abnormal roots
# at d_cap 1, with no cycle.
MUTANT_INSTANCES = [
    ([(0, 1, 1), (1, 2, 1)], 3),  # unit 3-path
    ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3),  # triangle
    ([(1, 2, 1)], 3),  # the root alone plus an edge
    ([(0, 1, 1), (2, 3, 2)], 4),  # 4-node 2 components
]
MUTANT_IDS = ["unit 3-path", "triangle", "root plus edge", "4-node 2 components"]


class TestMutantViolations:
    @pytest.mark.parametrize(
        "instance,terminals,steps",
        zip(MUTANT_INSTANCES, (14, 23, 12, 17), (46, 72, 38, 52)),
        ids=MUTANT_IDS,
    )
    def test_ab_root_mutant_counts_are_pinned(self, monkeypatch, instance, terminals, steps):
        monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        result = certify_instance(build_graph(*instance, 0), 1)
        assert result.verdict == "FAIL"
        assert result.witness is None
        assert result.violations == [
            f"{terminals} illegitimate terminal configuration(s)",
            f"{steps} step(s) creating an alive abnormal root",
        ]

    @pytest.mark.parametrize("instance", MUTANT_INSTANCES, ids=MUTANT_IDS)
    def test_walked_steps_match_mask_reference(self, monkeypatch, instance):
        # A search that runs to completion walks every step of every
        # expanded configuration once: the steps it flags are, as a
        # multiset, those the mask loop over connected selections flags
        # from every configuration.
        monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        g = build_graph(*instance, 0)
        ex = _Explorer(g, range(g.node_count), DEFAULT_MAX_VISITED)
        ex.explore(1)
        assert ex.cycle_witness is None
        reference = Counter(v for c in ex.memo for v in _mask_successors(g, c, connected_only=True)[1])
        assert reference
        assert Counter(ex.aar_violations) == reference

    def test_restless_mutant_on_edge(self, monkeypatch, edge):
        # (C, 0, 1) is legitimate yet fires R_EB, creating an alive
        # abnormal root; the freeze, its acknowledgement and a rejoin
        # lead back to it.
        monkeypatch.setattr(protocol, "enabled_rule", restless_enabled_rule)
        result = certify_instance(edge, 1)
        assert result.verdict == "FAIL"
        assert result.violations == [
            "cycle in configuration graph (silence violated)",
            "1 legitimate non-terminal configuration(s)",
            "1 step(s) creating an alive abnormal root",
        ]
        assert [c[1] for c in result.witness] == [
            ProcessState(Status.I, 0, 0),
            ProcessState(Status.C, 0, 1),
            ProcessState(Status.EB, 0, 1),
            ProcessState(Status.EF, 0, 1),
            ProcessState(Status.C, 0, 1),
        ]

    def test_cycle_stops_the_step_checks(self, monkeypatch, path3):
        # Only the steps walked before the cycle are checked. From
        # (C, 0, 1), (I, 1, 0) two steps create an alive abnormal root at
        # node 1; the search follows the first to the cycle and never
        # walks the second, which also rejoins node 2.
        monkeypatch.setattr(protocol, "enabled_rule", restless_enabled_rule)
        result = certify_instance(path3, 1)
        assert result.violations == [
            "cycle in configuration graph (silence violated)",
            "1 step(s) creating an alive abnormal root",
        ]
        pre = mk_config(path3, n1=(Status.C, 0, 1), n2=(Status.I, 1, 0))
        assert len(_mask_successors(path3, pre)[1]) == 2

    def test_step_bound_message(self, monkeypatch, edge):
        monkeypatch.setattr(analysis, "step_bound_for", lambda g: 2)
        result = certify_instance(edge, 3)
        assert (result.verdict, result.max_steps_any_path) == ("FAIL", 3)
        assert result.violations == ["longest execution 3 exceeds step bound 2"]


class _AllMasksExplorer(_Explorer):
    """The explorer with a successor for every nonempty selection of the
    enabled processes, in bit-mask order, and no tables: the successor
    generation before the reduction to connected selections, kept as the
    reference for it."""

    def _successors(self, config):
        g = self.g
        facts = {u: _view_facts(config, g, u) for u in range(g.node_count) if u != g.root_id}
        alive = sum(1 << u for u, (_, _, flag) in facts.items() if flag)
        legit = all(ok for _, ok, _ in facts.values())
        choices = [(state,) for state in config]
        for u, (move, _, _) in facts.items():
            if move is not None:
                choices[u] = (config[u], move.state)
        # The first product is ``config`` itself, the empty selection.
        return [c[::-1] for c in itertools.product(*reversed(choices))][1:], alive, legit


def _verdict(ex, g):
    """The verdict and the violation kinds of a finished explorer, judged
    as ``certify_instance`` judges one factor."""
    kinds = [
        name
        for name, bad in [
            ("cycle", ex.cycle_witness is not None),
            ("illegitimate terminal", ex.illegitimate_terminals),
            ("legitimate non-terminal", ex.nonterminal_legitimate),
            ("alive abnormal root", ex.aar_violations),
            ("step bound", ex.cycle_witness is None and ex.max_steps > analysis.step_bound_for(g)),
        ]
        if bad
    ]
    return "FAIL" if kinds else "PASS", kinds


# Instances with selections that split into parts with no edge between them.
REDUCED_INSTANCES = [
    (UNIT_4PATH, 4, 1),
    (STAR4, 4, 1),
    (UNIT_4CYCLE, 4, 1),
    (SPLIT4, 4, 1),  # as one whole-graph explorer, not by factor
    ([(0, 1, 1), (0, 2, 2)], 3, 2),  # 3-path rooted in the middle
    ([], 3, 2),  # the root and 2 isolated nodes, as one whole-graph explorer
]
REDUCED_IDS = ["unit 4-path", "4-star", "unit 4-cycle", "4-node 2 components", "3-path rooted in the middle", "3 isolated nodes"]


class TestConnectedSelections:
    @pytest.mark.parametrize("mutant", ["none", "ab_root", "restless", "step bound"])
    @pytest.mark.parametrize("edges,n,d_cap", REDUCED_INSTANCES, ids=REDUCED_IDS)
    def test_same_results_as_every_selection(self, monkeypatch, edges, n, d_cap, mutant):
        if mutant == "ab_root":
            monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        elif mutant == "restless":
            monkeypatch.setattr(protocol, "enabled_rule", restless_enabled_rule)
        elif mutant == "step bound":
            monkeypatch.setattr(analysis, "step_bound_for", lambda g: 5)
        g = build_graph(edges, n, 0)
        reduced = _Explorer(g, range(n), DEFAULT_MAX_VISITED)
        reference = _AllMasksExplorer(g, range(n), DEFAULT_MAX_VISITED)
        for ex in (reduced, reference):
            ex.explore(d_cap)
        verdict = _verdict(reduced, g)
        assert verdict == _verdict(reference, g)
        # Neither protocol mutant changes anything on the nodes without edges.
        assert verdict[0] == ("PASS" if mutant == "none" or (not edges and mutant != "step bound") else "FAIL")
        assert reduced.initial_configs == reference.initial_configs
        assert reduced.max_steps == reference.max_steps
        if reduced.cycle_witness is not None:
            # The same first start reaches a cycle on both sides; what
            # each search walked before stopping may differ.
            return
        assert reduced.expanded == reference.expanded
        assert reduced.memo == reference.memo
        assert set(reduced.illegitimate_terminals) == set(reference.illegitimate_terminals)
        assert set(reduced.nonterminal_legitimate) == set(reference.nonterminal_legitimate)
        # Every step the reduced search walks, the full one walks too.
        assert bool(reduced.aar_violations) == bool(reference.aar_violations)
        assert not Counter(reduced.aar_violations) - Counter(reference.aar_violations)


def _recursive_memo(g, d_cap):
    """Test-side reference for the explorer's memo that shares no code with
    ``explore_from``: a memoised recursion over ``_mask_successors`` from
    every enumerated start. Returns each reachable configuration's longest
    execution and the steps creating an alive abnormal root, one entry per
    step from each reachable configuration."""
    longest, violations, visiting = {}, [], set()

    def visit(config):
        if config not in longest:
            assert config not in visiting, "cycle"
            visiting.add(config)
            succs, bad = _mask_successors(g, config, connected_only=True)
            violations.extend(bad)
            longest[config] = max((visit(s) + 1 for s in succs), default=0)
            visiting.discard(config)
        return longest[config]

    for initial in enumerate_initial_configs(g, d_cap):
        visit(initial)
    return longest, violations


class TestMemoLayout:
    @pytest.mark.parametrize("mutant", [False, True], ids=["protocol", "ab_root mutant"])
    @pytest.mark.parametrize("edges,n,d_cap", REDUCED_INSTANCES, ids=REDUCED_IDS)
    def test_entries_match_recursive_reference(self, monkeypatch, edges, n, d_cap, mutant):
        # Each finished entry decodes, with this test's own shift and mask,
        # to the reference's longest execution and to the alive abnormal
        # roots read off the forest view.
        if mutant:
            monkeypatch.setattr(protocol, "ab_root", ab_root_without_distance)
        g = build_graph(edges, n, 0)
        ex = _Explorer(g, range(n), DEFAULT_MAX_VISITED)
        ex.explore(d_cap)
        assert ex.cycle_witness is None
        longest, violations = _recursive_memo(g, d_cap)
        assert {c: entry >> n for c, entry in ex.memo.items()} == longest
        assert {c: entry & ((1 << n) - 1) for c, entry in ex.memo.items()} == {
            c: sum(1 << u for u in alive_abnormal_roots(c, g)) for c in longest
        }
        assert Counter(ex.aar_violations) == Counter(violations)
        assert ex.max_steps == max(longest[c] for c in enumerate_initial_configs(g, d_cap))

    def test_top_alive_bit_sits_next_to_longest(self):
        # On the unit 4-path the highest-numbered node, 3, is an alive
        # abnormal root of configurations with a nonzero longest execution,
        # so bit 3 of the entry is set right below the longest's lowest bit.
        g = build_graph(UNIT_4PATH, 4, 0)
        ex = _Explorer(g, range(4), DEFAULT_MAX_VISITED)
        ex.explore(1)
        longest, _ = _recursive_memo(g, 1)
        top = [c for c, k in longest.items() if k > 0 and 3 in alive_abnormal_roots(c, g)]
        assert top
        assert all(ex.memo[c] >> 3 == longest[c] << 1 | 1 for c in top)


def _arbitrary_state(rng, g, v, d_cap=4):
    """Any status and distance; the parent is a neighbour or ``v`` itself
    half the time and any node otherwise, so some parents are
    non-neighbours, which ``random_configuration`` never draws."""
    if rng.random() < 0.5:
        par = rng.choice(sorted(g.adjacency[v]) + [v])
    else:
        par = rng.randrange(g.node_count)
    return ProcessState(rng.choice(list(Status)), par, rng.randint(0, d_cap))


def _tabulated_facts(config, g, u):
    return (
        protocol.enabled_rule(config, g, u),
        analysis.legitimate_state(config, g, u),
        analysis._alive_ab_root(config, g, u),
    )


def _facts_are_local() -> bool:
    """The premise of the explorer's tables, on random samples: redrawing
    every state outside N[u] changes none of the facts tabled for u.
    Asserts that the samples include parents that are neither neighbours
    nor the process itself."""
    rng = random.Random(2017)
    far_parents = 0  # samples where u points at a non-neighbour other than itself
    for seed in range(80):
        n = rng.randint(2, 6)
        g = generate_random_graph(
            seed, n, rng.choice((0.3, 0.5, 0.8)), 3,
            component_hint=rng.choice((1, 2)), root_id=rng.randrange(n),
        )
        for _ in range(10):
            config = tuple(
                ROOT_STATE if v == g.root_id else _arbitrary_state(rng, g, v) for v in range(n)
            )
            for u in range(n):
                if u == g.root_id:
                    continue
                hood = {u, *g.adjacency[u]}
                far_parents += config[u].par not in hood
                facts = _tabulated_facts(config, g, u)
                for _ in range(3):
                    redrawn = tuple(
                        state if v in hood else _arbitrary_state(rng, g, v)
                        for v, state in enumerate(config)
                    )
                    if _tabulated_facts(redrawn, g, u) != facts:
                        return False
    assert far_parents > 100
    return True


class TestLocalViews:
    def test_facts_depend_only_on_the_closed_neighbourhood(self):
        assert _facts_are_local()

    def test_premise_check_catches_a_far_parent_read(self, monkeypatch):
        monkeypatch.setattr(protocol, "ab_root", ab_root_far_parent)
        assert not _facts_are_local()

    @pytest.mark.parametrize(
        "edges,n",
        [(UNIT_4PATH, 4), (STAR4, 4), ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3), (SPLIT4, 4)],
        ids=["unit 4-path", "4-star", "triangle", "4-node 2 components"],
    )
    def test_far_parent_read_leaves_certification_unchanged(self, monkeypatch, edges, n):
        # Every enumerated parent is a neighbour or the process itself, and
        # no action writes any other, so the mutant's branch never runs.
        g = build_graph(edges, n, 0)
        expected = certify_instance(g, 1)
        monkeypatch.setattr(protocol, "ab_root", ab_root_far_parent)
        assert certify_instance(g, 1) == expected

    @pytest.mark.parametrize(
        "edges,n,nodes,tabled",
        [
            ([(0, 1, 1), (0, 2, 1), (0, 3, 1)], 4, [0, 1, 2, 3], [1, 2, 3]),  # 4-star
            (UNIT_4PATH, 4, [0, 1, 2, 3], [1, 3]),
            ([(0, 1, 1), (1, 2, 2)], 3, [0, 1, 2], []),  # 3-path rooted at an end
            ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3, [0, 1, 2], []),  # triangle
            ([(0, 1, 1), (2, 3, 2)], 4, [0, 1], []),  # 4-node 2 components
            ([(0, 1, 1), (2, 3, 2)], 4, [0, 2, 3], []),
            ([(0, 1, 1), (1, 2, 1)], 4, [0, 1, 2], []),  # 3-path and isolated node
            ([(0, 1, 1), (1, 2, 1)], 4, [0, 3], []),
        ],
    )
    def test_tables_only_where_a_view_can_repeat(self, edges, n, nodes, tabled):
        # A process is tabled iff some non-root node of its factor lies
        # outside N[u]; otherwise its view is the whole configuration.
        ex = _Explorer(build_graph(edges, n, 0), nodes, 1)
        assert [ex.nodes[u] for u, _, table in ex._processes if table is not None] == tabled


class TestConfigurationKeys:
    def test_copies_hash_equal_and_hit_the_memo(self, triangle):
        config = mk_config(triangle, n1=(Status.C, 2, 9), n2=(Status.EB, 1, 9))
        ex = _explore(triangle, config)
        for twin in (copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
            assert twin == config
            assert hash(twin) == hash(config)
            assert twin[2].status is Status.EB
            assert ex.memo[twin] == ex.memo[config]


class TestEnumerate:
    def test_count_single_edge(self, edge):
        # 4 statuses x 2 parents x (d_cap + 1) distances
        configs = list(enumerate_initial_configs(edge, 2))
        assert len(configs) == 4 * 2 * 3
        assert len(set(configs)) == len(configs)
        assert all(c[0].d == 0 for c in configs)

    def test_count_two_free_nodes(self, path3):
        # node 1: 4 statuses x 3 parents x 2 distances; node 2: 4 x 2 x 2
        assert sum(1 for _ in enumerate_initial_configs(path3, 1)) == 24 * 16

    def test_bad_cap(self, edge):
        with pytest.raises(ValueError, match=r"^d_cap must be >= 1, got 0$"):
            list(enumerate_initial_configs(edge, 0))

    @pytest.mark.parametrize("d_cap", [1, 2])
    @pytest.mark.parametrize(
        "edges,n,root",
        [
            ([(0, 1, 1)], 2, 0),
            ([(0, 1, 1), (1, 2, 2)], 3, 1),  # the 3-path rooted in the middle
            ([(0, 1, 1), (2, 3, 2)], 4, 0),  # 4 nodes in two components
        ],
        ids=["2-node", "3-path rooted in the middle", "4-node 2 components"],
    )
    def test_matches_per_configuration_fill(self, edges, n, root, d_cap):
        g = build_graph(edges, n, root)
        configs = list(enumerate_initial_configs(g, d_cap))
        assert configs == list(initial_configs_by_fill(g, d_cap))
        assert all(type(c) is tuple and c[root] is ROOT_STATE for c in configs)


class TestCertify:
    def test_single_edge_instance(self, edge):
        result = certify_instance(edge, 3)
        assert result.passed
        assert result.initial_configs == 4 * 2 * 4
        assert result.max_steps_any_path <= result.step_limit
        assert not result.violations

    def test_weighted_edge_instance(self):
        g = build_graph([(0, 1, 2)], 2, 0)
        result = certify_instance(g, 4)
        assert result.passed

    def test_disconnected_instance(self, two_comp):
        result = certify_instance(two_comp, 2)
        assert result.passed

    @pytest.mark.parametrize("edges,n", [([], 1), ([(0, 1, 1)], 2)], ids=["1-node", "2-node"])
    @pytest.mark.parametrize("d_cap", [0, -1])
    def test_bad_cap_refused_on_every_graph(self, edges, n, d_cap):
        # The 1-node graph's one factor is the root alone: it enumerates,
        # so the cap is refused there too, with the same message.
        with pytest.raises(ValueError, match=rf"^d_cap must be >= 1, got {d_cap}$"):
            certify_instance(build_graph(edges, n, 0), d_cap)

    def test_budget_carries_partial_result(self, triangle):
        partial = certify_instance(triangle, 4, max_visited=50)
        assert partial.verdict == "INCONCLUSIVE"
        assert partial.violations == ["visited more than 50 configurations"]


def _monolithic(g, d_cap):
    """Explore the whole product configuration graph as one: the reference
    that certification by connected component must reproduce."""
    ex = _Explorer(g, range(g.node_count), DEFAULT_MAX_VISITED)  # induced_subgraph returns g itself
    count = max_path = 0
    for initial in enumerate_initial_configs(g, d_cap):
        count += 1
        steps = ex.explore_from(initial)
        assert ex.cycle_witness is None
        max_path = max(max_path, steps)
    bad = (
        ex.illegitimate_terminals
        or ex.nonterminal_legitimate
        or ex.aar_violations
        or max_path > step_bound_for(g)
    )
    return "FAIL" if bad else "PASS", count, len(ex.memo), max_path


def _relabelled(edges, n, rng):
    perm = rng.sample(range(n), n)
    return build_graph([(perm[u], perm[v], w) for u, v, w in edges], n, perm[0])


class TestByComponent:
    @pytest.mark.parametrize(
        "edges,n,d_cap",
        [
            ([(0, 1, 1), (2, 3, 2)], 4, 1),  # 4-node 2 components
            ([(0, 1, 1), (1, 2, 1)], 4, 1),  # 3-path beside an isolated node
            ([(1, 2, 1)], 3, 2),  # the root alone plus an edge
            ([], 3, 2),  # the root alone plus 2 isolated nodes
        ],
    )
    def test_matches_monolithic_exploration(self, edges, n, d_cap):
        rng = random.Random(n * 100 + d_cap)
        for _ in range(3):
            g = _relabelled(edges, n, rng)
            result = certify_instance(g, d_cap)
            got = (result.verdict, result.initial_configs, result.reachable_count, result.max_steps_any_path)
            assert got == _monolithic(g, d_cap)

    def test_budget_applies_per_factor(self):
        # Factors {0,1} (16 reachable) and {0,2,3} (312 reachable) at d_cap 1.
        g = build_graph([(0, 1, 1), (2, 3, 2)], 4, 0)
        result = certify_instance(g, 1, max_visited=312)
        assert result.passed
        assert result.reachable_count == 16 * 312 > 312
        partial = certify_instance(g, 1, max_visited=100)
        assert partial.verdict == "INCONCLUSIVE"
        # The finished factor times the interrupted one, capped at 100.
        assert partial.reachable_count == 16 * 100
        assert partial.initial_configs == 16 * 65

    def test_cycle_witness_is_lifted_to_whole_graph(self, monkeypatch):
        # A mutant whose moves leave the state unchanged loops at once.
        real = protocol.enabled_rule

        def idle_move(config, g, u):
            move = real(config, g, u)
            return None if move is None else move._replace(state=config[u])

        monkeypatch.setattr(protocol, "enabled_rule", idle_move)
        g = build_graph([(2, 3, 2)], 4, 1)  # factors {0, 1}, {1} and {1, 2, 3}
        result = certify_instance(g, 1)
        assert result.verdict == "FAIL"
        assert result.witness is not None
        assert result.violations[0] == "cycle in configuration graph (silence violated)"
        # Node 0 loops on its first enabled start; nodes 2 and 3 stay at
        # their factor's first enumerated configuration (parent ids mapped back).
        looping = (
            ProcessState(Status.C, 0, 0),
            ROOT_STATE,
            ProcessState(Status.I, 3, 0),
            ProcessState(Status.I, 2, 0),
        )
        assert result.witness == [looping, looping]
