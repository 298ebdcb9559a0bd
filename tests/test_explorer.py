import pytest

from stabtree.analysis import step_bound_for
from stabtree.engine import normal_initial_configuration, run
from stabtree.daemon import SynchronousDaemon
from stabtree.explorer import (
    BudgetExceededError,
    ExplorationLimits,
    ExplorerError,
    certify_instance,
    enumerate_initial_configs,
    explore,
)
from stabtree.graph import build_graph
from stabtree.protocol import Status

from conftest import mk_config


@pytest.fixture
def edge():
    """Single edge r(0) - a(1), unit weight."""
    return build_graph([(0, 1, 1)], 2, 0)


class TestExplore:
    def test_normal_start_on_edge(self, edge):
        result = explore(edge, normal_initial_configuration(edge))
        assert result.reachable_count == 2
        assert result.max_steps_any_path == 1
        assert not result.cycle_found
        assert result.all_terminals_legitimate
        assert result.legitimate_implies_terminal
        assert len(result.terminal_configs) == 1

    def test_already_terminal(self, edge):
        config = mk_config(edge, n1=(Status.C, 0, 1))
        result = explore(edge, config)
        assert result.reachable_count == 1
        assert result.max_steps_any_path == 0
        assert result.terminal_configs == {config}

    def test_chain_with_weight_two(self):
        g = build_graph([(0, 1, 2)], 2, 0)
        config = mk_config(g, n1=(Status.C, 0, 1))
        result = explore(g, config)
        assert result.reachable_count == 4  # freeze, acknowledge, rejoin
        assert result.max_steps_any_path == 3
        assert result.max_steps_any_path <= step_bound_for(g)

    def test_adversarial_triangle_within_bound(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3, 0)
        config = mk_config(g, n1=(Status.C, 2, 5), n2=(Status.C, 1, 5))
        result = explore(g, config)
        assert not result.cycle_found
        assert not result.aar_violations
        assert result.max_steps_any_path <= step_bound_for(g) == 30

    def test_longest_path_at_least_any_run(self, triangle):
        config = mk_config(triangle, n1=(Status.C, 2, 9), n2=(Status.C, 1, 9))
        trace = run(config, triangle, SynchronousDaemon())
        result = explore(triangle, config)
        assert result.max_steps_any_path >= trace.step_count

    def test_visited_budget(self, triangle):
        config = mk_config(triangle, n1=(Status.C, 2, 9), n2=(Status.C, 1, 9))
        with pytest.raises(BudgetExceededError) as exc_info:
            explore(triangle, config, ExplorationLimits(max_visited=1))
        assert exc_info.value.partial is not None
        assert exc_info.value.partial.reachable_count <= 2


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
        with pytest.raises(ExplorerError):
            list(enumerate_initial_configs(edge, 0))


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

    def test_budget_carries_partial_result(self, triangle):
        with pytest.raises(BudgetExceededError) as exc_info:
            certify_instance(triangle, 4, ExplorationLimits(max_visited=50))
        partial = exc_info.value.partial
        assert partial.verdict == "INCONCLUSIVE"
        assert partial.violations
