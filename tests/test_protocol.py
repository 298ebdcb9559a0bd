import dis
import importlib
import inspect
import pkgutil
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import stabtree
from stabtree import protocol
from stabtree.explorer import enumerate_initial_configs
from stabtree.graph import build_graph, generate_random_graph
from stabtree.protocol import (
    ROOT_STATE,
    Move,
    ProcessState,
    RootQueriedError,
    Rule,
    Status,
    ab_root,
    enabled_rule,
)

from conftest import children, eb_before_c, mk_config, reference_move, reference_rules, reversed_tie_break


@pytest.fixture
def chain():
    """r(0) - u(1) - v(2) with weights 1 and 2."""
    return build_graph([(0, 1, 1), (1, 2, 2)], 3, 0)


class TestChildren:
    def test_isolated_has_no_children(self, chain):
        config = mk_config(chain, n1=(Status.I, 0, 1), n2=(Status.C, 1, 3))
        assert children(config, chain, 1) == frozenset()

    def test_coherent_child(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 3))
        assert children(config, chain, 1) == {2}

    def test_eb_parent_admits_differing_status(self, chain):
        config = mk_config(chain, n1=(Status.EB, 0, 1), n2=(Status.EF, 1, 3))
        assert children(config, chain, 1) == {2}

    def test_distance_too_small_excludes(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert children(config, chain, 1) == frozenset()


class TestAbRoot:
    def test_isolated_never_abnormal(self, chain):
        config = mk_config(chain, n1=(Status.I, 1, 5))
        assert not ab_root(config, chain, 1)

    def test_non_neighbor_parent(self, chain):
        config = mk_config(chain, n2=(Status.C, 2, 1))  # parent is itself
        assert ab_root(config, chain, 2)

    def test_distance_below_parent_plus_weight(self, chain):
        # d=1 < d_r + w(1,0) = 0 + 1? No: use node 2 with weight 2.
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert ab_root(config, chain, 2)  # 2 < 1 + 2

    def test_coherent_child_not_abnormal(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 3))
        assert not ab_root(config, chain, 2)

    def test_status_incoherence(self, chain):
        config = mk_config(chain, n1=(Status.EF, 0, 1), n2=(Status.C, 1, 3))
        assert ab_root(config, chain, 2)  # parent EF, child C, parent not EB

    def test_root_query_rejected(self, chain):
        config = mk_config(chain)
        with pytest.raises(RootQueriedError):
            ab_root(config, chain, 0)


class TestPredicates:
    def test_p_correction_arithmetic(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 5))
        # 1 + 2 < 5
        assert enabled_rule(config, chain, 2) == Move(Rule.R_C, ProcessState(Status.C, 1, 3))

    def test_p_correction_requires_status_c(self, chain):
        config = mk_config(chain, n1=(Status.EB, 0, 0), n2=(Status.C, 1, 3))
        # 0 + 2 < 3, but node 1 is not correct: no R_C; its EB spreads instead.
        assert enabled_rule(config, chain, 2) == Move(Rule.R_EB, ProcessState(Status.EB, 1, 3))


class TestComputePath:
    """The state ``R_R`` and ``R_C`` write: the cheapest correct neighbour."""

    def test_tie_broken_to_smallest_id(self):
        # v1=node1 (d=2, w=3) and v2=node2 (d=4, w=1) both sum to 5.
        g = build_graph([(0, 1, 1), (1, 3, 3), (2, 3, 1), (0, 2, 1)], 4, 0)
        config = mk_config(g, n1=(Status.C, 0, 2), n2=(Status.C, 0, 4), n3=(Status.I, 3, 0))
        assert enabled_rule(config, g, 3) == Move(Rule.R_R, ProcessState(Status.C, 1, 5))

    def test_strict_minimum(self):
        g = build_graph([(0, 1, 1), (1, 3, 1), (2, 3, 1), (0, 2, 1)], 4, 0)
        config = mk_config(g, n1=(Status.C, 0, 2), n2=(Status.C, 0, 4), n3=(Status.I, 3, 0))
        assert enabled_rule(config, g, 3) == Move(Rule.R_R, ProcessState(Status.C, 1, 3))

    def test_only_correct_neighbors_are_candidates(self):
        g = build_graph([(0, 1, 1), (1, 3, 1), (2, 3, 2), (0, 2, 1)], 4, 0)
        config = mk_config(g, n1=(Status.EB, 0, 0), n2=(Status.C, 0, 7), n3=(Status.I, 3, 0))
        assert enabled_rule(config, g, 3) == Move(Rule.R_R, ProcessState(Status.C, 2, 9))

    def test_no_candidate_no_move(self, chain):
        # No correct neighbour: an isolated process has nothing to join.
        config = mk_config(chain, n1=(Status.I, 1, 0), n2=(Status.I, 2, 0))
        assert enabled_rule(config, chain, 2) is None

    def test_result_exceeds_parent_distance(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.I, 2, 0))
        new = enabled_rule(config, chain, 2).state
        assert new.d > config[new.par].d


class TestEnabledRule:
    def test_isolated_with_correct_neighbor_rejoins(self, chain):
        config = mk_config(chain, n1=(Status.I, 1, 0))
        assert enabled_rule(config, chain, 1).rule is Rule.R_R

    def test_eb_with_no_children_feeds_back(self, chain):
        config = mk_config(chain, n1=(Status.EB, 0, 1), n2=(Status.I, 2, 0))
        assert enabled_rule(config, chain, 1) == Move(Rule.R_EF, ProcessState(Status.EF, 0, 1))

    def test_abnormal_root_without_correction_broadcasts(self, chain):
        # node 2: d=2 < d_1 + w = 3, and no cheaper correct neighbor
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert enabled_rule(config, chain, 2).rule is Rule.R_EB

    def test_root_rejected(self, chain):
        with pytest.raises(RootQueriedError):
            enabled_rule(mk_config(chain), chain, 0)


class TestEnumIdentity:
    def test_identity_hash_keeps_enum_semantics(self):
        # Members hash by identity; lookup by value, str() and .value are
        # those of a plain Enum.
        assert Status("C") is Status.C
        assert Rule("R_EF") is Rule.R_EF
        assert [str(s) for s in Status] == [s.value for s in Status] == ["I", "C", "EB", "EF"]
        assert str(Rule.R_R) == Rule.R_R.value == "R_R"
        assert hash(Rule.R_C) == object.__hash__(Rule.R_C)
        assert hash(Status.EB) == object.__hash__(Status.EB)


_MEMBER_NAMES = set(Status.__members__) | set(Rule.__members__)


def _package_functions():
    """Every function and method defined in a ``stabtree`` module, with the
    originals behind ``functools.wraps`` decorators."""
    def walk(namespace, module):
        for value in vars(namespace).values():
            value = getattr(value, "__func__", value)  # staticmethod, classmethod
            if isinstance(value, property):
                yield from filter(None, (value.fget, value.fset, value.fdel))
            elif inspect.isclass(value) and value.__module__ == module and value is not namespace:
                yield from walk(value, module)
            elif inspect.isfunction(value) and value.__module__ == module:
                while value is not None:
                    yield value
                    value = getattr(value, "__wrapped__", None)

    for info in pkgutil.walk_packages(stabtree.__path__, "stabtree."):
        module = importlib.import_module(info.name)
        yield from walk(module, module.__name__)


def _member_lookups(code):
    """``Status.X``/``Rule.X`` lookups through the class in ``code`` and the
    code objects nested in it (comprehensions, closures), as
    ``(function name, "Status.X")`` pairs."""
    found = []
    stack = [code]
    while stack:
        co = stack.pop()
        owner = None
        for ins in dis.get_instructions(co):
            if owner and ins.opname == "LOAD_ATTR" and ins.argval in _MEMBER_NAMES:
                found.append((co.co_name, f"{owner}.{ins.argval}"))
            loads_class = ins.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR")
            owner = ins.argval if loads_class and ins.argval in ("Status", "Rule") else None
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return found


class TestMemberConstants:
    """Function bodies read the module constants ``S_*``/``R_*``: on
    Python 3.11 an enum class-attribute lookup costs several global reads,
    and the guards make one or more per neighbour."""

    def test_constants_are_the_members(self):
        assert [protocol.S_I, protocol.S_C, protocol.S_EB, protocol.S_EF] == list(Status)
        assert [protocol.R_C, protocol.R_EB, protocol.R_EF, protocol.R_I, protocol.R_R] == list(Rule)

    def test_detector_sees_a_lookup(self):
        def probe(config):
            # Before Python 3.12 the comprehension is a nested code object.
            return [s for s in config if s.status is Status.C or s is Rule.R_R]

        lookups = [lookup for _, lookup in _member_lookups(probe.__code__)]
        assert sorted(lookups) == ["Rule.R_R", "Status.C"]

    def test_no_member_lookup_through_the_class(self):
        functions = list(_package_functions())
        code_names = {f.__code__.co_name for f in functions}
        assert {"enabled_rule", "select", "check_trace", "cached", "component_info"} <= code_names
        lookups = [
            (f.__module__, f.__qualname__, where, lookup)
            for f in functions
            for where, lookup in _member_lookups(f.__code__)
        ]
        assert lookups == []


class TestApplyRule:
    """The state each move writes."""

    def test_eb_only_writes_status(self, chain):
        config = mk_config(chain, n1=(Status.C, 0, 1), n2=(Status.C, 1, 2))
        assert enabled_rule(config, chain, 2) == Move(Rule.R_EB, ProcessState(Status.EB, 1, 2))

    def test_isolate_only_writes_status(self, chain):
        config = mk_config(chain, n1=(Status.I, 1, 0), n2=(Status.EF, 2, 9))
        assert enabled_rule(config, chain, 2) == Move(Rule.R_I, ProcessState(Status.I, 2, 9))

    def test_rejoin_runs_compute_path(self):
        g = build_graph([(0, 1, 4)], 2, 0)
        config = mk_config(g, n1=(Status.I, 1, 0))
        assert enabled_rule(config, g, 1) == Move(Rule.R_R, ProcessState(Status.C, 0, 4))


AGREEMENT_INSTANCES = [
    ([(0, 1, 2)], 2, 4),
    ([(0, 1, 1), (1, 2, 2)], 3, 2),
    ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3, 2),
    ([(0, 1, 1), (1, 2, 2), (1, 3, 1)], 4, 2),  # non-root centre 1
]


def _disagreements(edges, n, d_cap):
    """Every (configuration, process) of the instance where
    ``protocol.enabled_rule``, looked up at call time so that a
    monkeypatched mutant is the one tested, differs from the reference
    move: in the rule, or in the state it writes."""
    g = build_graph(edges, n, 0)
    return [
        (config, u)
        for config in enumerate_initial_configs(g, d_cap)
        for u in range(1, n)
        if reference_move(config, g, u) != protocol.enabled_rule(config, g, u)
    ]


@pytest.mark.parametrize(
    "edges,n,d_cap", AGREEMENT_INSTANCES, ids=["2-node", "3-path", "triangle", "4-node"]
)
def test_guard_agreement_exhaustive(edges, n, d_cap):
    # Every enumerated configuration: both outcomes of each `<` and `>=`
    # against d + w occur, exactly the dispatched rule's guard holds, and
    # the move writes the state of the paper's action.
    assert _disagreements(edges, n, d_cap) == []


def test_action_agreement_catches_reversed_tie_break(monkeypatch):
    # The mutant fires the same rules everywhere, so guard agreement alone
    # passes it; only the written state tells it apart.
    monkeypatch.setattr(protocol, "enabled_rule", reversed_tie_break)
    edges, n, d_cap = AGREEMENT_INSTANCES[2]  # the triangle: 2 can tie 0 and 1 at w 2
    g = build_graph(edges, n, 0)
    caught = _disagreements(edges, n, d_cap)
    assert caught
    for config, u in caught:
        assert reference_rules(config, g, u) == {protocol.enabled_rule(config, g, u).rule}


def test_guard_agreement_catches_eb_before_c(monkeypatch):
    # The run-side checks and certification pass this mutant; only the
    # reference guards tell it apart, and only where R_C should fire.
    monkeypatch.setattr(protocol, "enabled_rule", eb_before_c)
    edges, n, d_cap = AGREEMENT_INSTANCES[0]  # 1 at C, parent not a neighbour, d > 2
    g = build_graph(edges, n, 0)
    caught = _disagreements(edges, n, d_cap)
    assert caught
    for config, u in caught:
        assert reference_rules(config, g, u) == {Rule.R_C}
        assert protocol.enabled_rule(config, g, u).rule is Rule.R_EB


@pytest.mark.parametrize("index", [1, 2], ids=["3-path", "triangle"])
def test_guard_agreement_catches_eb_before_c_at_an_abnormal_root(monkeypatch, index):
    # On the 3-path and the triangle at d_cap 2 the exhaustive loop finds a
    # status-C abnormal root with a strictly cheaper correct neighbour that
    # broadcasts instead of correcting.
    monkeypatch.setattr(protocol, "enabled_rule", eb_before_c)
    edges, n, d_cap = AGREEMENT_INSTANCES[index]
    g = build_graph(edges, n, 0)
    caught = _disagreements(edges, n, d_cap)
    assert any(ab_root(config, g, u) for config, u in caught)
    for config, u in caught:
        assert reference_rules(config, g, u) == {Rule.R_C}
        assert protocol.enabled_rule(config, g, u).rule is Rule.R_EB


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_guard_exclusivity_and_dispatch_agree(data):
    seed = data.draw(hs.integers(0, 10_000))
    n = data.draw(hs.integers(2, 5))
    g = generate_random_graph(seed, n, 0.7, 3)
    states = [ROOT_STATE]
    for u in range(1, n):
        states.append(
            ProcessState(
                data.draw(hs.sampled_from(list(Status))),
                data.draw(hs.sampled_from(sorted(g.adjacency[u]) + [u])),
                data.draw(hs.integers(0, 8)),
            )
        )
    config = tuple(states)
    for u in range(1, n):
        assert reference_move(config, g, u) == enabled_rule(config, g, u)


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_correct_node_with_wrong_distance_is_enabled(data):
    # A status-C node whose distance disagrees with its parent can always move.
    seed = data.draw(hs.integers(0, 10_000))
    n = data.draw(hs.integers(2, 5))
    g = generate_random_graph(seed, n, 0.8, 3)
    states = [ROOT_STATE]
    for u in range(1, n):
        states.append(
            ProcessState(
                data.draw(hs.sampled_from(list(Status))),
                data.draw(hs.sampled_from(sorted(g.adjacency[u]) + [u])),
                data.draw(hs.integers(0, 8)),
            )
        )
    config = tuple(states)
    for u in range(1, n):
        st, par, d = config[u]
        if st is not Status.C:
            continue
        inconsistent = par not in g.adjacency[u] or d != config[par].d + g.adjacency[u][par]
        if inconsistent:
            assert enabled_rule(config, g, u) is not None


class TestPackageNamespace:
    def test_star_import_exports_no_module(self):
        # ``from stabtree import *`` must not rebind a caller's ``graph``
        # (or any other submodule's name).
        assert not [name for name in stabtree.__all__ if inspect.ismodule(getattr(stabtree, name))]
        namespace = {"graph": "caller's"}
        exec("from stabtree import *", namespace)
        assert namespace["graph"] == "caller's"
        assert {"legitimate_config", "run", "certify_instance", "build_graph"} <= set(stabtree.__all__)
        assert stabtree.graph is importlib.import_module("stabtree.graph")
