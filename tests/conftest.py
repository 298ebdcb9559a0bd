import itertools
import json
import re
from bisect import bisect_right
from dataclasses import dataclass

import pytest

from stabtree import protocol
from stabtree.analysis import TraceWalk, _alive_ab_root, _local_facts, legitimate_state
from stabtree.engine import check_trace, run
from stabtree.graph import INFINITY, build_graph, component_info, root_distances, root_hop_distances
from stabtree.protocol import ROOT_STATE, Move, ProcessState, Rule, Status, ab_root, enabled_rule


@pytest.fixture
def path3():
    """r(0) - a(1) - b(2), unit weights."""
    return build_graph([(0, 1, 1), (1, 2, 1)], 3, 0)


@pytest.fixture
def triangle():
    """r(0), a(1), b(2) with weights r-a=2, a-b=3, b-r=1."""
    return build_graph([(0, 1, 2), (1, 2, 3), (2, 0, 1)], 3, 0)


@pytest.fixture
def two_comp():
    """Components {r} and {a(1), b(2)} with a-b=1."""
    return build_graph([(1, 2, 1)], 3, 0)


def mk_config(g, **overrides):
    """Configuration builder: mk_config(g, n1=(Status.C, 0, 1), ...).

    Unspecified non-root nodes default to isolated (par self, d 0).
    """
    states = []
    for u in range(g.node_count):
        if u == g.root_id:
            states.append(ROOT_STATE)
        elif f"n{u}" in overrides:
            status, par, d = overrides[f"n{u}"]
            states.append(ProcessState(status, par, d))
        else:
            states.append(ProcessState(Status.I, u, 0))
    return tuple(states)


def spanning_tree_holds(config, g) -> bool:
    """Test-side reference for the shortest-path spanning tree: walk the
    parent chains that ``analysis.legitimate_config``'s per-process clauses
    imply, independently of those clauses."""
    # Parent edges over the root's component must chain every node to the
    # root with total weight equal to its true distance. Chain weights are
    # memoised, so every parent edge is walked once.
    distances = root_distances(g)
    chain = {g.root_id: 0}
    for u in range(g.node_count):
        if distances[u] == INFINITY:
            continue
        path: list[int] = []
        onpath: set[int] = set()
        v = u
        while v not in chain:
            if v in onpath:
                return False  # the parent pointers close a cycle
            par = config[v].par
            if par not in g.adjacency[v]:
                return False
            path.append(v)
            onpath.add(v)
            v = par
        weight = chain[v]
        for v in reversed(path):
            weight += g.adjacency[v][config[v].par]
            chain[v] = weight
        if chain[u] != distances[u]:
            return False
    return True


def reference_correction(config, g, u) -> bool:
    """The paper's ``P_correction(u)``: some correct neighbour offers a
    strictly smaller distance than ``u``'s."""
    du = config[u].d
    for v, w in g.adjacency[u].items():
        sv, _, dv = config[v]
        if sv is Status.C and dv + w < du:
            return True
    return False


def reference_path(config, g, u) -> ProcessState:
    """The paper's ``compute_path(u)``: adopt the correct neighbour
    minimising the resulting distance, ties to the smallest id. ``u`` must
    have a correct neighbour."""
    best = None
    for v, w in g.adjacency[u].items():
        sv, _, dv = config[v]
        if sv is Status.C:
            cand = (dv + w, v)
            if best is None or cand < best:
                best = cand
    assert best is not None, f"compute_path({u}) without a correct neighbour"
    d, v = best
    return ProcessState(Status.C, v, d)


def children(config, g, u) -> frozenset[int]:
    """The paper's child relation: neighbours ``v`` of ``u``, neither in
    status I, with ``par_v == u``, ``d_v >= d_u + w`` and ``v``'s status
    equal to ``u``'s, or ``u`` in status EB."""
    su, _, du = config[u]
    if su is Status.I:
        return frozenset()
    out = set()
    for v, w in g.adjacency[u].items():
        sv, pv, dv = config[v]
        if sv is not Status.I and pv == u and dv >= du + w and (sv is su or su is Status.EB):
            out.add(v)
    return frozenset(out)


def readers_by_rule(config, g, u, move):
    """Test-side reference for ``protocol.readers``, by the fired rule
    alone: every neighbour after ``R_C``, ``R_R`` and ``R_EB``, which
    change ``u``'s offer; after ``R_EF`` and ``R_I``, which keep ``par``
    and ``d``, only the neighbours whose parent is ``u`` and, after
    ``R_EF``, ``par_u``. It reads only the neighbours' states, so it gives
    the same set whether ``config[u]`` holds ``u``'s old or new state.
    ``protocol.readers`` must name a subset of it."""
    rule, state = move
    if rule is Rule.R_EF or rule is Rule.R_I:
        par = state.par if rule is Rule.R_EF else None
        return [v for v in g.adjacency[u] if v == par or config[v].par == u]
    return list(g.adjacency[u])


#: One letter per rule, and the rule pattern every (node, segment) word of
#: fired rules must match: at most one isolate, one rejoin, any number of
#: corrections, one freeze broadcast and one freeze acknowledgement, in
#: that order.
RULE_LETTER = {Rule.R_I: "I", Rule.R_R: "R", Rule.R_C: "C", Rule.R_EB: "B", Rule.R_EF: "F"}
SEGMENT_RE = re.compile(r"I?R?C*B?F?")
#: The same order as ranks, for the references that keep one pair per node.
RANK = {Rule.R_I: 0, Rule.R_R: 1, Rule.R_C: 2, Rule.R_EB: 3, Rule.R_EF: 4}


def ab_root_without_distance(config, g, u):
    """A faulty ``protocol.ab_root`` without the ``d_u < d_par + w`` clause:
    a node whose distance is too small for its parent is not flagged, so
    parent pointers can close a cycle."""
    su, pu, du = config[u]
    if su is Status.I:
        return False
    adj = g.adjacency[u]
    if pu not in adj or config[pu].status is Status.I:
        return True
    return su is not config[pu].status and config[pu].status is not Status.EB


def ab_root_far_parent(config, g, u):
    """A faulty ``protocol.ab_root`` that reads outside N[u]: when ``u``'s
    parent is neither a neighbour nor ``u`` itself, ``u`` is an abnormal
    root iff that far parent is not in status C. The local-view tables'
    premise fails under it; certification does not change, since every
    enumerated parent is a neighbour or the process itself and no action
    writes any other."""
    pu = config[u].par
    if pu != u and pu not in g.adjacency[u]:
        return config[pu].status is not Status.C
    return ab_root(config, g, u)


def eb_before_c(config, g, u):
    """A faulty ``protocol.enabled_rule`` that checks ``R_EB``'s guard
    before ``R_C``'s: a status-C abnormal root, or a C process with an EB
    parent, broadcasts the freeze even when a correct neighbour offers a
    strictly smaller distance. Wraps the real ``enabled_rule``."""
    su, pu, du = config[u]
    adj = g.adjacency[u]
    if su is Status.C and (ab_root(config, g, u) or (pu in adj and config[pu].status is Status.EB)):
        return Move(Rule.R_EB, ProcessState(Status.EB, pu, du))
    return enabled_rule(config, g, u)


def restless_enabled_rule(config, g, u):
    """A faulty ``protocol.enabled_rule``: a status-C process with no move
    fires ``R_EB`` all the same, so a legitimate configuration is not
    terminal and a freeze can loop back through a rejoin. Wraps the real
    ``enabled_rule``."""
    move = enabled_rule(config, g, u)
    if move is None and config[u].status is Status.C:
        _, pu, du = config[u]
        return Move(Rule.R_EB, ProcessState(Status.EB, pu, du))
    return move


def never_ef(config, g, u):
    """A faulty ``protocol.enabled_rule`` whose EB processes never
    acknowledge the freeze. Wraps the real ``enabled_rule``."""
    move = enabled_rule(config, g, u)
    return None if move is not None and move.rule is Rule.R_EF else move


def reversed_tie_break(config, g, u):
    """A faulty ``protocol.enabled_rule``: among correct neighbours with
    equal ``d_v + w``, adopt the largest id instead of the smallest. Wraps
    the real ``enabled_rule``."""
    move = enabled_rule(config, g, u)
    if move is None or move.state.status is not Status.C:
        return move
    tied = [
        v
        for v, w in g.adjacency[u].items()
        if config[v].status is Status.C and config[v].d + w == move.state.d
    ]
    return move._replace(state=move.state._replace(par=max(tied)))


#: The committed mutants whose guards and ``ab_root`` read only N[u]: the
#: engine's argument for re-evaluating only the guards that read a changed
#: field must hold under each. ``ab_root_far_parent`` is left out: it reads
#: the state of a parent that is not a neighbour, which no rule based on
#: the fired processes' neighbourhoods can follow. The lowered step bound
#: changes no guard.
NEIGHBOURHOOD_MUTANTS = {
    "protocol": None,
    "ab_root_without_distance": ("ab_root", ab_root_without_distance),
    "restless": ("enabled_rule", restless_enabled_rule),
    "never_ef": ("enabled_rule", never_ef),
    "eb_before_c": ("enabled_rule", eb_before_c),
    "reversed_tie_break": ("enabled_rule", reversed_tie_break),
}


def use_mutant(monkeypatch, mutant):
    """Patch ``protocol`` with the ``NEIGHBOURHOOD_MUTANTS`` entry named
    ``mutant``; ``"protocol"`` leaves it as it is."""
    if NEIGHBOURHOOD_MUTANTS[mutant]:
        name, fn = NEIGHBOURHOOD_MUTANTS[mutant]
        monkeypatch.setattr(protocol, name, fn)


def initial_configs_by_fill(g, d_cap):
    """Test-side reference for ``explorer.enumerate_initial_configs``: the
    product over the non-root processes only, each combination written into
    a fresh state list with the root at ``ROOT_STATE``."""
    non_root = [u for u in range(g.node_count) if u != g.root_id]
    per_node = [
        [
            ProcessState(status, par, d)
            for status in Status
            for par in sorted(g.adjacency[u]) + [u]
            for d in range(d_cap + 1)
        ]
        for u in non_root
    ]
    for combo in itertools.product(*per_node):
        states = [ROOT_STATE] * g.node_count
        for u, state in zip(non_root, combo):
            states[u] = state
        yield tuple(states)


def reference_rules(config, g, u):
    """The rules whose guards hold at non-root ``u``: the paper's five
    guards, each evaluated on its own, as the reference that
    ``protocol.enabled_rule`` must agree with."""
    su, pu, _ = config[u]
    adj = g.adjacency[u]
    correction = reference_correction(config, g, u)
    reset = su is Status.EF and ab_root(config, g, u)
    has_c = any(config[v].status is Status.C for v in adj)
    guards = {
        Rule.R_C: su is Status.C and correction,
        Rule.R_EB: su is Status.C
        and not correction
        and (ab_root(config, g, u) or (pu in adj and config[pu].status is Status.EB)),
        Rule.R_EF: su is Status.EB
        and all(config[v].status is Status.EF for v in children(config, g, u)),
        Rule.R_I: reset and not has_c,
        Rule.R_R: (reset or su is Status.I) and has_c,
    }
    return {rule for rule, holds in guards.items() if holds}


def reference_move(config, g, u):
    """The move that ``protocol.enabled_rule`` must return at non-root
    ``u``: the rule whose guard holds (None if none does), and the state
    the paper's action for it writes. Shares no scan with the package."""
    rules = reference_rules(config, g, u)
    assert len(rules) <= 1, f"guards not exclusive at {u}: {rules}"
    if not rules:
        return None
    (rule,) = rules
    if rule is Rule.R_C or rule is Rule.R_R:
        return Move(rule, reference_path(config, g, u))
    _, pu, du = config[u]
    status = {Rule.R_EB: Status.EB, Rule.R_EF: Status.EF, Rule.R_I: Status.I}[rule]
    return Move(rule, ProcessState(status, pu, du))


@dataclass
class ForestView:
    abnormal_roots: dict[int, bool]  # node -> alive?
    illegal_membership: dict[int, bool]
    acyclic: bool  # False when parent pointers close a cycle


def forest_view(config, g) -> ForestView:
    """Test-side reference for the illegal branches that
    ``analysis.TraceWalk`` reads from local facts: every parent chain
    walked up to the root, an abnormal root or a cycle. Calls
    ``protocol.ab_root`` through the module, so a monkeypatched mutant
    reaches it."""
    root = g.root_id
    ab_roots: dict[int, bool] = {}
    for u in range(g.node_count):
        if u == root or config[u].status is Status.I:
            continue
        if protocol.ab_root(config, g, u):
            ab_roots[u] = config[u].status is not Status.EF
    illegal = {u: False for u in range(g.node_count)}
    resolved: set[int] = set()
    acyclic = True
    for u in range(g.node_count):
        if u != root and config[u].status is Status.I:
            continue
        # Walk up the parent chain to a resolved node, a branch root or a
        # node walked before; every walked node gets that node's verdict.
        walked: set[int] = set()
        v = u
        while v not in resolved:
            if v in walked:
                # A parent cycle needs a faulty protocol: under the real
                # ab_root, distances fall strictly up a branch. The cycle
                # heads an illegal branch.
                illegal[v] = True
                acyclic = False
                break
            walked.add(v)
            if v == root or v in ab_roots:
                illegal[v] = v != root
                break
            v = config[v].par
        for w in walked:
            illegal[w] = illegal[v]
        resolved |= walked
    return ForestView(abnormal_roots=ab_roots, illegal_membership=illegal, acyclic=acyclic)


def alive_abnormal_roots(config, g) -> frozenset[int]:
    """The alive abnormal roots of ``config``, read off ``forest_view``'s
    scan of every process."""
    return frozenset(u for u, alive in forest_view(config, g).abnormal_roots.items() if alive)


class _Once:
    """A daemon that selects ``selection`` at its one step."""

    def __init__(self, selection):
        self.selection = selection

    def select(self, config, g, enabled):
        return self.selection


def step(config, g, selection):
    """The configuration that one step of ``selection`` leads to from
    ``config``, taken by ``engine.run``'s step path; a terminal ``config``
    comes back unchanged."""
    return run(config, g, _Once(selection), max_steps=1).final


class Recorder:
    """A ``run`` consumer that keeps each step's fired moves and whether
    the step closed a round."""

    def __init__(self):
        self.steps = []
        self.closed = []

    def step(self, config, fired, round_closed):
        self.steps.append(fired)
        self.closed.append(round_closed)


def replay(trace):
    """Every configuration of ``trace`` as a tuple: ``trace.initial``, then
    the configuration after each step, each step's fired states written
    over the one before."""
    config = list(trace.initial)
    yield tuple(config)
    for fired in trace.steps:
        for u, move in fired.items():
            config[u] = move.state
        yield tuple(config)


def segment_language_check(trace, g) -> dict:
    """Test-side reference for ``engine.check_trace``'s segment fields and
    ``aar_monotone``, on a replay of its own: the alive-abnormal-root set
    of the initial configuration, then kept up to date at the fired nodes
    and their neighbors only, and each (node, segment) word of fired rules
    matched against ``SEGMENT_RE``."""
    info = component_info(g)
    comp_of = info.component_of
    adjacency = g.adjacency
    root = g.root_id
    configs = replay(trace)
    aar = set(alive_abnormal_roots(next(configs), g))
    monotone = True
    segment = [0] * len(info.components)  # current segment of each component
    words: dict[tuple[int, int], str] = {}  # (node, segment) -> fired rules
    for fired, post in zip(trace.steps, configs):
        touched = set(fired)
        for u, move in fired.items():
            key = (u, segment[comp_of[u]])
            words[key] = words.get(key, "") + RULE_LETTER[move.rule]
            touched.update(adjacency[u])
        touched.discard(root)
        ended = set()
        for u in touched:
            if _alive_ab_root(post, g, u):
                if u not in aar:
                    aar.add(u)
                    monotone = False
            elif u in aar:
                aar.remove(u)
                ended.add(comp_of[u])
        for c in ended:
            segment[c] += 1
    bad = {u for (u, _), word in words.items() if not SEGMENT_RE.fullmatch(word)}
    per_node_ok: dict[int, bool] = {}
    counts: dict[int, int] = {}
    for u in range(g.node_count):
        if u != root:
            counts[u] = segment[comp_of[u]] + 1
            per_node_ok[u] = u not in bad and counts[u] <= info.n_max_cc + 1
    return {
        "per_node_ok": per_node_ok,
        "segment_counts": counts,
        "segments_ok": all(per_node_ok.values()),
        "aar_monotone": monotone,
    }


def check_round_milestones(trace, g) -> dict:
    """Test-side reference for ``engine.check_trace``'s milestone fields,
    on a replay of its own: each configuration's completed rounds by
    bisection in ``trace.round_ends``, and one legitimacy loop for the
    processes outside V_r and another for those within the hop budget."""
    if not trace.terminated:
        raise ValueError("milestone check requires a terminated trace")
    info = component_info(g)
    distances = root_distances(g)
    hops = root_hop_distances(g)
    nm = info.n_max_cc
    ok_c = ok_cleared = ok_hop = ok_acyclic = True
    for idx, config in enumerate(replay(trace)):
        completed = bisect_right(trace.round_ends, idx)
        if completed < nm:
            continue
        view = forest_view(config, g)
        ok_acyclic = ok_acyclic and view.acyclic
        for u, in_illegal in view.illegal_membership.items():
            if in_illegal and config[u].status is Status.C:
                ok_c = False
        if completed < 3 * nm:
            continue
        if any(view.illegal_membership.values()):
            ok_cleared = False
        for u in range(g.node_count):
            if distances[u] == INFINITY and not legitimate_state(config, g, u)[0]:
                ok_cleared = False
        budget = completed - 3 * nm
        for u in range(g.node_count):
            if hops[u] != INFINITY and hops[u] <= budget:
                if not legitimate_state(config, g, u)[0]:
                    ok_hop = False
    return {
        "no_status_c_in_illegal_ok": ok_c,
        "illegal_cleared_ok": ok_cleared,
        "hop_legitimacy_ok": ok_hop,
        "acyclic_ok": ok_acyclic,
        "milestones_ok": ok_c and ok_cleared and ok_hop and ok_acyclic,
    }


def neighbourhood_walk(trace, g) -> dict:
    """Test-side reference for ``analysis.TraceWalk``, field by field: the
    walk as it was before it narrowed its updates, on a replay of its own.
    Each step updates the sets at the fired nodes and all their
    neighbours, and each round end from ``3 * n_max_cc`` rounds on judges
    every illegitimate process against the raised hop budget."""
    info = component_info(g)
    comp_of = info.component_of
    adjacency = g.adjacency
    root = g.root_id
    nodes = range(g.node_count)
    hops = root_hop_distances(g)
    nm = info.n_max_cc
    aar = {u for u in nodes if u != root and _alive_ab_root(trace.initial, g, u)}
    facts = None
    illegit = None
    monotone = True
    segment = [0] * len(info.components)
    last = [(-1, 0)] * g.node_count
    bad = set()
    ends = iter(trace.round_ends)
    next_end = next(ends, None)
    completed = 0
    ok_c = ok_cleared = ok_hop = ok_acyclic = True
    config = list(trace.initial)
    for idx, fired in enumerate(itertools.chain([{}], trace.steps)):
        touched = set(fired)
        for u, move in fired.items():
            pair = (segment[comp_of[u]], RANK[move.rule])
            if pair < last[u] or (pair == last[u] and move.rule is not Rule.R_C):
                bad.add(u)
            last[u] = pair
            config[u] = move.state
            touched.update(adjacency[u])
        touched.discard(root)
        ended = set()
        for u in touched:
            if _alive_ab_root(config, g, u):
                if u not in aar:
                    aar.add(u)
                    monotone = False
            elif u in aar:
                aar.remove(u)
                ended.add(comp_of[u])
        for c in ended:
            segment[c] += 1
        grew = idx == next_end
        if grew:
            completed += 1
            next_end = next(ends, None)
        if completed < nm:
            continue
        if facts is None:
            facts, touched = (set(), set(), set()), set(nodes) - {root}
        for u in touched:
            for held, flag in zip(facts, _local_facts(config, g, u)):
                (held.add if flag else held.discard)(u)
        ab_roots, heads, loose = facts
        ok_c = ok_c and not heads
        ok_acyclic = ok_acyclic and not loose
        if completed < 3 * nm:
            continue
        if ab_roots or loose:
            ok_cleared = False
        if illegit is None:
            illegit, touched, grew = set(), nodes, True
        for u in touched:
            (illegit.discard if legitimate_state(config, g, u)[0] else illegit.add)(u)
        budget = completed - 3 * nm
        for u in illegit if grew else touched & illegit:
            if hops[u] <= budget:
                ok_hop = False
    if not trace.terminated:
        ok_c = ok_cleared = ok_hop = ok_acyclic = None
    per_node_ok, counts = {}, {}
    for u in nodes:
        if u != root:
            counts[u] = segment[comp_of[u]] + 1
            per_node_ok[u] = u not in bad and counts[u] <= nm + 1
    return {
        "per_node_ok": per_node_ok,
        "segment_counts": counts,
        "segments_ok": all(per_node_ok.values()),
        "aar_monotone": monotone,
        "no_status_c_in_illegal_ok": ok_c,
        "illegal_cleared_ok": ok_cleared,
        "hop_legitimacy_ok": ok_hop,
        "acyclic_ok": ok_acyclic,
        "milestones_ok": ok_c and ok_cleared and ok_hop and ok_acyclic,
    }


def walk_recorded(trace, g):
    """Test-side reference for ``check_trace``, as it stood before
    it replayed traces through ``engine.run``: each recorded step's states
    written into a copy of ``trace.initial`` and fed to a ``TraceWalk``
    with the round ends the trace records, whether or not the protocol
    would have taken the step. So it also walks fabricated traces."""
    config = list(trace.initial)
    walk = TraceWalk(config, g)
    ends = set(trace.round_ends)
    for index, fired in enumerate(trace.steps, 1):
        for u, move in fired.items():
            config[u] = move.state
        walk.step(config, fired, index in ends)
    return walk.report(trace.terminated)


def walk_matches_references(trace, g, walk=check_trace) -> bool:
    """``walk`` (``engine.check_trace``, or ``walk_recorded`` for a trace
    the protocol would not produce) gives, field by field, what the two
    reference replays give, and what ``neighbourhood_walk`` gives; on a
    trace that did not terminate, its milestone fields are all None."""
    report = vars(walk(trace, g))
    reference = segment_language_check(trace, g)
    if trace.terminated:
        reference |= check_round_milestones(trace, g)
    else:
        reference |= dict.fromkeys(report.keys() - reference.keys())
    return report == reference == neighbourhood_walk(trace, g)


def reference_write_trace(trace, fh, *, graph_name="", seed=None, daemon="") -> None:
    """Test-side reference for ``engine.write_trace``: every record, header
    and steps alike, encoded by ``json.dumps``."""

    def state_json(state):
        return [state.status.value, state.par, state.d]

    header = {
        "type": "header",
        "graph": graph_name,
        "seed": seed,
        "daemon": daemon,
        "terminated": trace.terminated,
        "initial": [state_json(s) for s in trace.initial],
    }
    fh.write(json.dumps(header) + "\n")
    for i, fired in enumerate(trace.steps):
        moves = sorted(fired.items())
        fh.write(
            json.dumps(
                {
                    "type": "step",
                    "index": i,
                    "selected": [u for u, _ in moves],
                    "fired": {str(u): m.rule.value for u, m in moves},
                    "post": {str(u): state_json(m.state) for u, m in moves},
                }
            )
            + "\n"
        )
