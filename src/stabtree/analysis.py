"""Trace- and configuration-level verdicts.

Legitimacy is judged against the graph module's distance oracle, never
against protocol state; the bound formulas and one walk over a trace turn
the protocol's worst-case guarantees into runtime checks. The walk keeps
segments, alive abnormal roots and the facts behind the round milestones
(counted from the round ends that ``engine.run`` records) up to date from
each process's local view: no check walks a parent chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Sequence

from . import protocol
from .graph import (
    INFINITY,
    WeightedGraph,
    component_info,
    hop_diameter_root,
    root_distances,
    root_hop_distances,
)
from .protocol import R_C, R_EB, R_EF, R_I, R_R, ROOT_STATE, S_C, S_EB, S_EF, S_I, Move, ProcessState, Status


# --- bound formulas ---------------------------------------------------------


def step_bound(n: int, n_max_cc: int, w_max: int) -> int:
    """Worst-case number of steps of any execution (integer weights)."""
    return (w_max * n_max_cc**3 + (3 - w_max) * n_max_cc + 3) * (n - 1)


def uniform_step_bound(n: int, n_max_cc: int) -> int:
    """Tighter step bound when every edge has the same weight: ``step_bound`` at ``w_max = 1``."""
    return step_bound(n, n_max_cc, 1)


def round_bound(n_max_cc: int, hop_diameter: int) -> int:
    """Worst-case number of rounds of any execution."""
    return 3 * n_max_cc + hop_diameter


def step_bound_for(g: WeightedGraph) -> int:
    info = component_info(g)
    return step_bound(g.node_count, info.n_max_cc, info.w_max)


def round_bound_for(g: WeightedGraph) -> int:
    return round_bound(component_info(g).n_max_cc, hop_diameter_root(g))


# --- legitimacy -------------------------------------------------------------


#: The status clause's rejection reason per status, built once: the explorer
#: asks about every process it does not table.
_STATUS_REASON = {s: f"status {s.value} in root component" for s in Status}


def legitimate_state(
    config: Sequence[ProcessState], g: WeightedGraph, u: int
) -> tuple[bool, str | None]:
    """Verdict for one process, with the failing clause on rejection."""
    if u == g.root_id:
        if config[u] == ROOT_STATE:
            return True, None
        return False, "root state is not (C, None, 0)"
    distances = root_distances(g)
    st, par, d = config[u]
    if distances[u] == INFINITY:
        if st is S_I:
            return True, None
        return False, "outside root component but not isolated"
    if st is not S_C:
        return False, _STATUS_REASON[st]
    if d != distances[u]:
        return False, f"distance {d} != true distance {distances[u]}"
    adj = g.adjacency[u]
    if par not in adj:
        return False, "parent pointer does not designate a neighbor"
    if d != config[par].d + adj[par]:
        return False, "distance inconsistent with parent"
    return True, None


def legitimate_config(config: Sequence[ProcessState], g: WeightedGraph) -> dict[int, str]:
    """The failing clause of each process that fails one; empty iff legitimate.

    No separate spanning-tree check is needed: the per-process clauses
    imply one. Every non-root process of V_r has its true distance and a
    parent neighbour with ``d = d_par + w``; weights are positive, so each
    parent chain strictly decreases in ``d``, cannot close a cycle, and can
    only end at the root, whose state pins ``d = 0``. The chain's edge
    weights then add up to the true distance, so the parent edges form a
    shortest-path spanning tree of V_r; every process outside V_r is
    isolated.
    """
    verdicts = (legitimate_state(config, g, u) for u in range(g.node_count))
    return {u: why for u, (ok, why) in enumerate(verdicts) if not ok}


# --- local facts -----------------------------------------------------------


def _alive_ab_root(config, g: WeightedGraph, u: int) -> bool:
    """``u`` (not the root) heads a broken tree and is neither isolated nor
    acknowledging the freeze. Reads only ``u`` and its parent."""
    status = config[u].status
    return status is not S_I and status is not S_EF and protocol.ab_root(config, g, u)


def _local_facts(config, g: WeightedGraph, u: int) -> tuple[bool, bool, bool]:
    """Whether non-root ``u`` is an abnormal root, a C head and a loose
    link (see ``TraceWalk``). Reads only ``u`` and its parent when that
    is a neighbour."""
    su, pu, du = config[u]
    if su is S_I:
        return False, False, False
    ab = protocol.ab_root(config, g, u)
    sp, _, dp = config[pu] if pu in g.adjacency[u] else (None, None, du)
    head = su is S_C and (ab or sp is S_EB)
    return ab, head, not ab and (dp >= du or sp not in (su, S_EB))


# --- trace properties -------------------------------------------------------


#: The order of the rules within a segment.
_RANK = {R_I: 0, R_R: 1, R_C: 2, R_EB: 3, R_EF: 4}


@dataclass
class TraceReport:
    per_node_ok: dict[int, bool]
    segment_counts: dict[int, int]
    segments_ok: bool
    aar_monotone: bool                        # no step creates an alive abnormal root
    # The milestones, None on a trace that did not terminate:
    no_status_c_in_illegal_ok: bool | None    # holds after n_max_cc completed rounds
    illegal_cleared_ok: bool | None           # after 3*n_max_cc rounds, plus non-root
    hop_legitimacy_ok: bool | None            # after 3*n_max_cc + i rounds, hop <= i
    acyclic_ok: bool | None                   # no loose link (nor cycle) after n_max_cc rounds
    milestones_ok: bool | None


class TraceWalk:
    """The one walk over an execution: segments, alive-abnormal-root
    monotonicity and round milestones. ``engine.run`` calls ``step`` after
    each step it fires, whether it runs a daemon or replays a recorded
    trace for ``engine.check_trace``; ``report`` gives the verdicts.

    Per node, the trace splits into segments. A segment of a component
    ends at the first step where one of its alive abnormal roots stops
    being one; within a segment a node may fire at most: one isolate, one
    rejoin, any number of corrections, one freeze broadcast, one freeze
    acknowledgement, in that order (``_RANK``). So a firing breaks the
    order iff its (segment, rank) pair, with the segment as it stood before
    the step, is below the node's last pair, or equal and not ``R_C``: the
    walk keeps only that last pair per node. The number of segments never
    exceeds n_max_cc + 1. The same series of alive abnormal root sets also
    yields ``aar_monotone``.

    Each set the walk keeps holds the processes with some local fact, and
    ``_alive_ab_root``, ``_local_facts`` and ``legitimate_state`` each read
    only the process and its parent. A step changes only the fired
    processes, so it changes the facts of the fired processes and of
    their children (neighbours whose parent fired) only; a process whose
    parent did not fire keeps its facts. So a set is taken once (the alive
    abnormal roots at the initial configuration, the ``_local_facts`` once
    n_max_cc rounds complete) and then kept up to date at the fired
    processes and their children. A round counter follows the round
    ends: each configuration must meet the milestones of the rounds
    completed when it is reached, and only a terminated trace reports
    them.

    The milestones speak of illegal branches, parent chains that end at an
    abnormal root or close a cycle, yet need no walk up a chain. Lemma: if
    a non-root process ``u`` not in status I has ``ab_root(u)`` false, its
    parent is a neighbour not in status I, ``d_par <= d_u - w < d_u``, and
    ``status(par)`` is ``status(u)`` or EB. So parent chains strictly
    descend in ``d`` and close no cycle; read from a branch head down,
    statuses are EB*, then C* or EF*; some status-C process lies in an
    illegal branch iff some status-C process is an abnormal root or has a
    status-EB parent (a C head); and some illegal branch exists iff some
    non-I process is an abnormal root.

    A loose link is a non-I process, not an abnormal root, whose parent
    lacks a smaller ``d`` or a compatible status. The real ``ab_root``
    leaves none; under a faulty one the lemma holds wherever none exists.
    ``statusC`` fails while a C head exists, ``acyclic`` on a loose link
    (so on every parent cycle, and possibly sooner), and ``cleared`` on an
    abnormal root or a loose link. Under any ``ab_root``, each illegitimate
    process outside V_r leads to one: it is not in status I, so it is an
    abnormal root, a loose link, or has a non-I neighbour parent with a
    strictly smaller ``d``; the root is not in its component, so its parent
    chain ends at an abnormal root or a loose link.

    For ``hops``, the illegitimate processes are kept from ``3*n_max_cc``
    rounds on, with their number at each hop. ``hops`` fails at the first
    configuration with an illegitimate process at a hop within the budget.
    Until then every illegitimate process lies beyond the budget, so a
    process that turns illegitimate is judged alone, and a round end,
    which raises the budget by one, reads only the count at the new budget.
    """

    def __init__(self, initial: Sequence[ProcessState], g: WeightedGraph):
        info = component_info(g)
        self._g = g
        self._comp_of = info.component_of
        self._nm = info.n_max_cc
        self._hops = root_hop_distances(g)
        root = g.root_id
        self._aar = {u for u in range(g.node_count) if u != root and _alive_ab_root(initial, g, u)}
        self._facts = None  # abnormal roots, C heads, loose links: kept from n_max_cc rounds on
        self._illegit = None  # illegitimate processes: kept from 3 * n_max_cc rounds on
        self._at_hop = None  # the number of them at each hop
        self._monotone = True
        self._segment = [0] * len(info.components)  # current segment of each component
        self._last = [(-1, 0)] * g.node_count  # (segment, rank) of each node's last firing
        self._bad = set()  # nodes whose firings break the order
        self._completed = 0  # rounds completed when the current configuration is reached
        self._ok_c = self._ok_cleared = self._ok_hop = self._ok_acyclic = True
        # The initial configuration is reached by no step.
        self.step(initial, {}, False)

    def step(self, config: Sequence[ProcessState], fired: dict[int, Move], round_closed: bool) -> None:
        """Judge the configuration that ``fired`` led to; ``round_closed``
        says whether the step closed a round."""
        g = self._g
        adjacency = g.adjacency
        comp_of, segment, last = self._comp_of, self._segment, self._last
        touched = set(fired)  # the root never fires and is no process's child
        for u, (rule, _) in fired.items():
            pair = (segment[comp_of[u]], _RANK[rule])
            if pair < last[u] or (pair == last[u] and rule is not R_C):
                self._bad.add(u)
            last[u] = pair
            for v in adjacency[u]:
                if config[v].par == u:
                    touched.add(v)
        aar = self._aar
        ended = set()
        for u in touched:
            if _alive_ab_root(config, g, u):
                if u not in aar:
                    aar.add(u)
                    self._monotone = False
            elif u in aar:
                aar.remove(u)
                ended.add(comp_of[u])
        for c in ended:
            segment[c] += 1
        completed = self._completed = self._completed + round_closed
        nm = self._nm
        if completed < nm:
            return
        facts = self._facts
        if facts is None:
            facts = self._facts = (set(), set(), set())
            touched = set(range(g.node_count)) - {g.root_id}
        for u in touched:
            for held, flag in zip(facts, _local_facts(config, g, u)):
                (held.add if flag else held.discard)(u)
        ab_roots, heads, loose = facts
        if heads:
            self._ok_c = False
        if loose:
            self._ok_acyclic = False
        if completed < 3 * nm:
            return
        if ab_roots or loose:
            self._ok_cleared = False
        illegit, at_hop, hops = self._illegit, self._at_hop, self._hops
        if illegit is None:
            illegit, at_hop = self._illegit, self._at_hop = set(), Counter()
            touched = range(g.node_count)
        budget = completed - 3 * nm
        for u in touched:
            if legitimate_state(config, g, u)[0]:
                if u in illegit:
                    illegit.remove(u)
                    at_hop[hops[u]] -= 1
            elif u not in illegit:
                illegit.add(u)
                at_hop[hops[u]] += 1
                if hops[u] <= budget:
                    self._ok_hop = False
        if round_closed and at_hop[budget]:
            self._ok_hop = False

    def report(self, terminated: bool) -> TraceReport:
        """The verdicts of the walk so far; the milestones read None unless
        the execution terminated."""
        if terminated:
            ok_c, ok_cleared, ok_hop, ok_acyclic = self._ok_c, self._ok_cleared, self._ok_hop, self._ok_acyclic
        else:
            ok_c = ok_cleared = ok_hop = ok_acyclic = None
        nm, comp_of, segment = self._nm, self._comp_of, self._segment
        per_node_ok: dict[int, bool] = {}
        counts: dict[int, int] = {}
        for u in range(self._g.node_count):
            if u != self._g.root_id:
                counts[u] = segment[comp_of[u]] + 1
                per_node_ok[u] = u not in self._bad and counts[u] <= nm + 1
        return TraceReport(
            per_node_ok=per_node_ok,
            segment_counts=counts,
            segments_ok=all(per_node_ok.values()),
            aar_monotone=self._monotone,
            no_status_c_in_illegal_ok=ok_c,
            illegal_cleared_ok=ok_cleared,
            hop_legitimacy_ok=ok_hop,
            acyclic_ok=ok_acyclic,
            milestones_ok=ok_c and ok_cleared and ok_hop and ok_acyclic,
        )


# --- aggregate report -------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def full_trace_report(trace, g: WeightedGraph, report: TraceReport) -> list[CheckResult]:
    """Every per-trace check, as a flat pass/fail list. ``report`` is the
    ``TraceWalk`` report of the same execution: the walk ``run`` fed live,
    or ``engine.check_trace`` of a trace that kept its steps."""
    results = [
        CheckResult("terminated", trace.terminated, f"steps={trace.step_count}")
    ]
    failing = legitimate_config(trace.final, g)
    detail = "; ".join(f"node {u}: {why}" for u, why in failing.items())
    results.append(CheckResult("final_legitimate", trace.terminated and not failing, detail))
    if trace.terminated:
        steps, rounds = trace.step_count, trace.rounds
        s_limit, r_limit = step_bound_for(g), round_bound_for(g)
        info = component_info(g)
        step_detail = f"steps={steps} limit={s_limit}"
        if info.w_min == info.w_max:  # the tighter bound for uniform weights
            s_limit = uniform_step_bound(g.node_count, info.n_max_cc)
            step_detail += f" uniform_limit={s_limit}"
        results.append(CheckResult("step_bound", steps <= s_limit, step_detail))
        results.append(
            CheckResult("round_bound", rounds <= r_limit, f"rounds={rounds} limit={r_limit}")
        )
        results.append(
            CheckResult(
                "round_milestones",
                report.milestones_ok,
                f"statusC={report.no_status_c_in_illegal_ok} "
                f"cleared={report.illegal_cleared_ok} hops={report.hop_legitimacy_ok}"
                + ("" if report.acyclic_ok else " acyclic=False"),
            )
        )
    else:
        results += [CheckResult(name, False, "NonTerminated") for name in ("step_bound", "round_bound", "round_milestones")]
    results.append(CheckResult("aar_monotone", report.aar_monotone))
    results.append(
        CheckResult(
            "segment_language",
            report.segments_ok,
            f"max_segments={max(report.segment_counts.values(), default=0)}",
        )
    )
    return results
