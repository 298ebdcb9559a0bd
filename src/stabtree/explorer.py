"""Exhaustive verification on desk-scale instances.

Enumerates every daemon choice from one or all initial configurations, up
to the order of independent moves: each connected selection of the enabled
set (a nonempty subset connected by edges among its processes), since a
selection that splits into parts with no edge between them does what
firing the parts one after another does. It deduplicates configurations
and certifies that the reachable configuration graph is acyclic, that its
terminals are exactly the legitimate configurations, that no step creates
an alive abnormal root, and that the longest path respects the step bound.
Certification explores each connected component (plus the root) on its
own and combines the results, since components evolve independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator

from . import analysis, protocol
from .graph import WeightedGraph, component_info, induced_subgraph
from .protocol import ROOT_STATE, Configuration, ProcessState, Status


class BudgetExceededError(Exception):
    """Exploration hit a limit; ``certify_instance`` turns it into an
    INCONCLUSIVE result."""


# One expansion makes up to 2**k - 1 successors, one per connected subset of
# the k enabled processes (all of them when the k are pairwise adjacent);
# beyond this k the explorer gives up (INCONCLUSIVE).
MAX_ENABLED = 10
DEFAULT_MAX_VISITED = 2_000_000  # default budget: configurations expanded per factor


def _view_facts(config: Configuration, g: WeightedGraph, u: int) -> tuple:
    """``(enabled move or None, legitimate, alive abnormal root)`` of
    non-root process ``u``: each reads only ``u`` and its neighbours, so it
    is a function of the local view ``config[N[u]]``."""
    return (
        protocol.enabled_rule(config, g, u),
        analysis.legitimate_state(config, g, u)[0],
        analysis._alive_ab_root(config, g, u),
    )


def _connected_selections(g: WeightedGraph, enabled: list[int]) -> list[itemgetter]:
    """The selections of the ``enabled`` processes (in node order) whose
    selected processes are connected by edges among themselves, in bit-mask
    order: bit i selects ``enabled[i]``, so the first varies fastest.

    Each selection is an ``itemgetter`` that picks its successor out of
    ``config + new_states``, the configuration followed by the enabled
    processes' new states: index ``u`` keeps node ``u``'s state, index
    ``n + i`` writes the i-th enabled process's new one.
    """
    n = g.node_count
    selections = []
    for mask in range(1, 1 << len(enabled)):
        chosen = {u for i, u in enumerate(enabled) if mask >> i & 1}
        start = min(chosen)
        seen, todo = {start}, [start]
        while todo:
            for v in g.adjacency[todo.pop()]:
                if v in chosen and v not in seen:
                    seen.add(v)
                    todo.append(v)
        if seen == chosen:
            selections.append(itemgetter(*(n + enabled.index(u) if u in chosen else u for u in range(n))))
    return selections


class _Explorer:
    """DFS over the configuration graph of the subgraph induced by ``nodes``
    (for certification, one factor: a connected component plus the root),
    with a memo shared across starts.

    The memo holds one int per configuration, so each successor edge costs
    one hash probe, and a new configuration three hashes in all: the
    probe, the ``-1`` written when it is discovered and the entry written
    when it is finished. A probe that finds a negative entry has found a
    configuration on the stack, so a cycle. A finished entry is
    ``longest << width | alive``: the longest execution from the
    configuration (0 iff it is terminal) above its alive-abnormal-root
    bitmask, ``width`` being the factor's node count and bit ``u`` standing
    for node ``u``. A search stopped by a cycle or by the budget leaves the
    entries of its stack at ``-1``.

    Each non-root process's local facts are tabled by its local view, the
    states of its closed neighbourhood N[u], and computed only on a miss.
    A process whose N[u] holds every non-root node of the factor sees the
    whole configuration, so a lookup could never hit: it gets no table and
    is evaluated directly.

    An expansion reads each process's facts once and gets the alive
    abnormal roots and legitimacy of the configuration. The search judges
    "terminal iff legitimate" where it expands a configuration, and each
    step where it walks it: at once if the successor is done, else when the
    successor is expanded. A search stopped by a cycle has checked only the
    steps walked before it.
    """

    def __init__(self, g: WeightedGraph, nodes: Iterable[int], max_visited: int):
        self.nodes = sorted(nodes)  # explorer node i is node nodes[i] of ``g``
        self.g = g = induced_subgraph(g, self.nodes)
        self.max_visited = max_visited
        self.width = g.node_count
        self.memo: dict[Configuration, int] = {}
        self.cycle_witness: list[Configuration] | None = None
        self.illegitimate_terminals: list[Configuration] = []
        self.nonterminal_legitimate: list[Configuration] = []
        self.aar_violations: list[tuple[Configuration, Configuration]] = []
        self.expanded = 0  # configurations whose successors were generated
        self.initial_configs = 0
        self.max_steps = 0
        self._selections: dict[int, list[itemgetter]] = {}  # enabled bitmask -> connected selections
        # (u, view getter, table) per non-root process in node order; the
        # getter and table are None for an untabled process. Nothing here
        # refers back to the explorer, so a finished one is freed at once.
        non_root = {u for u in range(g.node_count) if u != g.root_id}
        self._processes: list[tuple] = []
        for u in sorted(non_root):
            hood = sorted(g.adjacency[u])
            if non_root <= {u, *hood}:
                self._processes.append((u, None, None))
            else:
                self._processes.append((u, itemgetter(u, *hood), {}))

    def _successors(self, config: Configuration) -> tuple[list[Configuration], int, bool]:
        """One successor per connected selection of the enabled processes
        (none when no process is enabled), in bit-mask order, the selections
        tabled per enabled set; and the configuration's alive-abnormal-root
        bitmask and legitimacy.

        A selection whose processes split into parts with no edge between
        them is not fired: firing the parts one after another reaches the
        same configuration by a longer path, since each part's moves read
        only its closed neighbourhood, which no other part writes. This
        keeps the reachable set, the longest execution, cycles and the
        steps creating an alive abnormal root (one of the split steps
        creates it). It holds for steps, not for rounds: splitting a step
        can move a move into another round.
        """
        g = self.g
        legit = True  # the root is pinned at ROOT_STATE, which is legitimate
        alive = enabled = 0
        new_states = []
        for u, view, table in self._processes:
            if table is None:
                move, ok, flag = _view_facts(config, g, u)
            else:
                key = view(config)
                fact = table.get(key)
                if fact is None:
                    fact = table[key] = _view_facts(config, g, u)
                move, ok, flag = fact
            legit = legit and ok
            if flag:
                alive |= 1 << u
            if move is not None:
                new_states.append(move.state)
                enabled |= 1 << u
        if len(new_states) > MAX_ENABLED:
            raise BudgetExceededError(
                f"enabled set of size {len(new_states)} exceeds limit {MAX_ENABLED}"
            )
        selections = self._selections.get(enabled)
        if selections is None:
            movers = [u for u in range(g.node_count) if enabled >> u & 1]
            selections = self._selections[enabled] = _connected_selections(g, movers)
        pool = config + tuple(new_states)
        return [pick(pool) for pick in selections], alive, legit

    def explore_from(self, start: Configuration) -> int | None:
        """Visit everything reachable from ``start`` and return the longest
        execution from it, or None when the search closes a cycle;
        expands at most ``max_visited`` configurations over the explorer's
        life."""
        memo, width = self.memo, self.width
        entry = memo.get(start)
        if entry is not None:
            return entry >> width
        full = (1 << width) - 1
        violations = self.aar_violations
        # frame: [config, alive abnormal roots, successor iterator, best
        # child longest]
        stack: list[list] = []
        nxt = start
        while True:
            # Expand ``nxt``, just discovered, judge it, and check the step
            # to it from the frame below, walked when it was discovered.
            if self.expanded >= self.max_visited:
                raise BudgetExceededError(f"visited more than {self.max_visited} configurations")
            memo[nxt] = -1
            succs, alive, legit = self._successors(nxt)
            self.expanded += 1
            if legit != (not succs):  # terminal iff legitimate fails
                (self.nonterminal_legitimate if legit else self.illegitimate_terminals).append(nxt)
            if stack and alive & ~stack[-1][1]:
                violations.append((stack[-1][0], nxt))
            stack.append([nxt, alive, iter(succs), -1])
            # Walk the top frame's successors until one is new.
            while True:
                frame = stack[-1]
                config, alive, succs, best = frame
                for nxt in succs:
                    entry = memo.get(nxt)
                    if entry is None:
                        break
                    if entry < 0:
                        self.cycle_witness = [f[0] for f in stack] + [nxt]
                        return None
                    if entry >> width > best:
                        best = entry >> width
                    if entry & full & ~alive:
                        violations.append((config, nxt))
                else:
                    done = best + 1  # 0 iff terminal
                    memo[config] = done << width | alive
                    stack.pop()
                    if not stack:
                        return done
                    if done > stack[-1][3]:
                        stack[-1][3] = done
                    continue
                frame[3] = best
                break

    def explore(self, d_cap: int) -> None:
        """Explore from every enumerated initial configuration, stopping at
        the first cycle."""
        for initial in enumerate_initial_configs(self.g, d_cap):
            self.initial_configs += 1
            steps = self.explore_from(initial)
            if steps is None:
                return
            self.max_steps = max(self.max_steps, steps)

    def lift(self, config: Configuration, states: list[ProcessState]) -> None:
        """Write one of this explorer's configurations into a state list of
        the whole graph."""
        for i, (status, par, d) in enumerate(config):
            states[self.nodes[i]] = ProcessState(status, None if par is None else self.nodes[par], d)


def enumerate_initial_configs(g: WeightedGraph, d_cap: int) -> Iterator[Configuration]:
    """Stream the full grid of initial configurations.

    Per non-root process: every status, every neighbor parent plus the
    self-pointer (which stands for all non-neighbor parents, since the
    guards only ever test neighborhood membership), and every distance in
    [0, d_cap]. The root's one choice is ``ROOT_STATE``. The product of
    the per-node choices yields each configuration as a tuple.
    """
    if d_cap < 1:
        raise ValueError(f"d_cap must be >= 1, got {d_cap}")
    choices = [
        (ROOT_STATE,)
        if u == g.root_id
        else [
            ProcessState(status, par, d)
            for status in Status
            for par in sorted(g.adjacency[u]) + [u]
            for d in range(d_cap + 1)
        ]
        for u in range(g.node_count)
    ]
    yield from itertools.product(*choices)


@dataclass
class CertificationResult:
    """Verdict on every execution from every enumerated initial
    configuration of an instance.

    The instance is certified one factor at a time: a factor is one
    connected component plus the root. ``initial_configs`` and
    ``reachable_count`` are the products of the factors' counts, which
    equal the counts of the whole configuration space; ``max_steps_any_path``
    is the sum of the factors' longest executions; ``step_limit`` is the
    bound of the whole graph. Violation counts are summed over factors, so
    they count factor configurations. A ``witness`` cycle is given as
    whole-graph configurations, the other factors held at their first
    enumerated configuration. An ``INCONCLUSIVE`` result combines the
    factors finished so far with the one the budget interrupted.
    """

    verdict: str  # PASS, FAIL, or INCONCLUSIVE
    initial_configs: int
    reachable_count: int
    max_steps_any_path: int
    step_limit: int
    witness: list[Configuration] | None
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _combined(factors: list[_Explorer], **fields) -> CertificationResult:
    return CertificationResult(
        initial_configs=math.prod(f.initial_configs for f in factors),
        reachable_count=math.prod(f.expanded for f in factors),
        max_steps_any_path=sum(f.max_steps for f in factors),
        **fields,
    )


def _lift_witness(g: WeightedGraph, factors: list[_Explorer], cyclic: _Explorer, d_cap: int):
    base = [ROOT_STATE] * g.node_count
    for f in factors:
        f.lift(next(enumerate_initial_configs(f.g, d_cap)), base)
    witness = []
    for config in cyclic.cycle_witness:
        states = list(base)
        cyclic.lift(config, states)
        witness.append(tuple(states))
    return witness


_VIOLATION_KINDS = (
    ("illegitimate_terminals", "illegitimate terminal configuration(s)"),
    ("nonterminal_legitimate", "legitimate non-terminal configuration(s)"),
    ("aar_violations", "step(s) creating an alive abnormal root"),
)


def certify_instance(g: WeightedGraph, d_cap: int, max_visited: int = DEFAULT_MAX_VISITED) -> CertificationResult:
    """Explore every enumerated initial configuration of the instance.

    PASS means: no cycle anywhere (silence), every terminal legitimate,
    every reachable legitimate configuration terminal, no step creating an
    alive abnormal root, and the longest execution within the step bound.

    Every component is a factor, an isolated root's own too, so every
    graph enumerates and a ``d_cap`` below 1 is refused on every graph.
    No edge crosses components and the root is pinned, so the whole
    configuration graph is the product of the factors' graphs, each step
    moving one or more factors while the rest stay idle. Each property
    above holds on the product iff it holds on every factor, and the
    longest product execution is the sum of the factors' longest.
    ``max_visited`` and ``MAX_ENABLED`` apply to each factor; a factor
    that exceeds one makes the result INCONCLUSIVE, its one violation the
    limit hit.
    """
    limit = analysis.step_bound_for(g)
    root = g.root_id
    factors = [
        _Explorer(g, {*nodes, root}, max_visited)
        for nodes in component_info(g).components
    ]
    started: list[_Explorer] = []
    try:
        for f in factors:
            started.append(f)
            f.explore(d_cap)
            if f.cycle_witness is not None:
                break
    except BudgetExceededError as exc:
        return _combined(
            started, verdict="INCONCLUSIVE", step_limit=limit, witness=None, violations=[str(exc)]
        )
    cyclic = next((f for f in started if f.cycle_witness is not None), None)
    violations = []
    if cyclic is not None:
        violations.append("cycle in configuration graph (silence violated)")
    for attr, what in _VIOLATION_KINDS:
        n = sum(len(getattr(f, attr)) for f in started)
        if n:
            violations.append(f"{n} {what}")
    max_path = sum(f.max_steps for f in started)
    if cyclic is None and max_path > limit:
        violations.append(f"longest execution {max_path} exceeds step bound {limit}")
    return _combined(
        started,
        verdict="FAIL" if violations else "PASS",
        step_limit=limit,
        witness=None if cyclic is None else _lift_witness(g, factors, cyclic, d_cap),
        violations=violations,
    )
