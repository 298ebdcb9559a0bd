"""Exhaustive verification on desk-scale instances.

Enumerates every daemon choice (all nonempty subsets of the enabled set)
from one or all initial configurations, deduplicates configurations, and
certifies that the reachable configuration graph is acyclic, that its
terminals are exactly the legitimate configurations, that no step creates
an alive abnormal root, and that the longest path respects the step bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from . import analysis, engine, protocol
from .engine import Configuration
from .graph import WeightedGraph, component_info
from .protocol import ROOT_STATE, ProcessState, Status


class ExplorerError(Exception):
    pass


class BudgetExceededError(ExplorerError):
    """Exploration hit a limit; carries the partial result when available."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class ExplorationLimits:
    max_visited: int = 2_000_000
    max_enabled: int = 10


@dataclass
class StateSpaceResult:
    reachable_count: int
    terminal_configs: set[Configuration]
    max_steps_any_path: int
    cycle_found: bool
    witness: list[Configuration] | None
    illegitimate_terminals: list[Configuration]
    nonterminal_legitimate: list[Configuration]
    aar_violations: list[tuple[Configuration, Configuration]]

    @property
    def all_terminals_legitimate(self) -> bool:
        return not self.illegitimate_terminals

    @property
    def legitimate_implies_terminal(self) -> bool:
        return not self.nonterminal_legitimate


class _Explorer:
    """DFS over the configuration graph with a shared memo across starts."""

    def __init__(self, g: WeightedGraph, limits: ExplorationLimits):
        self.g = g
        self.limits = limits
        self.longest: dict[Configuration, int] = {}
        self.onstack: set[Configuration] = set()
        self.terminals: set[Configuration] = set()
        self.cycle_witness: list[Configuration] | None = None
        self.illegitimate_terminals: list[Configuration] = []
        self.nonterminal_legitimate: list[Configuration] = []
        self.aar_violations: list[tuple[Configuration, Configuration]] = []
        self.exclusivity_violations: list[tuple[Configuration, int]] = []
        self._aar_cache: dict[Configuration, frozenset[int]] = {}

    def _aar(self, config: Configuration) -> frozenset[int]:
        cached = self._aar_cache.get(config)
        if cached is None:
            cached = analysis.alive_abnormal_roots(config, self.g)
            self._aar_cache[config] = cached
        return cached

    def _successors(self, config: Configuration) -> list[Configuration]:
        g = self.g
        enabled = engine.enabled(config, g)
        for u in range(g.node_count):
            if u != g.root_id and len(protocol.enabled_rules(config, g, u)) > 1:
                self.exclusivity_violations.append((config, u))
        legit = analysis.legitimate_config(config, g).config_legitimate
        if not enabled:
            self.terminals.add(config)
            if not legit:
                self.illegitimate_terminals.append(config)
            return []
        if legit:
            self.nonterminal_legitimate.append(config)
        if len(enabled) > self.limits.max_enabled:
            raise BudgetExceededError(
                f"enabled set of size {len(enabled)} exceeds limit {self.limits.max_enabled}"
            )
        new_states = [(u, protocol._apply(config, g, u, rule)) for u, rule in enabled.items()]
        succs = []
        pre_aar = self._aar(config)
        for mask in range(1, 1 << len(new_states)):
            states = list(config)
            for bit, (u, state) in enumerate(new_states):
                if mask >> bit & 1:
                    states[u] = state
            succ = tuple(states)
            if not self._aar(succ) <= pre_aar:
                self.aar_violations.append((config, succ))
            succs.append(succ)
        return succs

    def explore_from(self, start: Configuration) -> int:
        """Visit everything reachable from ``start``; returns newly
        expanded configuration count."""
        if self.cycle_witness is not None or start in self.longest:
            return 0
        new = 0
        # frame: [config, successor list, next index, best child longest]
        stack: list[list] = [[start, None, 0, -1]]
        self.onstack.add(start)
        while stack:
            frame = stack[-1]
            config = frame[0]
            if frame[1] is None:
                if len(self.longest) + 1 > self.limits.max_visited:
                    raise BudgetExceededError(
                        f"visited more than {self.limits.max_visited} configurations"
                    )
                frame[1] = self._successors(config)
                new += 1
            succs = frame[1]
            if frame[2] < len(succs):
                nxt = succs[frame[2]]
                frame[2] += 1
                if nxt in self.onstack:
                    self.cycle_witness = [f[0] for f in stack] + [nxt]
                    for f in stack:
                        self.onstack.discard(f[0])
                    return new
                if nxt in self.longest:
                    frame[3] = max(frame[3], self.longest[nxt])
                else:
                    self.onstack.add(nxt)
                    stack.append([nxt, None, 0, -1])
                continue
            self.longest[config] = 0 if not succs else frame[3] + 1
            self.onstack.discard(config)
            stack.pop()
            if stack:
                stack[-1][3] = max(stack[-1][3], self.longest[config])
        return new


def explore(
    g: WeightedGraph,
    initial: Configuration,
    limits: ExplorationLimits | None = None,
) -> StateSpaceResult:
    """Traverse all executions from one initial configuration."""
    ex = _Explorer(g, limits or ExplorationLimits())
    try:
        ex.explore_from(initial)
    except BudgetExceededError as exc:
        exc.partial = _result(ex, initial)
        raise
    return _result(ex, initial)


def _result(ex: _Explorer, initial: Configuration) -> StateSpaceResult:
    cycle = ex.cycle_witness is not None
    return StateSpaceResult(
        reachable_count=len(ex.longest),
        terminal_configs=set(ex.terminals),
        max_steps_any_path=ex.longest.get(initial, 0) if not cycle else -1,
        cycle_found=cycle,
        witness=ex.cycle_witness,
        illegitimate_terminals=list(ex.illegitimate_terminals),
        nonterminal_legitimate=list(ex.nonterminal_legitimate),
        aar_violations=list(ex.aar_violations),
    )


def enumerate_initial_configs(g: WeightedGraph, d_cap: int) -> Iterator[Configuration]:
    """Stream the full grid of initial configurations.

    Per non-root process: every status, every neighbor parent plus the
    self-pointer (which stands for all non-neighbor parents, since the
    guards only ever test neighborhood membership), and every distance in
    [0, d_cap]. The root is pinned to its constants.
    """
    if d_cap < 1:
        raise ExplorerError(f"d_cap must be >= 1, got {d_cap}")
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


@dataclass
class CertificationResult:
    verdict: str  # PASS, FAIL, or INCONCLUSIVE
    initial_configs: int
    reachable_count: int
    max_steps_any_path: int
    step_limit: int
    cycle_found: bool
    witness: list[Configuration] | None
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def certify_instance(
    g: WeightedGraph,
    d_cap: int,
    limits: ExplorationLimits | None = None,
) -> CertificationResult:
    """Explore every enumerated initial configuration of the instance.

    PASS means: no cycle anywhere (silence), every terminal legitimate,
    every reachable legitimate configuration terminal, no step creating an
    alive abnormal root, and the longest execution within the step bound.
    """
    limits = limits or ExplorationLimits()
    info = component_info(g)
    limit = analysis.step_bound(g.node_count, info.n_max_cc, info.w_max)
    ex = _Explorer(g, limits)
    count = 0
    max_path = 0
    try:
        for initial in enumerate_initial_configs(g, d_cap):
            count += 1
            ex.explore_from(initial)
            if ex.cycle_witness is not None:
                break
            max_path = max(max_path, ex.longest[initial])
    except BudgetExceededError as exc:
        exc.partial = CertificationResult(
            verdict="INCONCLUSIVE",
            initial_configs=count,
            reachable_count=len(ex.longest),
            max_steps_any_path=max_path,
            step_limit=limit,
            cycle_found=False,
            witness=None,
            violations=[str(exc)],
        )
        raise
    violations = []
    if ex.cycle_witness is not None:
        violations.append("cycle in configuration graph (silence violated)")
    if ex.illegitimate_terminals:
        violations.append(f"{len(ex.illegitimate_terminals)} illegitimate terminal configuration(s)")
    if ex.nonterminal_legitimate:
        violations.append(f"{len(ex.nonterminal_legitimate)} legitimate non-terminal configuration(s)")
    if ex.aar_violations:
        violations.append(f"{len(ex.aar_violations)} step(s) creating an alive abnormal root")
    if ex.exclusivity_violations:
        violations.append(f"{len(ex.exclusivity_violations)} guard exclusivity violation(s)")
    if ex.cycle_witness is None and max_path > limit:
        violations.append(f"longest execution {max_path} exceeds step bound {limit}")
    return CertificationResult(
        verdict="FAIL" if violations else "PASS",
        initial_configs=count,
        reachable_count=len(ex.longest),
        max_steps_any_path=max_path,
        step_limit=limit,
        cycle_found=ex.cycle_witness is not None,
        witness=ex.cycle_witness,
        violations=violations,
    )
