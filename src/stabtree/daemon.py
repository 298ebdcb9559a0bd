"""Schedulers ("daemons") deciding which enabled processes fire each step.

The protocol's bounds hold under any daemon, so these policies are probes,
not assumptions: synchronous and central cover the classic extremes, the
random distributed daemon samples arbitrary interleavings, and the
adversarial heuristics try to stretch executions.

Randomized policies draw from a counter-based generator keyed by (seed,
step index), so a trace is bit-reproducible for a fixed seed no matter how
selections are evaluated.
"""

from __future__ import annotations

import math
import random
from typing import Mapping

from .graph import WeightedGraph
from .protocol import R_C, R_R, Move


class DaemonSpecError(ValueError):
    """Unparseable daemon specification string."""


class DaemonPolicy:
    """Strategy mapping (configuration, enabled processes) to a selection.

    ``enabled`` maps each enabled node id to its :class:`~.protocol.Move`:
    the rule it would fire and the state that rule would write. The
    returned set must be a nonempty subset of its keys. Both ``config`` and
    ``enabled`` are the engine's live state, read-only (``enabled`` rejects
    writes) and valid only during the call. A policy instance is bound to
    a single execution at a time (it keeps a step counter).
    """

    name = "daemon"
    seed: int | None = None

    def select(self, config, g: WeightedGraph, enabled: Mapping[int, Move]) -> frozenset[int]:
        raise NotImplementedError


class _SeededPolicy(DaemonPolicy):
    def __init__(self, seed: int):
        self.seed = seed
        self._stream = -1  # the n-th select (from 0) draws from stream n
        self._random = random.Random()  # seeded again for every stream

    def select(self, config, g, enabled):
        self._stream += 1
        if len(enabled) == 1:  # forced: no draw, and no later call reads this stream
            return frozenset(enabled)
        return self._choose(config, enabled)

    def _rng(self) -> random.Random:
        """The policy's generator, seeded for this select's stream: the
        draws of ``random.Random(key)``, without building one."""
        self._random.seed((self.seed + 1) * 0x9E3779B97F4A7C15 + self._stream)
        return self._random


class SynchronousDaemon(DaemonPolicy):
    name = "sync"

    def select(self, config, g, enabled):
        return frozenset(enabled)


class CentralDaemon(_SeededPolicy):
    name = "central"

    def _choose(self, config, enabled):
        return frozenset({self._rng().choice(sorted(enabled))})


class RandomDistributedDaemon(_SeededPolicy):
    name = "rand"

    def __init__(self, seed: int, p: float):
        if not 0 < p <= 1:
            raise DaemonSpecError(f"inclusion probability must be in (0, 1], got {p}")
        super().__init__(seed)
        self.p = p
        self.name = f"rand:p={p}"

    def _choose(self, config, enabled):
        rng = self._rng()
        nodes = sorted(enabled)
        for _ in range(64):  # redraw an empty draw, then sample a nonempty one directly
            chosen = frozenset(u for u in nodes if rng.random() < self.p)
            if chosen:
                return chosen
        return _nonempty_selection(rng, nodes, self.p)


def _nonempty_selection(rng: random.Random, nodes: list[int], p: float) -> frozenset[int]:
    """Each of the k ``nodes`` with probability ``p`` (below 1), conditioned
    on a nonempty result, in at most k draws: given that no earlier index
    was taken, index ``i`` is the first taken with probability
    ``p / (1 - (1 - p)**(k - i))`` (the last index surely), and each later
    node is then taken with probability ``p``."""
    k, log_q = len(nodes), math.log1p(-p)
    first = next(
        (i for i in range(k - 1) if rng.random() < p / -math.expm1((k - i) * log_q)), k - 1
    )
    return frozenset([nodes[first], *(u for u in nodes[first + 1:] if rng.random() < p)])


class StarveCleanupDaemon(CentralDaemon):
    """Fires every distance-correction move while deferring cleanup rules;
    one random enabled process when no correction is enabled."""

    name = "adv:starve-cleanup"

    def _choose(self, config, enabled):
        corrections = [u for u, move in enabled.items() if move.rule is R_C]
        if not corrections:
            return super()._choose(config, enabled)
        return frozenset(corrections)


class MaxChurnDaemon(CentralDaemon):
    """Fires the single process whose move shifts its distance value the
    most (smallest id on ties); one random enabled process when no
    correction or reset is enabled."""

    name = "adv:max-churn"

    def _choose(self, config, enabled):
        best_u = best_delta = -1
        for u, (rule, state) in enabled.items():
            if rule is R_C or rule is R_R:
                delta = abs(state.d - config[u].d)
                if delta > best_delta or (delta == best_delta and u < best_u):
                    best_u, best_delta = u, delta
        if best_u < 0:
            return super()._choose(config, enabled)
        return frozenset({best_u})


def parse_daemon_spec(spec: str, seed: int = 0) -> DaemonPolicy:
    """Build a policy from its command-line name.

    Known specs: ``sync``, ``central``, ``rand:p=<float>``, ``adv:starve``,
    ``adv:churn``.
    """
    if spec == "sync":
        return SynchronousDaemon()
    if spec == "central":
        return CentralDaemon(seed)
    if spec.startswith("rand:p="):
        try:
            p = float(spec[len("rand:p="):])
        except ValueError as exc:
            raise DaemonSpecError(f"bad probability in {spec!r}") from exc
        return RandomDistributedDaemon(seed, p)
    if spec == "adv:starve":
        return StarveCleanupDaemon(seed)
    if spec == "adv:churn":
        return MaxChurnDaemon(seed)
    raise DaemonSpecError(f"unknown daemon spec {spec!r}")
