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

import heapq
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
    returned set must be a nonempty subset of its keys; ``engine.run``
    refuses any other. Both ``config`` and ``enabled`` are the engine's
    live state, read-only (``enabled`` rejects writes) and valid only
    during the call. A policy instance is bound to a single execution at
    a time (it keeps a step counter).

    A policy may also define ``moves_changed(config, enabled, changed)``,
    which ``engine.run`` looks up once per run and calls right before each
    ``select``: with ``changed`` None before the first, so a policy reused
    across runs learns there that a new run began, and after that with
    the processes the last step evaluated again, the only ones whose
    move or state the step can have changed. Its arguments are valid only
    during the call, as ``select``'s are. A wrapper that forwards only
    ``select`` hides the hook, so a policy must not trust what it learned
    from the hook unless the hook was called since its last ``select``.
    """

    name = "daemon"
    seed: int | None = None

    def select(self, config, g: WeightedGraph, enabled: Mapping[int, Move]) -> frozenset[int]:
        raise NotImplementedError


class _SeededPolicy(DaemonPolicy):
    def __init__(self, seed: int):
        self.seed = seed
        self._stream = -1  # the n-th select (from 0) draws from stream n
        self._random: random.Random | None = None  # built by the first draw

    def select(self, config, g, enabled):
        self._stream += 1
        if len(enabled) == 1:  # forced: no draw, and no later call reads this stream
            return frozenset(enabled)
        return self._choose(config, enabled)

    def _rng(self) -> random.Random:
        """The policy's generator, seeded for this select's stream: the
        draws of ``random.Random(key)``, without building one after the
        first. It reseeds through the C-level ``seed``: the Python wrapper
        adds only a reset of ``gauss_next``, which no policy reads."""
        key = (self.seed + 1) * 0x9E3779B97F4A7C15 + self._stream
        key = max(key, ~key)  # Random(key) seeds with abs(key): seeds s and -s - 2 would share stream 0
        if self._random is None:
            self._random = random.Random(key)
        else:
            super(random.Random, self._random).seed(key)
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


#: ``MaxChurnDaemon`` rebuilds its heap from the enabled moves once the
#: heap holds more than ``_HEAP_FACTOR`` times their number plus
#: ``_HEAP_SLACK``, so stale entries do not grow with the step count.
_HEAP_FACTOR = 2
_HEAP_SLACK = 16


class MaxChurnDaemon(CentralDaemon):
    """Fires the single process whose move shifts its distance value the
    most (smallest id on ties); one random enabled process when no
    correction or reset is enabled.

    It keeps a lazy max-heap of ``(-shift, u)`` entries: ``moves_changed``
    pushes one for each changed process with a correction or reset, so
    every current move has its entry, and ``_choose`` pops the top until
    its shift is the one ``enabled[u]`` and ``config[u]`` give now, what a
    scan gives. The heap is rebuilt from ``enabled`` on the hook's None
    call, on a ``select`` with no hook call since the last one, and once
    it outgrows the bound above.
    """

    name = "adv:max-churn"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._heap: list[tuple[int, int]] = []
        self._fed = False  # moves_changed was called since the last select

    def moves_changed(self, config, enabled, changed):
        self._fed = True
        if changed is not None:
            heap = self._heap
            for u in changed:
                move = enabled.get(u)
                if move is not None and (move.rule is R_C or move.rule is R_R):
                    heapq.heappush(heap, (-abs(move.state.d - config[u].d), u))
            if len(heap) <= _HEAP_FACTOR * len(enabled) + _HEAP_SLACK:
                return
        self._rebuild(config, enabled)

    def _rebuild(self, config, enabled):
        self._heap = [
            (-abs(state.d - config[u].d), u)
            for u, (rule, state) in enabled.items()
            if rule is R_C or rule is R_R
        ]
        heapq.heapify(self._heap)

    def select(self, config, g, enabled):
        if not self._fed:
            self._rebuild(config, enabled)
        self._fed = False
        return super().select(config, g, enabled)

    def _choose(self, config, enabled):
        heap = self._heap
        while heap:
            shift, u = heap[0]
            rule, state = enabled.get(u, (None, None))
            if (rule is R_C or rule is R_R) and -shift == abs(state.d - config[u].d):
                return frozenset({u})
            heapq.heappop(heap)
        return super()._choose(config, enabled)


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
