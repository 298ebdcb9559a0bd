"""Composite-atomicity execution semantics.

A step selects a nonempty subset of the enabled processes; every selected
process reads the pre-step configuration and writes its own state, all
atomically. Executions run until no process is enabled (terminal) or a step
budget is exhausted.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from types import MappingProxyType
from typing import IO, Mapping

from . import analysis, protocol
from .graph import WeightedGraph
from .protocol import ROOT_STATE, S_I, Configuration, Move, ProcessState, Rule, Status


class SelectionError(ValueError):
    """The daemon broke its contract: an empty selection, or one with a
    process that is not enabled."""


class ConfigurationError(ValueError):
    """Malformed configuration (or configuration file)."""


def normal_initial_configuration(g: WeightedGraph) -> Configuration:
    """All non-root processes isolated (parent self, distance 0)."""
    return tuple(
        ROOT_STATE if u == g.root_id else ProcessState(S_I, u, 0)
        for u in range(g.node_count)
    )


def random_configuration(g: WeightedGraph, seed: int, d_cap: int) -> Configuration:
    """Seeded arbitrary configuration: any status, any neighbor-or-self
    parent, any distance in [0, d_cap]."""
    if d_cap < 0:
        raise ConfigurationError(f"d_cap must be >= 0, got {d_cap}")
    rng = random.Random(seed)
    states = []
    for u in range(g.node_count):
        if u == g.root_id:
            states.append(ROOT_STATE)
            continue
        status = rng.choice(list(Status))
        par = rng.choice(sorted(g.adjacency[u]) + [u])
        states.append(ProcessState(status, par, rng.randint(0, d_cap)))
    return tuple(states)


def validate_configuration(config: Configuration, g: WeightedGraph) -> None:
    if len(config) != g.node_count:
        raise ConfigurationError(
            f"configuration has {len(config)} states for {g.node_count} nodes"
        )
    for u, state in enumerate(config):
        if u == g.root_id:
            if state != ROOT_STATE:
                raise ConfigurationError(f"root state must be {ROOT_STATE}, got {state}")
            continue
        if not isinstance(state.status, Status):
            raise ConfigurationError(f"node {u}: bad status {state.status!r}")
        if not isinstance(state.par, int) or not 0 <= state.par < g.node_count:
            raise ConfigurationError(f"node {u}: bad parent {state.par!r}")
        if not isinstance(state.d, int) or state.d < 0:
            raise ConfigurationError(f"node {u}: bad distance {state.d!r}")


def enabled(config: Configuration, g: WeightedGraph) -> dict[int, Move]:
    """The enabled move of every enabled process, in node order; empty
    exactly when ``config`` is terminal."""
    root = g.root_id
    moves: dict[int, Move] = {}
    for u in range(g.node_count):
        if u != root:
            move = protocol.enabled_rule(config, g, u)
            if move is not None:
                moves[u] = move
    return moves


@dataclass
class ExecutionTrace:
    """An execution as the trace file holds it: the initial configuration
    and, per step, the move each selected process fired. ``steps[i]`` maps
    each process selected at step ``i`` to its rule and the state it wrote,
    so configuration ``i + 1`` differs from configuration ``i`` only at the
    keys of ``steps[i]``. ``steps`` is None when ``run`` fed each step to
    consumers instead of keeping it; ``step_count`` counts the steps either
    way. ``final`` is the last configuration. ``round_ends`` lists the
    configuration indices at which each round closes."""

    initial: Configuration
    steps: list[dict[int, Move]] | None
    step_count: int
    final: Configuration
    terminated: bool
    round_ends: list[int]

    @property
    def rounds(self) -> int:
        """Closed rounds, plus one for a trailing partial round if any."""
        closed = self.round_ends[-1] if self.round_ends else 0
        return len(self.round_ends) + (1 if closed < self.step_count else 0)


def default_max_steps(g: WeightedGraph) -> int:
    """Ten times the worst-case step bound: a violated bound shows up as
    non-termination instead of an endless run."""
    return max(10, 10 * analysis.step_bound_for(g))


def run(
    config: Configuration,
    g: WeightedGraph,
    policy,
    max_steps: int | None = None,
    consumers=None,
) -> ExecutionTrace:
    """Drive ``policy`` until a terminal configuration or ``max_steps``.

    This loop is the package's one step path. After each step it calls
    ``consumer.step(config, fired, round_closed)`` on each of
    ``consumers`` (the live configuration, valid only during the call, the
    fired moves by node, and whether the step closed a round); given
    none, it keeps every step in ``trace.steps`` instead.

    A round closes once every process enabled at its start has either
    fired or been neutralized (enabled before a step, disabled after).

    After a step, only the answers the step can change are evaluated
    again: those of the fired processes, and of the neighbours that
    ``protocol.readers`` names for each fired move. It is asked before the
    fired process writes its state, while the move map still holds every
    answer from before the step.
    """
    validate_configuration(config, g)
    if max_steps is None:
        max_steps = default_max_steps(g)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    readers = protocol.readers
    moves = enabled(config, g)
    view = MappingProxyType(moves)
    pending = set(moves)
    initial, config = config, list(config)
    steps: list[dict[int, Move]] | None = None if consumers else []
    feeds = [consumer.step for consumer in consumers or ()]
    round_ends: list[int] = []
    count = 0
    while moves and count < max_steps:
        selection = frozenset(policy.select(config, g, view))
        if not selection:
            raise SelectionError("selection must be nonempty")
        fired: dict[int, Move] = {}
        affected = set(selection)
        for u in selection:
            move = moves.get(u)
            if move is None:
                idle = sorted(v for v in selection if v not in moves)
                raise SelectionError(f"selected processes {idle} are not enabled")
            fired[u] = move
            affected.update(readers(config, g, u, move, moves))
            config[u] = move.state
        pending -= selection
        for u in affected:
            move = protocol.enabled_rule(config, g, u)
            if move is None:
                moves.pop(u, None)
                pending.discard(u)  # neutralized: enabled before, disabled now
            else:
                moves[u] = move
        count += 1
        closed = not pending
        if closed:
            round_ends.append(count)
            pending = set(moves)
        if steps is not None:
            steps.append(fired)
        for feed in feeds:
            feed(config, fired, closed)
    return ExecutionTrace(
        initial=initial,
        steps=steps,
        step_count=count,
        final=tuple(config),
        terminated=not moves,
        round_ends=round_ends,
    )


class _RecordedSelections:
    """The daemon of a replay: each recorded step in turn, refused by index
    if it selects no process, a process not enabled, or another move."""

    def __init__(self, steps):
        self._steps = enumerate(steps)

    def select(self, config, g, enabled):
        index, fired = next(self._steps, (None, None))
        if fired is None:
            raise ValueError(f"the trace records no step, yet processes {sorted(enabled)} are enabled")
        if not fired:
            raise SelectionError(f"step {index}: selection must be nonempty")
        for u, move in fired.items():
            if u not in enabled:
                raise SelectionError(f"step {index}: process {u} is not enabled")
            if enabled[u] != move:
                text = "{} to ({}, {}, {})".format
                raise SelectionError(
                    f"step {index}: process {u} records {text(move.rule, *move.state)}, "
                    f"the protocol computes {text(enabled[u].rule, *enabled[u].state)}"
                )
        return fired


def check_trace(trace: ExecutionTrace, g: WeightedGraph) -> analysis.TraceReport:
    """The ``TraceWalk`` of a trace that kept its steps, fed by replaying
    them through ``run``. A step the protocol would not take raises
    ``SelectionError``; a trace whose steps went to consumers (``steps`` is
    None) or that ends other than its replay raises ``ValueError``."""
    if trace.steps is None:
        raise ValueError("check_trace needs the trace's steps; run kept none, as it fed consumers")
    if len(trace.steps) != trace.step_count:
        raise ValueError(f"the trace records {len(trace.steps)} steps and a step_count of {trace.step_count}")
    validate_configuration(trace.initial, g)  # before the walk reads it
    walk = analysis.TraceWalk(trace.initial, g)
    replay = run(trace.initial, g, _RecordedSelections(trace.steps), max(1, trace.step_count), [walk])
    for field in ("step_count", "round_ends", "terminated"):
        if getattr(replay, field) != getattr(trace, field):
            raise ValueError(f"the trace records {field}={getattr(trace, field)}, the replay {getattr(replay, field)}")
    if replay.final != trace.final:
        raise ValueError("the trace's final configuration is not the replay's")
    return walk.report(trace.terminated)


# --- configuration file format ---------------------------------------------
#
# One line per non-root process (the constant root line is omitted):
#   p <id> <status:I|C|EB|EF> <par:id> <d:uint>


def format_configuration(config: Configuration, g: WeightedGraph) -> str:
    lines = []
    for u, state in enumerate(config):
        if u == g.root_id:
            continue
        lines.append(f"p {u} {state.status.value} {state.par} {state.d}")
    return "\n".join(lines) + "\n"


def parse_configuration(text: str, g: WeightedGraph) -> Configuration:
    states: dict[int, ProcessState] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "p" or len(fields) != 5:
            raise ConfigurationError(f"line {lineno}: expected 'p <id> <status> <par> <d>'")
        try:
            u = int(fields[1])
            status = Status(fields[2])
            par = int(fields[3])
            d = int(fields[4])
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from exc
        if not 0 <= u < g.node_count or u == g.root_id:
            raise ConfigurationError(f"line {lineno}: bad process id {u}")
        if u in states:
            raise ConfigurationError(f"line {lineno}: duplicate process {u}")
        states[u] = ProcessState(status, par, d)
    missing = [u for u in range(g.node_count) if u != g.root_id and u not in states]
    if missing:
        raise ConfigurationError(f"missing states for processes {missing}")
    config = tuple(
        ROOT_STATE if u == g.root_id else states[u] for u in range(g.node_count)
    )
    validate_configuration(config, g)
    return config


def load_configuration(path, g: WeightedGraph) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_configuration(fh.read(), g)


def save_configuration(config: Configuration, g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_configuration(config, g))


# --- trace output -----------------------------------------------------------
#
# JSON lines: one header record, then one record per step carrying the
# selection, the fired rules, and the post-step states of selected nodes.


_RULE_NAME = {rule: rule.value for rule in Rule}
_STATUS_NAME = {status: status.value for status in Status}


def _header(initial: Configuration, terminated: bool, graph_name: str, seed: int | None, daemon: str) -> str:
    header = {
        "type": "header",
        "graph": graph_name,
        "seed": seed,
        "daemon": daemon,
        "terminated": terminated,
        "initial": [[_STATUS_NAME[status], par, d] for status, par, d in initial],
    }
    return json.dumps(header) + "\n"


def _step_record(index: int, fired: Mapping[int, Move]) -> str:
    """The record of step ``index``. Every step field is an int or a fixed
    ASCII name, so it is formatted directly, byte for byte as
    ``json.dumps`` would write it."""
    moves = sorted(fired.items())
    return '{"type": "step", "index": %d, "selected": [%s], "fired": {%s}, "post": {%s}}\n' % (
        index,
        ", ".join([str(u) for u, _ in moves]),
        ", ".join(['"%d": "%s"' % (u, _RULE_NAME[rule]) for u, (rule, _) in moves]),
        ", ".join(['"%d": ["%s", %d, %d]' % (u, _STATUS_NAME[status], par, d)
                   for u, (_, (status, par, d)) in moves]),
    )


def write_trace(
    trace: ExecutionTrace,
    fh: IO[str],
    *,
    graph_name: str = "",
    seed: int | None = None,
    daemon: str = "",
) -> None:
    """Write a trace that kept its steps; a trace whose steps went to
    consumers (``trace.steps`` is None) raises ``ValueError``, since a
    ``TraceWriter`` writes such a run as it happens."""
    if trace.steps is None:
        raise ValueError("write_trace needs the trace's steps; run kept none, as it fed consumers")
    fh.write(_header(trace.initial, trace.terminated, graph_name, seed, daemon))
    for i, fired in enumerate(trace.steps):
        fh.write(_step_record(i, fired))


#: Bytes of step records a ``TraceWriter`` holds in memory before it
#: moves them to a temporary file.
_SPOOL_BYTES = 4 << 20

#: Bytes of formatted records a ``TraceWriter`` joins before one write to
#: its spool. A size, not a record count, keeps the batch small however
#: many processes fire per step.
_FLUSH_BYTES = 64 << 10


class TraceWriter:
    """A ``run`` consumer that writes the trace file as the steps fire.

    The header holds ``terminated``, known only at the end, and comes
    first. So each step's record is formatted as the step fires, the
    records are joined into one write to a spooled temporary file once
    they reach ``_FLUSH_BYTES``, and ``finish`` writes the header and
    copies the records after it: the bytes ``write_trace`` writes.
    ``close`` releases the spooled file.
    """

    def __init__(self, fh: IO[str], initial: Configuration, *, graph_name="", seed=None, daemon=""):
        self._fh, self._initial, self._header = fh, initial, (graph_name, seed, daemon)
        self._records = tempfile.SpooledTemporaryFile(_SPOOL_BYTES, mode="w+", encoding="ascii")
        self._batch: list[str] = []
        self._batch_bytes = 0
        self._index = 0

    def step(self, config, fired: Mapping[int, Move], round_closed: bool) -> None:
        record = _step_record(self._index, fired)
        self._index += 1
        self._batch.append(record)
        self._batch_bytes += len(record)  # ASCII: one byte per character
        if self._batch_bytes >= _FLUSH_BYTES:
            self._flush()

    def _flush(self) -> None:
        self._records.write("".join(self._batch))
        self._batch.clear()
        self._batch_bytes = 0

    def finish(self, terminated: bool) -> None:
        self._flush()
        self._fh.write(_header(self._initial, terminated, *self._header))
        self._records.seek(0)
        shutil.copyfileobj(self._records, self._fh)

    def close(self) -> None:
        """Drop the records, batched or spooled, and the spool's temporary
        file if any."""
        self._batch.clear()
        self._records.close()
