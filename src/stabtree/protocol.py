"""Per-process rules of the self-stabilizing shortest-path tree protocol.

Everything here is a pure function of (configuration, graph, node): guards
and actions read the pre-step states of a process and its neighbors and
return values instead of mutating anything. A configuration is a tuple of
:class:`ProcessState` indexed by node id.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .graph import WeightedGraph


class Status(enum.Enum):
    I = "I"    # isolated: believes it is outside the root's component
    C = "C"    # correct: member of some tree
    EB = "EB"  # error broadcast wave, travelling down a broken tree
    EF = "EF"  # error feedback wave, travelling back up

    # Members are singletons, so identity hashing is exact and skips
    # Enum.__hash__, a Python-level call on every memo probe.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Rule(enum.Enum):
    R_C = "R_C"    # switch to a strictly cheaper parent
    R_EB = "R_EB"  # start/propagate the freeze broadcast
    R_EF = "R_EF"  # acknowledge the freeze once all children have
    R_I = "R_I"    # leave a dead tree with no live neighbor to join
    R_R = "R_R"    # (re)join a live tree through a correct neighbor

    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ProcessState(NamedTuple):
    status: Status
    par: Optional[int]  # parent pointer; None only at the root
    d: int              # distance estimate


#: The root never moves: correct, no parent, distance zero.
ROOT_STATE = ProcessState(Status.C, None, 0)

Configuration = tuple[ProcessState, ...]


class ProtocolError(Exception):
    pass


class RootQueriedError(ProtocolError):
    """A rule predicate was evaluated at the root, which has no rules."""


class NoCandidateParentError(ProtocolError):
    """compute_path called without any correct neighbor (caller bug)."""


def children(config: Configuration, g: WeightedGraph, u: int) -> frozenset[int]:
    """Neighbors of ``u`` that currently count as its tree children."""
    su, _, du = config[u]
    if su is Status.I:
        return frozenset()
    out = []
    for v, w in g.adjacency[u].items():
        sv, pv, dv = config[v]
        if (
            sv is not Status.I
            and pv == u
            and dv >= du + w
            and (sv is su or su is Status.EB)
        ):
            out.append(v)
    return frozenset(out)


def ab_root(config: Configuration, g: WeightedGraph, u: int) -> bool:
    """True iff ``u`` locally detects that it heads a broken tree."""
    if u == g.root_id:
        raise RootQueriedError(u)
    su, pu, du = config[u]
    if su is Status.I:
        return False
    adj = g.adjacency[u]
    if pu not in adj:
        return True
    sp, _, dp = config[pu]
    if sp is Status.I:
        return True
    if du < dp + adj[pu]:
        return True
    return su is not sp and sp is not Status.EB


def p_correction(config: Configuration, g: WeightedGraph, u: int) -> bool:
    if u == g.root_id:
        raise RootQueriedError(u)
    du = config[u].d
    for v, w in g.adjacency[u].items():
        sv, _, dv = config[v]
        if sv is Status.C and dv + w < du:
            return True
    return False


def compute_path(config: Configuration, g: WeightedGraph, u: int) -> ProcessState:
    """Adopt the correct neighbor minimizing the resulting distance.

    Ties are broken toward the smallest neighbor id so that executions are
    reproducible.
    """
    if u == g.root_id:
        raise RootQueriedError(u)
    best: tuple[int, int] | None = None
    for v, w in g.adjacency[u].items():
        sv, _, dv = config[v]
        if sv is Status.C:
            cand = (dv + w, v)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise NoCandidateParentError(u)
    d, v = best
    return ProcessState(Status.C, v, d)


def enabled_rule(config: Configuration, g: WeightedGraph, u: int) -> Rule | None:
    """The unique enabled rule of ``u``, or None. The guards split by
    status, and within a status by ``p_correction`` or a correct neighbor."""
    if u == g.root_id:
        raise RootQueriedError(u)
    su, pu, _ = config[u]
    adj = g.adjacency[u]
    if su is Status.C:
        if p_correction(config, g, u):
            return Rule.R_C
        if ab_root(config, g, u) or (pu in adj and config[pu].status is Status.EB):
            return Rule.R_EB
        return None
    if su is Status.EB:
        for v in children(config, g, u):
            if config[v].status is not Status.EF:
                return None
        return Rule.R_EF
    has_c = any(config[v].status is Status.C for v in adj)
    if su is Status.EF:
        if not ab_root(config, g, u):
            return None
        return Rule.R_R if has_c else Rule.R_I
    # su is Status.I
    return Rule.R_R if has_c else None


def apply_rule(config: Configuration, g: WeightedGraph, u: int, rule: Rule) -> ProcessState:
    """New state of ``u`` after firing ``rule``, which must be the rule
    enabled at ``u``: the guard is not checked again."""
    if rule is Rule.R_C or rule is Rule.R_R:
        return compute_path(config, g, u)
    st, pu, du = config[u]
    if rule is Rule.R_EB:
        return ProcessState(Status.EB, pu, du)
    if rule is Rule.R_EF:
        return ProcessState(Status.EF, pu, du)
    return ProcessState(Status.I, pu, du)
