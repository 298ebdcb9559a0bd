"""Per-process rules of the self-stabilizing shortest-path tree protocol.

Everything here is a pure function of (configuration, graph, node): guards
and actions read the pre-step states of a process and its neighbors and
return values instead of mutating anything. A configuration is a tuple of
:class:`ProcessState` indexed by node id.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Optional

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
    R_EF = "R_EF"  # acknowledge the freeze once every child has
    R_I = "R_I"    # leave a dead tree with no live neighbor to join
    R_R = "R_R"    # (re)join a live tree through a correct neighbor

    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The members as module constants for function bodies to read. Guards read
#: them in per-neighbour loops, and on Python 3.11 ``Status.C`` costs about
#: 140 ns against about 20 ns for a global.
S_I, S_C, S_EB, S_EF = Status.I, Status.C, Status.EB, Status.EF
R_C, R_EB, R_EF, R_I, R_R = Rule.R_C, Rule.R_EB, Rule.R_EF, Rule.R_I, Rule.R_R


class ProcessState(NamedTuple):
    status: Status
    par: Optional[int]  # parent pointer; None only at the root
    d: int              # distance estimate


#: The root never moves: correct, no parent, distance zero.
ROOT_STATE = ProcessState(Status.C, None, 0)

Configuration = tuple[ProcessState, ...]


class RootQueriedError(Exception):
    """A rule predicate was evaluated at the root, which has no rules."""


def ab_root(config: Configuration, g: WeightedGraph, u: int) -> bool:
    """True iff ``u`` locally detects that it heads a broken tree."""
    if u == g.root_id:
        raise RootQueriedError(u)
    su, pu, du = config[u]
    if su is S_I:
        return False
    adj = g.adjacency[u]
    if pu not in adj:
        return True
    sp, _, dp = config[pu]
    if sp is S_I:
        return True
    if du < dp + adj[pu]:
        return True
    return su is not sp and sp is not S_EB


class Move(NamedTuple):
    """An enabled rule and the state that firing it writes."""

    rule: Rule
    state: ProcessState


def enabled_rule(config: Configuration, g: WeightedGraph, u: int) -> Move | None:
    """The unique enabled move of ``u``, or None.

    The guards split by status. Within a status, one scan over the
    neighbours finds the cheapest correct neighbour ``(d_v + w, v)``, ties
    broken toward the smallest id so that executions are reproducible. That
    one result decides ``R_C`` (it beats ``d_u``), whether ``R_R`` can fire
    (it exists), and the state both of them write.

    An EB process acknowledges (``R_EF``) once every child has: its scan
    stops at the first neighbour ``v`` with ``par_v == u``,
    ``d_v >= d_u + w`` and a status other than I or EF. An EB parent
    accepts a child of any status but I, so no child set is built.
    """
    if u == g.root_id:
        raise RootQueriedError(u)
    su, pu, du = config[u]
    if su is S_EB:
        for v, w in g.adjacency[u].items():
            sv, pv, dv = config[v]
            if pv == u and sv is not S_I and sv is not S_EF and dv >= du + w:
                return None
        return Move(R_EF, ProcessState(S_EF, pu, du))
    if su is S_EF and not ab_root(config, g, u):
        return None
    adj = g.adjacency[u]
    best_d = best_v = None
    for v, w in adj.items():
        sv, _, dv = config[v]
        if sv is S_C:
            dv += w
            if best_d is None or dv < best_d or (dv == best_d and v < best_v):
                best_d, best_v = dv, v
    if su is S_C:
        if best_d is not None and best_d < du:
            return Move(R_C, ProcessState(S_C, best_v, best_d))
        if ab_root(config, g, u) or (pu in adj and config[pu].status is S_EB):
            return Move(R_EB, ProcessState(S_EB, pu, du))
        return None
    # su is S_EF at an abnormal root, or S_I
    if best_d is not None:
        return Move(R_R, ProcessState(S_C, best_v, best_d))
    return Move(R_I, ProcessState(S_I, pu, du)) if su is S_EF else None


def readers(config: Configuration, g: WeightedGraph, u: int, move: Move, moves: Mapping[int, Move]) -> list[int]:
    """The neighbours of ``u`` whose answer from ``enabled_rule`` can change
    when ``u`` fires ``move``. ``config[u]`` is still ``u``'s old state,
    and ``moves`` maps each process to its answer before the step. The
    root is never named: its parent is None and no offer is below its 0.

    ``enabled_rule(config, g, v)`` reads a neighbour ``u`` of ``v`` in
    three places only, and ``v`` is named when one of them can change:

    - ``ab_root(v)`` and the EB-parent test read ``u`` only if
      ``par_v == u``: always named;
    - an EB process's child scan reads ``u`` only if ``par_u == v``. It is
      named when ``u`` starts or stops holding it up: a child of ``v``, in
      status C or EB, with ``d_u >= d_v + w``;
    - the cheapest-C scan reads ``u``'s offer ``d_u + w`` only while ``u``
      is in status C. If ``v``'s recorded ``R_C`` or ``R_R`` parent is
      ``u``, or ``u`` now ties or beats it, ``v`` is named; a tie counts,
      so no tie-break is assumed. With no recorded best, ``v`` is named
      when ``u`` now offers less than ``d_v`` (``v`` in status C) or offers
      anything (``v`` in status I, or EF with ``R_I``). An EF process with
      no move is not an abnormal root and answers None whatever it is
      offered.

    When several neighbours of ``v`` fire in one step, each is judged
    against the same recorded answer. If none names ``v``, its parent did
    not fire, its standing as an EB parent did not change, and its recorded
    best offer did not fire while every changed offer is worse: so ``v``
    keeps the recorded answer. A change to how a guard reads its
    neighbours must change this function with it.
    """
    su, pu, du = config[u]
    sn, pn, dn = move.state
    old_blocks = su is S_C or su is S_EB  # the statuses that hold up an EB parent
    new_blocks = sn is S_C or sn is S_EB
    offers = su is S_C or sn is S_C
    named = []
    for v, w in g.adjacency[u].items():
        sv, pv, dv = config[v]
        if pv == u:
            named.append(v)
        elif sv is S_EB:
            if (pu == v and old_blocks and du >= dv + w) != (pn == v and new_blocks and dn >= dv + w):
                named.append(v)
        elif offers:
            mv = moves.get(v)
            if mv is not None and (mv.rule is R_C or mv.rule is R_R):
                if mv.state.par == u or (sn is S_C and dn + w <= mv.state.d):
                    named.append(v)
            elif sn is S_C and (dn + w < dv if sv is S_C else sv is S_I or mv is not None):
                named.append(v)
    return named
