"""Local lemmas checked on every small star, not only on sampled graphs.

A guard reads only its process's closed neighbourhood, so a claim about
which neighbours a step can affect is a claim about one neighbourhood at a
time. A star holds one: a centre ``v`` (node 1) and ``k`` leaves (nodes 2
to k + 1), with the root (node 0) apart, so that every process of the star
can take every state. Each leaf has one neighbour, the centre; a parent
other than the centre stands for every other parent a leaf may have,
since the centre reads only whether a leaf's parent is the centre.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from stabtree import protocol
from stabtree.graph import build_graph
from stabtree.protocol import ROOT_STATE, Move, ProcessState, Rule, Status

CENTRE = 1


def star_graph(weights):
    """The star whose leaf ``2 + i`` hangs off the centre by weight
    ``weights[i]``, beside an isolated root."""
    return build_graph([(CENTRE, 2 + i, w) for i, w in enumerate(weights)], len(weights) + 2, 0)


def centre_states(k, max_d):
    """Every status, every neighbour-or-self parent and every distance up
    to ``max_d`` of the centre of a star with ``k`` leaves."""
    parents = [CENTRE, *range(2, k + 2)]
    return [ProcessState(s, p, d) for s in Status for p in parents for d in range(max_d + 1)]


def leaf_states(leaf, max_d):
    """Every status, a parent of the centre or the leaf itself, and every
    distance up to ``max_d``."""
    return [ProcessState(s, p, d) for s in Status for p in (CENTRE, leaf) for d in range(max_d + 1)]


def leaf_moves(state, leaf, max_d):
    """Every state change a rule can write at ``leaf`` in ``state``: to a
    correct parent at any smaller distance (``R_C``, from C) or any
    distance from 1 (``R_R``, from EF or I), and the status changes that
    keep ``par`` and ``d`` (``R_EB``, ``R_EF``, ``R_I``). Distances stay
    within ``max_d``, so every written state is again a leaf state."""
    status, par, d = state
    rejoin = [(p, e) for p in (CENTRE, leaf) for e in range(1, max_d + 1)]
    if status is Status.C:
        moves = [Move(Rule.R_C, ProcessState(Status.C, p, e)) for p, e in rejoin if e < d]
        return moves + [Move(Rule.R_EB, ProcessState(Status.EB, par, d))]
    if status is Status.EB:
        return [Move(Rule.R_EF, ProcessState(Status.EF, par, d))]
    moves = [Move(Rule.R_R, ProcessState(Status.C, p, e)) for p, e in rejoin]
    if status is Status.EF:
        moves.append(Move(Rule.R_I, ProcessState(Status.I, par, d)))
    return moves


class Counterexample(NamedTuple):
    weights: tuple[int, ...]
    config: tuple[ProcessState, ...]
    fired: dict[int, Move]  # the leaves that fired, none of which named the centre
    before: Move | None  # the centre's answer before the step
    after: Move | None  # and after it


class ReadersCheck(NamedTuple):
    checked: int  # (star, fired moves) pairs whose readers left the centre out
    wrong: int  # of those, the pairs after which the centre's answer changed
    first: Counterexample | None


def check_readers(readers=None, k=2, max_weight=2, max_d=3) -> ReadersCheck:
    """Check that ``enabled_rule`` at the centre keeps its answer whenever
    ``readers`` (``protocol.readers`` by default) leaves the centre out.

    Every star with 1 to ``k`` leaves, weights up to ``max_weight`` and
    distances up to ``max_d`` is enumerated. In each, every nonempty set of
    leaves fires, each leaf with every move ``leaf_moves`` gives it. A
    fired leaf ``u`` is asked ``readers(config, g, u, move, moves)`` with
    ``config[u]`` still its old state and ``moves`` holding the centre's
    answer before the step, as ``engine.run`` asks it. ``readers`` is
    asked once per leaf view, the leaf's and the centre's states with the
    centre's answer, so it may read only the leaf's closed neighbourhood.
    ``enabled_rule`` and ``ab_root`` are looked up on ``protocol`` at each
    call, so a monkeypatched mutant is what gets checked.
    """
    ask = readers or protocol.readers
    checked = wrong = 0
    first = None
    for degree in range(1, k + 1):
        leaves = [leaf_states(2 + i, max_d) for i in range(degree)]
        index = [{state: j for j, state in enumerate(states)} for states in leaves]
        # Per leaf and state index: each written state's index -> its move.
        moves_at = [
            [{index[i][move.state]: move for move in leaf_moves(state, 2 + i, max_d)} for state in states]
            for i, states in enumerate(leaves)
        ]
        for weights in itertools.product(range(1, max_weight + 1), repeat=degree):
            g = star_graph(weights)
            for centre in centre_states(degree, max_d):
                configs = {
                    combo: (ROOT_STATE, centre, *(leaves[i][j] for i, j in enumerate(combo)))
                    for combo in itertools.product(*(range(len(states)) for states in leaves))
                }
                answers = {combo: protocol.enabled_rule(config, g, CENTRE) for combo, config in configs.items()}
                # (leaf, state index, the centre's answer) -> the leaf's state
                # index and those its moves that leave the centre out write.
                kept = {}
                for combo, before in answers.items():
                    options = []
                    for i, j in enumerate(combo):
                        key = (i, j, before)
                        if key not in kept:
                            recorded = {} if before is None else {CENTRE: before}
                            kept[key] = [j] + [
                                post for post, move in moves_at[i][j].items()
                                if CENTRE not in ask(configs[combo], g, 2 + i, move, recorded)
                            ]
                        options.append(kept[key])
                    steps = itertools.product(*options)
                    next(steps)  # the first choice fires no leaf
                    changed = [after for after in steps if answers[after] != before]
                    checked += math.prod(map(len, options)) - 1
                    wrong += len(changed)
                    if changed and first is None:
                        after = changed[0]
                        fired = {2 + i: moves_at[i][j][a] for i, (j, a) in enumerate(zip(combo, after)) if a != j}
                        first = Counterexample(weights, configs[combo], fired, before, answers[after])
    return ReadersCheck(checked, wrong, first)

