"""Weighted graph model and the metric oracles the protocol is judged against.

Distances, components, hop diameters and the like are computed here with
standard graph algorithms, completely independently of the protocol state
machine, so they can serve as ground truth in checks.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

#: Sentinel for "no path"; compares above every finite distance.
INFINITY = math.inf


class GraphError(ValueError):
    """A bad graph: malformed file text, an invalid edge list or node id,
    or bad generator parameters. The message names the failed check."""


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with positive integer edge weights.

    Immutable after construction; safe to share between concurrently
    running simulations. ``adjacency[u]`` maps each neighbor of ``u`` to
    the weight of the connecting edge. ``_oracles`` holds the values of
    the ``@_per_graph`` oracles, each computed on its first call.
    """

    node_count: int
    root_id: int
    adjacency: tuple[Mapping[int, int], ...]
    _oracles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def check_node(self, u: int) -> None:
        if not isinstance(u, int) or not 0 <= u < self.node_count:
            raise GraphError(f"invalid node id {u!r}")

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once, as (u, v, w) with u < v."""
        for u in range(self.node_count):
            for v, w in self.adjacency[u].items():
                if u < v:
                    yield u, v, w


def build_graph(
    edge_list: Iterable[tuple[int, int, int]],
    node_count: int,
    root_id: int,
) -> WeightedGraph:
    """Validate and build a :class:`WeightedGraph` from an edge list."""
    if node_count < 1:
        raise GraphError(f"node_count must be positive, got {node_count}")
    if not isinstance(root_id, int) or not 0 <= root_id < node_count:
        raise GraphError(f"invalid root id {root_id!r}")
    adjacency: list[dict[int, int]] = [{} for _ in range(node_count)]
    for u, v, w in edge_list:
        for x in (u, v):
            if not isinstance(x, int) or not 0 <= x < node_count:
                raise GraphError(f"invalid node id {x!r} in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if not isinstance(w, int) or w < 1:
            raise GraphError(f"edge ({u}, {v}) has weight {w!r}; weights must be integers >= 1")
        if v in adjacency[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        adjacency[u][v] = w
        adjacency[v][u] = w
    return WeightedGraph(
        node_count=node_count,
        root_id=root_id,
        adjacency=tuple(MappingProxyType(a) for a in adjacency),
    )


def _lex_adjacency(g: WeightedGraph) -> list[list[tuple[int, int]]]:
    """Per node ``u``, ``(v, (w * n + 1) * n + v - u)``: what a heap entry of
    :func:`_lex_dijkstra` gains along the edge to ``v`` (weight, hop, id)."""
    n = g.node_count
    return [[(v, (w * n + 1) * n + v - u) for v, w in adj.items()] for u, adj in enumerate(g.adjacency)]


def _lex_dijkstra(adj: list[list[tuple[int, int]]], src: int) -> list[int | float]:
    """Per node, ``weight * n + hops`` of its lexicographically smallest
    (min path weight, min hop count among minimum-weight paths) path from
    ``src``; INFINITY for unreachable nodes. ``adj`` is :func:`_lex_adjacency`.

    Weights are positive, so that path is simple: ``hops <= n - 1``, and
    ordering by the integer is ordering by (weight, hops). ``key // n``
    is the weight and ``key % n`` the hops. The heap holds single ints
    ``key * n + node``. This is the package's only shortest-path routine.
    """
    n = len(adj)
    best: list[int | float] = [INFINITY] * n
    best[src] = src
    heap = [src]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = pop(heap)
        u = e % n
        if e > best[u]:
            continue
        for v, step in adj[u]:
            ev = e + step
            if ev < best[v]:
                best[v] = ev
                push(heap, ev)
    return [INFINITY if e == INFINITY else e // n for e in best]


def _per_graph(oracle):
    """Memoise an oracle of one graph on the graph itself; the graph never
    changes, so neither does the (immutable) value."""
    key = oracle.__name__

    @functools.wraps(oracle)
    def cached(g: WeightedGraph):
        value = g._oracles.get(key)
        if value is None:
            value = g._oracles[key] = oracle(g)
        return value

    return cached


@_per_graph
def _root_keys(g: WeightedGraph) -> tuple[int | float, ...]:
    """The root's lex sweep: ``weight * n + hops`` per node, both root
    oracles and the first sweep of :func:`hop_diameter_root` in one."""
    return tuple(_lex_dijkstra(_lex_adjacency(g), g.root_id))


@_per_graph
def root_distances(g: WeightedGraph) -> tuple[int | float, ...]:
    """Weighted distance from every node to the root (the legitimacy oracle)."""
    n = g.node_count
    return tuple(INFINITY if k == INFINITY else k // n for k in _root_keys(g))


@_per_graph
def root_hop_distances(g: WeightedGraph) -> tuple[int | float, ...]:
    """Hop distance to the root: fewest edges among minimum-weight paths."""
    n = g.node_count
    return tuple(INFINITY if k == INFINITY else k % n for k in _root_keys(g))


@dataclass(frozen=True)
class ComponentInfo:
    """Connected-component decomposition plus the metrics used by the bounds.

    ``components[c]`` lists the nodes of component ``c`` in increasing
    order, and ``component_of[u]`` is the component of node ``u``.
    ``n_max_cc`` is the maximum number of non-root processes in a single
    connected component; ``w_min`` and ``w_max`` are the smallest and
    largest edge weights (both 1 for an edgeless graph).
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    n_max_cc: int
    w_max: int
    w_min: int


@_per_graph
def component_info(g: WeightedGraph) -> ComponentInfo:
    comp = [-1] * g.node_count
    n_comp = 0
    for start in range(g.node_count):
        if comp[start] != -1:
            continue
        comp[start] = n_comp
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if comp[v] == -1:
                    comp[v] = n_comp
                    stack.append(v)
        n_comp += 1
    members: list[list[int]] = [[] for _ in range(n_comp)]
    for u, c in enumerate(comp):
        members[c].append(u)
    root_comp = comp[g.root_id]
    weights = [w for _, _, w in g.edges()]
    return ComponentInfo(
        component_of=tuple(comp),
        components=tuple(map(tuple, members)),
        n_max_cc=max(len(nodes) - (c == root_comp) for c, nodes in enumerate(members)),
        w_max=max(weights, default=1),
        w_min=min(weights, default=1),
    )


def _balls(g: WeightedGraph, members: tuple[int, ...]) -> Iterator[list[int]]:
    """Distance balls over ``members`` (a component, increasing ids): level
    ``t`` is the list of ``B_t(v)`` for the members ``v`` in order, each
    an int whose bit ``k`` is set iff ``dist(v, members[k]) <= t``.

    ``B_0(v) = {v}``, and ``B_t(v)`` is ``{v}`` joined with ``B_{t-w}(u)``
    for each neighbour ``u`` of ``v`` whose edge weight ``w`` is at most
    ``t``: dropping the first edge of a path of weight at most ``t`` leaves
    a path of weight at most ``t - w``. Only the last ``w_max`` levels are
    kept; a level costs one int OR per directed edge.
    """
    index = dict(zip(members, range(len(members))))
    nbrs = [[(w - 1, index[u]) for u, w in g.adjacency[v].items()] for v in members]
    keep = max((j for row in nbrs for j, _ in row), default=0) + 1  # w_max
    level = [1 << k for k in range(len(members))]
    window, t = [level], 0  # window[j] is B_{t-j}
    while True:
        yield level
        level = []
        for k, row in enumerate(nbrs):
            b = 1 << k
            for j, u in row:
                if j <= t:  # B_{t+1-w} with w = j + 1 exists
                    b |= window[j][u]
            level.append(b)
        window, t = [level, *window[: keep - 1]], t + 1


#: ``bytes.translate`` table from the digits of ``bin()`` to bytes 0 and 1.
_BIT = bytes.maketrans(b"01", b"\0\1")


@_per_graph
def hop_diameter_root(g: WeightedGraph) -> int:
    """Hop diameter of the root's component V_r (0 when the root is alone),
    counting the edges of minimum-weight paths; only the round bound needs
    it. Exact, from two kinds of evidence.

    Node bounds: a sweep from ``w`` gives its eccentricity, and
    ``ecc(u) <= (dist(u, w) + ecc_dist(w)) // w_min`` (a path of weight
    ``d`` has at most ``d // w_min`` edges) and ``<= |V_r| - 1``. Sweeps
    start with the root's memoised one and go on from the largest bound
    (smallest id on ties) until none beats ``best``, the largest
    eccentricity found. Only a sweep with ``ecc_dist(w) // w_min`` at most
    ``best`` can prune, so only such a sweep sets bounds.

    Pair bounds: with ``T = (best + 1) * w_min - 1``, a pair ``{u, v}``
    with ``dist(u, v) <= T`` has at most ``T // w_min = best`` edges on
    any minimum-weight path, so it cannot raise D. A pair is settled when
    ``u`` or ``v`` was swept, when either node's bound is at most
    ``best``, or when ``v`` is in the distance ball ``B_T(u)`` of
    :func:`_balls`. If every pair is settled, every pair has at most
    ``best`` hops and ``best`` is D. Building the balls to level ``T``
    costs about what ``T`` sweeps cost, so they are built only once ``T``
    sweeps beyond the root's have not finished, and extended whenever
    ``best`` grows. From then on the node with the most unsettled pairs
    (smallest id on ties) is swept, until none is left. The counts are
    kept incrementally: closing ``c`` settles its pairs with the open
    nodes outside ``B_T(c)``.
    """
    info = component_info(g)
    members = info.components[info.component_of[g.root_id]]
    if len(members) == 1:
        return 0
    n, m = g.node_count, len(members)
    w_min = min(min(g.adjacency[u].values()) for u in members)
    scale = n * w_min
    get = itemgetter(*members)
    keys = get(_root_keys(g))
    bound, diameter, i, adj = [m - 1] * m, 0, members.index(g.root_id), None
    sweeps, balls, reach = 0, None, -1  # ball is B_reach
    while True:
        diameter = max(diameter, max(map(n.__rmod__, keys)))
        far = max(keys) // n * n  # ecc_dist(w) * n; (key + far) // scale is the bound, as hops < n
        bounded = far // scale <= diameter
        if bounded:
            bound = list(map(min, bound, map(scale.__rfloordiv__, map(far.__add__, keys))))
        bound[i] = 0
        limit = (diameter + 1) * w_min - 1  # T
        if balls is None and sweeps < limit:
            i = bound.index(max(bound))
            if bound[i] <= diameter:
                return diameter
        else:
            if reach < limit:  # (re)count the unsettled pairs of each open node at the new T
                balls = balls or _balls(g, members)
                while reach < limit:
                    ball, reach = next(balls), reach + 1
                live = sum(1 << k for k in range(m) if bound[k] > diameter)
                total = live.bit_count()
                unsettled = [total - (live & b).bit_count() if bound[k] > diameter else 0 for k, b in enumerate(ball)]
            else:  # settle the pairs of each node that closed
                for c in [k for k, u in enumerate(unsettled) if u and bound[k] <= diameter] if bounded else [i]:
                    live ^= 1 << c
                    unsettled[c] = 0
                    # byte k is 1 iff k is open and outside B_T(c): bit k of the mask, low bit first
                    row = bin(live & ~ball[c])[:1:-1].ljust(m, "0").encode().translate(_BIT)
                    unsettled = list(map(sub, unsettled, row))
            i = unsettled.index(max(unsettled))
            if not unsettled[i]:
                return diameter
        adj = adj or _lex_adjacency(g)
        keys = get(_lex_dijkstra(adj, members[i]))
        sweeps += 1


def induced_subgraph(g: WeightedGraph, nodes: Iterable[int]) -> WeightedGraph:
    """The subgraph induced by ``nodes``, which must include the root.

    Nodes are renumbered 0.. in increasing id order. The renumbering is
    monotone, so every order the protocol and the explorer rely on (the
    smallest-id tie-break, the enumeration order of parents) is kept.
    """
    order = sorted(set(nodes))
    new_id = {u: i for i, u in enumerate(order)}
    for u in order:
        g.check_node(u)
    if g.root_id not in new_id:
        raise GraphError(f"induced subgraph must contain the root {g.root_id}")
    if len(order) == g.node_count:
        return g
    edges = [
        (new_id[u], new_id[v], w)
        for u in order
        for v, w in g.adjacency[u].items()
        if u < v and v in new_id
    ]
    return build_graph(edges, len(order), new_id[g.root_id])


def generate_random_graph(
    seed: int,
    node_count: int,
    edge_probability: float,
    max_weight: int,
    component_hint: int = 1,
    root_id: int = 0,
) -> WeightedGraph:
    """Deterministic seeded random graph.

    With ``component_hint`` >= 2 the nodes are partitioned into that many
    groups and no cross-group edge is ever drawn, which forces at least
    two connected components (a group may split further if sparse).
    """
    if max_weight < 1:
        raise GraphError(f"max_weight must be >= 1, got {max_weight}")
    if not 0 < edge_probability <= 1:
        raise GraphError(f"edge_probability must be in (0, 1], got {edge_probability}")
    rng = random.Random(seed)
    group = [0] * node_count
    if component_hint > 1:
        k = min(component_hint, node_count)
        order = list(range(node_count))
        rng.shuffle(order)
        for i, u in enumerate(order):
            group[u] = i % k
    edges = []
    for u in range(node_count):
        for v in range(u + 1, node_count):
            if group[u] != group[v]:
                continue
            if rng.random() < edge_probability:
                edges.append((u, v, rng.randint(1, max_weight)))
    return build_graph(edges, node_count, root_id)


# --- graph file format ------------------------------------------------------
#
# Line-oriented text, 0-based ids:
#   g <node_count> <root_id>
#   e <u> <v> <w>       (one line per edge)
#   # comment


def format_graph(g: WeightedGraph) -> str:
    lines = [f"g {g.node_count} {g.root_id}"]
    lines.extend(f"e {u} {v} {w}" for u, v, w in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "g":
            if header is not None:
                raise GraphError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: expected 'g <node_count> <root_id>'")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError as exc:
                raise GraphError(f"line {lineno}: {exc}") from exc
        elif fields[0] == "e":
            if header is None:
                raise GraphError(f"line {lineno}: edge before header")
            if len(fields) != 4:
                raise GraphError(f"line {lineno}: expected 'e <u> <v> <w>'")
            try:
                edges.append((int(fields[1]), int(fields[2]), int(fields[3])))
            except ValueError as exc:
                raise GraphError(f"line {lineno}: {exc}") from exc
        else:
            raise GraphError(f"line {lineno}: unknown record {fields[0]!r}")
    if header is None:
        raise GraphError("missing 'g' header line")
    return build_graph(edges, header[0], header[1])


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
