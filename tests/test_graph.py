import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stabtree import graph as graph_mod
from stabtree.graph import (
    INFINITY,
    GraphError,
    build_graph,
    component_info,
    format_graph,
    generate_random_graph,
    hop_diameter_root,
    induced_subgraph,
    parse_graph,
    root_distances,
    root_hop_distances,
)


def brute_force_distance(g, src, dst):
    """Oracle: exhaustive enumeration of simple paths (n <= 6 only)."""
    best = INFINITY

    def walk(u, seen, weight):
        nonlocal best
        if u == dst:
            best = min(best, weight)
            return
        for v, w in g.adjacency[u].items():
            if v not in seen:
                walk(v, seen | {v}, weight + w)

    walk(src, {src}, 0)
    return best


class TestConstruction:
    def test_minimal_graph(self):
        g = build_graph([(0, 1, 1)], 2, 0)
        assert g.node_count == 2
        assert g.adjacency[0][1] == 1
        assert component_info(g).components == ((0, 1),)

    def test_triangle_echo(self):
        g = build_graph([(0, 1, 2), (1, 2, 3), (2, 0, 1)], 3, 0)
        assert sorted(g.edges()) == [(0, 1, 2), (0, 2, 1), (1, 2, 3)]
        assert set(g.adjacency[1]) == {0, 2}

    def test_adjacency_symmetric(self):
        g = build_graph([(0, 1, 2), (1, 2, 3)], 3, 0)
        for u, v, w in g.edges():
            assert g.adjacency[v][u] == w

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"^self-loop at node 1$"):
            build_graph([(0, 1, 1), (1, 1, 1)], 2, 0)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match=r"^duplicate edge \(1, 0\)$"):
            build_graph([(0, 1, 1), (1, 0, 2)], 2, 0)

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError, match=r"^edge \(0, 1\) has weight 0; weights must be integers >= 1$"):
            build_graph([(0, 1, 0)], 2, 0)

    def test_empty_node_set_rejected(self):
        with pytest.raises(GraphError, match=r"^node_count must be positive, got 0$"):
            build_graph([], 0, 0)

    def test_bad_node_ids_rejected(self):
        with pytest.raises(GraphError, match=r"^invalid node id 5 in edge \(0, 5\)$"):
            build_graph([(0, 5, 1)], 2, 0)
        with pytest.raises(GraphError, match=r"^invalid root id 7$"):
            build_graph([], 3, 7)


def distance(g, u, v):
    """Weighted distance from u to v: root_distances of g rooted at v."""
    return root_distances(build_graph(list(g.edges()), g.node_count, v))[u]


class TestDistances:
    def test_direct_edge_shortest(self, triangle):
        assert root_distances(triangle)[2] == 1

    def test_detour_beats_nothing(self, triangle):
        # direct edge of weight 2 beats the 3+1 path
        assert root_distances(triangle)[1] == 2
        assert brute_force_distance(triangle, 1, 0) == 2

    def test_disconnected_infinity(self, two_comp):
        assert root_distances(two_comp)[1] == INFINITY
        assert distance(two_comp, 0, 2) == distance(two_comp, 2, 0) == INFINITY

    def test_self_distance_zero_and_triangle_inequality(self):
        for trial in range(20):
            g = generate_random_graph(trial, 6, 0.5, 4)
            for u in range(6):
                assert distance(g, u, u) == 0
            for u, v, w in itertools.permutations(range(6), 3):
                assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)

    def test_matches_brute_force_on_small_graphs(self):
        for trial in range(30):
            n = 2 + trial % 5
            g = generate_random_graph(1000 + trial, n, 0.6, 5)
            for u in range(n):
                for v in range(n):
                    assert distance(g, u, v) == brute_force_distance(g, u, v)


class TestComponentInfo:
    def test_path(self, path3):
        info = component_info(path3)
        assert info.n_max_cc == 2
        assert hop_diameter_root(path3) == 2
        assert info.components == ((0, 1, 2),)

    def test_rootless_component_counts(self, two_comp):
        info = component_info(two_comp)
        assert info.n_max_cc == 2  # {a, b} has two non-root processes
        assert hop_diameter_root(two_comp) == 0
        assert info.components == ((0,), (1, 2))
        assert info.components[info.component_of[0]] == (0,)

    def test_triangle_diameter(self, triangle):
        assert hop_diameter_root(triangle) == 1

    def test_n_max_cc_upper_bound(self):
        for trial in range(25):
            n = 3 + trial % 6
            g = generate_random_graph(50 + trial, n, 0.4, 3, component_hint=1 + trial % 3)
            assert component_info(g).n_max_cc <= n - 1

    def test_hop_diameter_counts_edges_of_min_weight_paths(self):
        # r-a direct edge weight 5; r-b-a costs 4 via two edges: the
        # minimum-weight path has 2 hops.
        g = build_graph([(0, 1, 5), (0, 2, 2), (2, 1, 2)], 3, 0)
        assert root_hop_distances(g)[1] == 2
        assert hop_diameter_root(g) == 2

    def test_root_distances(self, triangle):
        assert root_distances(triangle) == (0, 2, 1)


def lex_floyd_warshall(g):
    """All-pairs (min path weight, min hops among those paths), by
    Floyd-Warshall over pairs; pairs add componentwise and compare
    lexicographically, which keeps the relaxation exact."""
    n = g.node_count
    dist = [[(INFINITY, INFINITY)] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = (0, 0)
        for v, w in g.adjacency[u].items():
            dist[u][v] = (w, 1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = (dist[i][k][0] + dist[k][j][0], dist[i][k][1] + dist[k][j][1])
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def floyd_warshall_hop_diameter(g):
    """The largest lex_floyd_warshall hop count between two nodes of the
    root's component: the reference for hop_diameter_root."""
    dist = lex_floyd_warshall(g)
    info = component_info(g)
    members = info.components[info.component_of[g.root_id]]
    return max(dist[u][v][1] for u in members for v in members)


WEIGHT_REGIMES = {
    "unit": lambda rng: 1,
    "all-3": lambda rng: 3,
    "2-to-5": lambda rng: rng.randint(2, 5),
    "1-to-5": lambda rng: rng.randint(1, 5),
}


def _shape(kind, k):
    """(edges, node count, a middle node) of a path or a star (centre k // 2)
    on k nodes, a k x k grid, or the complete graph on k nodes."""
    if kind == "path":
        return [(i, i + 1) for i in range(k - 1)], k, k // 2
    if kind == "star":
        return [(k // 2, i) for i in range(k) if i != k // 2], k, k // 2
    if kind == "grid":
        right = [(u, u + 1) for u in range(k * k) if u % k < k - 1]
        return right + [(u, u + k) for u in range(k * k - k)], k * k, (k // 2) * k + k // 2
    return list(itertools.combinations(range(k), 2)), k, k // 2


class TestHopOracles:
    def test_match_floyd_warshall(self):
        seen_split = seen_detour = 0
        for trial in range(40):
            n = 2 + trial % 11
            g = generate_random_graph(
                300 + trial, n, 0.45, 5, component_hint=1 + trial % 3, root_id=(3 * trial + 1) % n
            )
            dist = lex_floyd_warshall(g)
            info = component_info(g)
            root_nodes = info.components[info.component_of[g.root_id]]
            assert root_distances(g) == tuple(dist[g.root_id][u][0] for u in range(n))
            assert root_hop_distances(g) == tuple(dist[g.root_id][u][1] for u in range(n))
            assert hop_diameter_root(g) == max(dist[u][v][1] for u in root_nodes for v in root_nodes)
            seen_split += len(info.components) > 1
            seen_detour += any(dist[u][v][1] > 1 for u in root_nodes for v in g.adjacency[u])
        assert seen_split and seen_detour  # some graphs split, some edges lose to a detour

    @pytest.mark.parametrize("regime", sorted(WEIGHT_REGIMES))
    def test_diameter_in_every_weight_regime(self, regime, monkeypatch):
        # The sweeps prune by (dist + ecc_dist) // w_min. Random weights in
        # 1..5 alone let some wrong bounds through (the hop eccentricity in
        # place of ecc_dist passes them), so uniform weights and weights
        # above 1 are checked too. Non-uniform weights must also reach the
        # pair bounds of the distance balls, or this checks only the sweeps.
        ball_phases = _record_ball_phases(monkeypatch)
        rng = random.Random(f"hop-{regime}")
        draw = WEIGHT_REGIMES[regime]
        checked = 0
        for kind, k in (("path", 9), ("star", 9), ("grid", 4), ("complete", 6)):
            pairs, size, middle = _shape(kind, k)
            # one to three components: the shape, then a 3-path, then an edge
            for extra, extra_nodes in (([], 0), ([(0, 1), (1, 2)], 3), ([(0, 1), (1, 2), (3, 4)], 5)):
                n = size + extra_nodes
                edges = [(u, v, draw(rng)) for u, v in pairs + [(size + a, size + b) for a, b in extra]]
                for root in (0, middle, size - 1):
                    g = build_graph(edges, n, root)
                    dist = lex_floyd_warshall(g)
                    info = component_info(g)
                    root_nodes = info.components[info.component_of[root]]
                    diameter = max(dist[u][v][1] for u in root_nodes for v in root_nodes)
                    assert hop_diameter_root(g) == diameter, (kind, extra, root)
                    for _ in range(3):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        h = build_graph([(perm[u], perm[v], w) for u, v, w in edges], n, perm[root])
                        assert hop_diameter_root(h) == diameter, (kind, extra, root, perm)
                    checked += 1
        assert checked == 36
        if regime in ("1-to-5", "2-to-5"):
            assert ball_phases

    @pytest.mark.parametrize("max_weight", [2, 3])
    def test_light_random_graphs_reach_the_pair_bounds(self, max_weight, monkeypatch):
        # Weights near w_min leave pairs whose distance is just above T,
        # so the balls' level decides them.
        ball_phases = _record_ball_phases(monkeypatch)
        for trial in range(120):
            n = 6 + trial % 15
            g = generate_random_graph(
                900 + trial, n, (0.25, 0.4)[trial % 2], max_weight, component_hint=1 + trial % 3, root_id=5 * trial % n
            )
            assert hop_diameter_root(g) == floyd_warshall_hop_diameter(g), trial
        assert len(ball_phases) >= 40

    def test_sweep_counts(self, monkeypatch):
        """Sweeps made by hop_diameter_root beyond the root's memoised one,
        and the last distance-ball level it builds: no sweep and no ball on
        a unit path rooted at an end (the root's eccentricity is already
        |V_r| - 1), 5 of the 899 possible sweeps and no ball on a unit 30x30
        grid, and on the weighted grid of perfbench's ``large`` workload 54
        sweeps (178 by the node bounds alone) with the balls built up to
        T = 30."""
        real_lex, sweeps = graph_mod._lex_dijkstra, []
        real_balls, levels = graph_mod._balls, []

        def lex(adj, src):
            sweeps.append(src)
            return real_lex(adj, src)

        def balls(g, members):
            for t, level in enumerate(real_balls(g, members)):
                levels.append(t)
                yield level

        grid_pairs, _, _ = _shape("grid", 30)
        cases = (
            (build_graph([(i, i + 1, 1) for i in range(1999)], 2000, 0), 1999, 0, 0),
            (build_graph([(u, v, 1) for u, v in grid_pairs], 900, 0), 58, 5, 0),
            (_large_grid(seed=1), 30, 54, 30),
        )
        monkeypatch.setattr(graph_mod, "_lex_dijkstra", lex)
        monkeypatch.setattr(graph_mod, "_balls", balls)
        for g, diameter, count, reach in cases:
            root_hop_distances(g)
            sweeps.clear()
            levels.clear()
            assert hop_diameter_root(g) == diameter
            assert (len(sweeps), max(levels, default=0)) == (count, reach)

    def test_balls_match_floyd_warshall(self):
        """Level t of _balls holds, per node of the root's component, the
        nodes of that component within weighted distance t, for every t up
        to the weighted diameter."""
        rng = random.Random("balls")
        grid_pairs, size, _ = _shape("grid", 5)
        graphs = [build_graph([(u, v, rng.randint(1, 4)) for u, v in grid_pairs], size, 7)]
        graphs += [
            generate_random_graph(700 + trial, 3 + trial % 10, 0.35, 6, component_hint=1 + trial % 3, root_id=trial % 3)
            for trial in range(30)
        ]
        for g in graphs:
            dist = lex_floyd_warshall(g)
            info = component_info(g)
            members = info.components[info.component_of[g.root_id]]
            reach = max(dist[u][v][0] for u in members for v in members)
            for t, level in zip(range(reach + 1), graph_mod._balls(g, members)):
                assert level == [
                    sum(1 << k for k, v in enumerate(members) if dist[u][v][0] <= t) for u in members
                ], (t, sorted(g.edges()))

    @settings(max_examples=300, deadline=None)
    @given(hs.data())
    def test_matches_floyd_warshall_on_any_small_graph(self, data):
        n = data.draw(hs.integers(1, 12), label="n")
        every_pair = list(itertools.combinations(range(n), 2))
        pairs = data.draw(hs.sets(hs.sampled_from(every_pair), max_size=2 * n) if every_pair else hs.just(set()), label="pairs")
        low = data.draw(hs.integers(1, 3), label="lightest weight")
        edges = [(u, v, data.draw(hs.integers(low, low + 2), label="w")) for u, v in sorted(pairs)]
        g = build_graph(edges, n, data.draw(hs.integers(0, n - 1), label="root"))
        assert hop_diameter_root(g) == floyd_warshall_hop_diameter(g)


def _record_ball_phases(monkeypatch):
    """The graphs for which hop_diameter_root builds distance balls, from
    now until the test ends."""
    real_balls, graphs = graph_mod._balls, []

    def balls(g, members):
        graphs.append(g)
        return real_balls(g, members)

    monkeypatch.setattr(graph_mod, "_balls", balls)
    return graphs


def _large_grid(seed):
    """The weighted 16x16 grid of perfbench's ``large`` workload: weights 1-3
    drawn after those of its 240-path, nodes relabelled by the seed's
    permutation of the grid (drawn after the path's and four daemon seeds)."""
    shape = random.Random(0)
    for _ in range(239):
        shape.randint(1, 3)
    edges = []
    for u in range(256):
        if u % 16 < 15:
            edges.append((u, u + 1, shape.randint(1, 3)))
        if u < 240:
            edges.append((u, u + 16, shape.randint(1, 3)))
    rng = random.Random(seed)
    rng.shuffle(list(range(240)))
    for _ in range(4):
        rng.randrange(2**32)
    perm = list(range(256))
    rng.shuffle(perm)
    return build_graph([(perm[u], perm[v], w) for u, v, w in edges], 256, perm[0])


class TestInducedSubgraph:
    def test_keeps_id_order_weights_and_root(self):
        g = build_graph([(0, 4, 3), (1, 3, 2), (3, 4, 5), (2, 5, 1)], 6, 3)
        sub = induced_subgraph(g, [4, 1, 3])
        # 1 -> 0, 3 -> 1, 4 -> 2
        assert sub.node_count == 3
        assert sub.root_id == 1
        assert sorted(sub.edges()) == [(0, 1, 2), (1, 2, 5)]

    def test_rootless_component_carries_isolated_root(self):
        g = build_graph([(0, 1, 1), (2, 3, 2)], 4, 1)
        sub = induced_subgraph(g, [2, 3, 1])
        assert (sub.node_count, sub.root_id) == (3, 0)
        assert list(sub.edges()) == [(1, 2, 2)]

    def test_whole_node_set_is_the_graph(self, triangle):
        assert induced_subgraph(triangle, range(3)) is triangle

    def test_root_required(self, triangle):
        with pytest.raises(GraphError, match=r"^induced subgraph must contain the root 0$"):
            induced_subgraph(triangle, [1, 2])

    def test_node_ids_checked(self, triangle):
        with pytest.raises(GraphError, match=r"^invalid node id 3$"):
            induced_subgraph(triangle, [0, 3])


class TestOracleMemo:
    def test_second_call_does_not_recompute(self, monkeypatch):
        g = build_graph([(0, 1, 5), (0, 2, 2), (2, 1, 2), (3, 4, 1)], 5, 0)
        sweeps = []
        real_lex = graph_mod._lex_dijkstra

        def lex(*args):
            sweeps.append(args[1])
            return real_lex(*args)

        monkeypatch.setattr(graph_mod, "_lex_dijkstra", lex)
        first = (component_info(g), root_distances(g), root_hop_distances(g), hop_diameter_root(g))
        # One sweep, the root's, shared by the three oracles: the root's
        # eccentricity (2) is already |V_r| - 1, so the diameter prunes
        # every other source.
        assert sweeps == [0]
        second = (component_info(g), root_distances(g), root_hop_distances(g), hop_diameter_root(g))
        assert sweeps == [0]
        assert all(a is b for a, b in zip(first, second))
        assert first == (component_info(build_graph(list(g.edges()), 5, 0)), (0, 4, 2, INFINITY, INFINITY), (0, 2, 1, INFINITY, INFINITY), 2)

    def test_cached_values_are_immutable(self, triangle):
        info = component_info(triangle)
        with pytest.raises(AttributeError):
            info.n_max_cc = 0
        with pytest.raises(TypeError):
            root_distances(triangle)[1] = 0
        with pytest.raises(TypeError):
            root_hop_distances(triangle)[1] = 0
        with pytest.raises(AttributeError):
            info.components[0].append(99)
        assert component_info(triangle).components == ((0, 1, 2),)

    def test_memo_is_per_instance(self):
        a = build_graph([(0, 1, 1)], 2, 0)
        b = build_graph([(0, 1, 2)], 2, 0)
        assert root_distances(a) == (0, 1)
        assert root_distances(b) == (0, 2)
        assert a == build_graph([(0, 1, 1)], 2, 0)  # the memo takes no part in equality


class TestRandomGraphs:
    def test_deterministic(self):
        a = generate_random_graph(7, 5, 0.5, 3)
        b = generate_random_graph(7, 5, 0.5, 3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_complete_unit(self):
        g = generate_random_graph(7, 5, 1.0, 1)
        assert len(list(g.edges())) == 10
        assert all(w == 1 for _, _, w in g.edges())
        with pytest.raises(GraphError, match=r"^max_weight must be >= 1, got 0$"):
            generate_random_graph(7, 5, 1.0, 0)
        for p in (0, 1.5):
            with pytest.raises(GraphError, match=rf"^edge_probability must be in \(0, 1\], got {p}$"):
                generate_random_graph(7, 5, p, 1)

    def test_component_hint_defaults_to_one_group(self):
        for seed in range(5):
            assert generate_random_graph(seed, 6, 0.4, 5) == generate_random_graph(seed, 6, 0.4, 5, component_hint=1)

    def test_component_hint_splits_root_component(self):
        g = generate_random_graph(3, 6, 0.4, 5, component_hint=2)
        info = component_info(g)
        assert len(info.components) >= 2
        assert len(info.components[info.component_of[g.root_id]]) < g.node_count


#: A field of a graph line: a small int, so that a header never asks for a
#: huge graph, or any short text.
_TOKEN = hs.one_of(hs.integers(-2, 6), hs.text(max_size=3))


class TestFileFormat:
    def test_roundtrip(self, triangle):
        assert sorted(parse_graph(format_graph(triangle)).edges()) == sorted(triangle.edges())

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\ng 2 0\n\n# edge\ne 0 1 3\n")
        assert g.adjacency[0][1] == 3

    def test_missing_header(self):
        with pytest.raises(GraphError, match=r"^line 1: edge before header$"):
            parse_graph("e 0 1 1\n")

    def test_bad_record(self):
        with pytest.raises(GraphError, match=r"^line 2: unknown record 'x'$"):
            parse_graph("g 2 0\nx 0 1\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("g 2 0\ng 2 0\n", "line 2: duplicate header"),
            ("g 2\n", "line 1: expected 'g <node_count> <root_id>'"),
            ("g two 0\n", "line 1: invalid literal for int() with base 10: 'two'"),
            ("g 2 0\ne 0 1\n", "line 2: expected 'e <u> <v> <w>'"),
            ("g 2 0\ne 0 1 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
            ("# only a comment\n\n", "missing 'g' header line"),
        ],
        ids=["duplicate-header", "header-arity", "header-int", "edge-arity", "edge-int", "no-header"],
    )
    def test_malformed_text(self, text, message):
        with pytest.raises(GraphError) as exc_info:
            parse_graph(text)
        assert str(exc_info.value) == message

    def test_invalid_edge_propagates(self):
        with pytest.raises(GraphError, match=r"^self-loop at node 1$"):
            parse_graph("g 2 0\ne 1 1 1\n")

    @settings(max_examples=300, deadline=None)
    @given(
        hs.lists(
            hs.one_of(
                hs.text(),
                hs.builds("g {} {}".format, _TOKEN, _TOKEN),
                hs.builds("e {} {} {}".format, _TOKEN, _TOKEN, _TOKEN),
            ),
            max_size=6,
        ).map("\n".join)
    )
    def test_any_text_raises_only_graph_error(self, text):
        try:
            parse_graph(text)
        except GraphError:
            pass
