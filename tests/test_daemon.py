import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stabtree import daemon as daemon_module
from stabtree.cli import corpus_instances
from stabtree.daemon import (
    CentralDaemon,
    DaemonPolicy,
    DaemonSpecError,
    MaxChurnDaemon,
    RandomDistributedDaemon,
    StarveCleanupDaemon,
    SynchronousDaemon,
    _nonempty_selection,
    parse_daemon_spec,
)
from stabtree.engine import enabled, normal_initial_configuration, random_configuration, run
from stabtree.graph import build_graph, component_info, generate_random_graph
from stabtree.protocol import Rule, Status

from conftest import max_churn_by_scan, mk_config, reference_path, replay


@pytest.fixture
def star():
    """r(0) with spokes u(1) and v(2), unit weights."""
    return build_graph([(0, 1, 1), (0, 2, 1)], 3, 0)


def _stream(seed, n):
    """The generator a seeded daemon's n-th selection (from 0) draws from:
    its key, or ``~key`` where the key is negative."""
    key = (seed + 1) * 0x9E3779B97F4A7C15 + n
    return random.Random(key if key >= 0 else ~key)


class TestSynchronous:
    def test_selects_everything(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        assert SynchronousDaemon().select(config, star, rules) == {1, 2}


class TestCentral:
    def test_singleton_from_enabled(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        chosen = CentralDaemon(0).select(config, star, rules)
        assert len(chosen) == 1
        assert chosen <= set(rules)

    def test_roughly_uniform_over_two_processes(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        counts = Counter()
        for seed in range(1000):
            counts.update(CentralDaemon(seed).select(config, star, rules))
        assert counts[1] >= 400
        assert counts[2] >= 400

    def test_fixed_seed_reproducible(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        picks = [CentralDaemon(42).select(config, star, rules) for _ in range(5)]
        assert picks == [CentralDaemon(42).select(config, star, rules) for _ in range(5)]

    def test_nth_call_draws_from_stream_n(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        for seed in range(-4, 5):
            daemon = CentralDaemon(seed)
            picks = [daemon.select(config, star, rules) for _ in range(20)]
            assert picks == [{_stream(seed, n).choice([1, 2])} for n in range(20)]
            assert len(set(picks)) == 2

    def test_reseeded_generator_draws_what_a_new_one_draws(self):
        # After its first draw a policy reseeds its generator through the
        # C-level seed, skipping random.Random.seed's Python wrapper; the
        # draws must be those of random.Random(key) on every Python.
        draws = {
            "getrandbits": lambda rng: [rng.getrandbits(k) for k in (1, 7, 32, 64, 100)],
            "random": lambda rng: [rng.random() for _ in range(5)],
            "choice": lambda rng: [rng.choice(range(n)) for n in (1, 2, 3, 17, 1000)],
        }
        for seed in range(-4, 4):
            daemon = CentralDaemon(seed)
            daemon._stream = 99
            built = daemon._rng()
            built.random()  # moved off its seed
            for stream in range(4):
                for name, draw in draws.items():
                    daemon._stream = stream
                    rng = daemon._rng()
                    assert rng is built  # reseeded, not rebuilt
                    assert draw(rng) == draw(_stream(seed, stream)), (seed, stream, name)

    def test_negative_seeds_draw_their_own_streams(self):
        # Random(key) seeds with abs(key), so with the key passed as it is,
        # seeds s and -s - 2 would share stream 0: on this instance seeds 3
        # and -5 would both fire node 7 first, and 4 and -6 node 3.
        for seed in range(8):
            assert _stream(seed, 0).getstate() != _stream(-seed - 2, 0).getstate()
        g = generate_random_graph(5, 14, 0.4, 3)
        start = random_configuration(g, 9, 40)
        rules = enabled(start, g)
        first = {seed: CentralDaemon(seed).select(start, g, rules) for seed in (3, -5, 4, -6)}
        assert first[3] == {7} and first[4] == {3}
        assert first[-5] != first[3] and first[-6] != first[4]


class TestRandomDistributed:
    def test_nonempty_subset_always(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        daemon = RandomDistributedDaemon(3, 0.1)
        for _ in range(200):
            chosen = daemon.select(config, star, rules)
            assert chosen
            assert chosen <= set(rules)

    def test_p_one_matches_synchronous(self, star):
        config = normal_initial_configuration(star)
        rules = enabled(config, star)
        assert RandomDistributedDaemon(0, 1.0).select(config, star, rules) == {1, 2}

    @pytest.mark.parametrize("p,k", [(0.3, 3), (0.05, 4), (0.9, 3)])
    def test_nonempty_sampler_matches_conditional_distribution(self, p, k):
        # Each nonempty subset S of k nodes has probability
        # p^|S| (1 - p)^(k - |S|) / (1 - (1 - p)^k) given a nonempty draw.
        rng = random.Random(k * 1000 + round(p * 100))
        nodes = list(range(10, 10 + k))
        draws = 200_000
        seen = Counter(_nonempty_selection(rng, nodes, p) for _ in range(draws))
        for size in range(1, k + 1):
            for subset in itertools.combinations(nodes, size):
                want = p**size * (1 - p) ** (k - size) / (1 - (1 - p) ** k)
                assert abs(seen[frozenset(subset)] / draws - want) < 0.005, subset
        assert frozenset() not in seen

    def test_bad_probability_rejected(self):
        with pytest.raises(DaemonSpecError, match=r"^inclusion probability must be in \(0, 1\], got 0\.0$"):
            RandomDistributedDaemon(0, 0.0)
        with pytest.raises(DaemonSpecError, match=r"^inclusion probability must be in \(0, 1\], got 1\.5$"):
            RandomDistributedDaemon(0, 1.5)


class TestAdversarial:
    def test_starve_prefers_corrections(self, star):
        config = mk_config(star, n1=(Status.C, 0, 5), n2=(Status.EB, 0, 1))
        rules = enabled(config, star)
        assert {u: move.rule for u, move in rules.items()} == {1: Rule.R_C, 2: Rule.R_EF}
        assert StarveCleanupDaemon(0).select(config, star, rules) == {1}

    def test_starve_falls_back_to_singleton(self, star):
        config = mk_config(star, n1=(Status.EB, 0, 1), n2=(Status.EB, 0, 1))
        rules = enabled(config, star)
        chosen = StarveCleanupDaemon(0).select(config, star, rules)
        assert len(chosen) == 1

    def test_churn_picks_largest_distance_shift(self, star):
        # node 1 would jump from 10 to 1, node 2 only from 3 to 1
        config = mk_config(star, n1=(Status.C, 0, 10), n2=(Status.C, 0, 3))
        rules = enabled(config, star)
        assert {move.rule for move in rules.values()} == {Rule.R_C}
        assert MaxChurnDaemon(0).select(config, star, rules) == {1}

    def test_churn_tie_breaks_to_smallest_id(self, star):
        config = mk_config(star, n1=(Status.C, 0, 4), n2=(Status.C, 0, 4))
        rules = enabled(config, star)
        assert MaxChurnDaemon(0).select(config, star, rules) == {1}


class _ReferenceAdversarial(DaemonPolicy):
    """The adversarial selections as written before moves carried the
    state they write, both behind one ``strategy`` string: max-churn runs
    ``compute_path`` itself on every enabled ``R_C``/``R_R`` process. The
    n-th call (from 0) falls back to a draw from its own stream n, keyed
    as the seeded daemons' streams are, with a call count of its own."""

    def __init__(self, seed, strategy):
        self.seed = seed
        self.strategy = strategy
        self.calls = 0

    def select(self, config, g, enabled):
        n = self.calls
        self.calls += 1
        fallback = frozenset({_stream(self.seed, n).choice(sorted(enabled))})
        if self.strategy == "starve-cleanup":
            corrections = [u for u, move in enabled.items() if move.rule is Rule.R_C]
            return frozenset(corrections) if corrections else fallback
        best = None  # (delta, -u, u)
        for u, move in enabled.items():
            if move.rule is Rule.R_C or move.rule is Rule.R_R:
                new = reference_path(config, g, u)
                cand = (abs(new.d - config[u].d), -u, u)
                if best is None or cand > best:
                    best = cand
        return fallback if best is None else frozenset({best[2]})


class TestAdversarialReference:
    @pytest.mark.parametrize(
        "cls, strategy",
        [(StarveCleanupDaemon, "starve-cleanup"), (MaxChurnDaemon, "max-churn")],
        ids=["starve-cleanup", "max-churn"],
    )
    def test_executions_match_reference_selection(self, cls, strategy):
        # Same steps and round ends as the reference, from the same start,
        # on random graphs whose root is not node 0, some with several
        # components; a max-churn that measured the shift from the pre-step
        # distance would pick differently and diverge.
        split = 0
        for trial in range(30):
            n = 3 + trial % 10
            g = generate_random_graph(
                trial, n, 0.5, 4, component_hint=1 + trial % 3, root_id=1 + trial % (n - 1)
            )
            split += len(component_info(g).components) > 1
            config = random_configuration(g, trial, 4 * n)
            for seed in range(3):
                got = run(config, g, cls(seed))
                want = run(config, g, _ReferenceAdversarial(seed, strategy))
                assert got.steps == want.steps, (trial, seed)
                assert got.round_ends == want.round_ends, (trial, seed)
        assert split >= 10


class ChurnCheck(DaemonPolicy):
    """Runs a ``MaxChurnDaemon`` and checks each of its selections against
    ``max_churn_by_scan``. It forwards ``moves_changed`` only when
    ``forward`` is set; otherwise it forwards ``select`` alone, as a
    timing wrapper does, and the daemon never sees the hook."""

    def __init__(self, inner, forward):
        self.inner = inner
        self.checked = 0
        if forward:
            self.moves_changed = inner.moves_changed

    def select(self, config, g, enabled):
        want = max_churn_by_scan(config, enabled)
        got = self.inner.select(config, g, enabled)
        assert got == {want} if want is not None else len(got) == 1, (self.checked, want, got)
        self.checked += 1
        return got


def _churn_instances():
    """(name, graph, start) for the max-churn checks: a corpus sample,
    perfbench's ``large`` 240-path and 16x16 grid (weights 1 to 3 and
    starts drawn as there, before its relabelling), a graph with a rootless
    component, and CI's churn30 grid with its start."""
    out = []
    for i, g in enumerate(corpus_instances(12, 1)):
        w_max = max(w for adj in g.adjacency for w in adj.values())
        out.append((f"corpus-{i}", g, random_configuration(g, i, w_max * g.node_count)))
    shape = random.Random(0)
    path = [(i, i + 1, shape.randint(1, 3)) for i in range(239)]
    grid = []
    for r in range(16):
        for c in range(16):
            u = r * 16 + c
            if c + 1 < 16:
                grid.append((u, u + 1, shape.randint(1, 3)))
            if r + 1 < 16:
                grid.append((u, u + 16, shape.randint(1, 3)))
    for name, edges, n in (("large-path", path, 240), ("large-grid", grid, 256)):
        g = build_graph(edges, n, 0)
        out.append((name, g, random_configuration(g, shape.randrange(2**32), 3 * n)))
    rootless = build_graph([(0, 1, 2), (1, 2, 1), (0, 3, 3), (4, 5, 1), (5, 6, 2), (6, 4, 1)], 7, 2)
    assert len(component_info(rootless).components) == 2
    out.append(("rootless", rootless, random_configuration(rootless, 5, 20)))
    grid30 = []
    for r in range(30):
        for c in range(30):
            u = r * 30 + c
            if c + 1 < 30:
                grid30.append((u, u + 1, 1 + (r + 2 * c) % 3))
            if r + 1 < 30:
                grid30.append((u, u + 30, 1 + (2 * r + c) % 3))
    g = build_graph(grid30, 900, 0)
    out.append(("churn30", g, random_configuration(g, 3, 2700)))
    return out


class TestMaxChurnHeap:
    def test_selects_what_the_scan_selects(self):
        # At every step, fed by the hook and behind a select-only wrapper
        # alike, the daemon picks the scan's process; both runs are the
        # same execution.
        checked = 0
        for trial, (name, g, start) in enumerate(_churn_instances()):
            traces = []
            for forward in (True, False):
                policy = ChurnCheck(MaxChurnDaemon(trial), forward)
                traces.append(run(start, g, policy))
                checked += policy.checked
            fed, hidden = traces
            assert fed.steps == hidden.steps and fed.round_ends == hidden.round_ends, name
        assert checked > 20_000

    def test_reused_daemon_selects_what_the_scan_selects(self):
        # One daemon, fed by the hook, runs corpus instances back to back.
        # The hook's None call before each run's first selection is how it
        # learns that a new run began; a daemon that trusted the heap the
        # last run left would pick from another graph's moves.
        policy = ChurnCheck(MaxChurnDaemon(0), forward=True)
        for i, g in enumerate(corpus_instances(30, 1)):
            run(random_configuration(g, i, component_info(g).w_max * g.node_count), g, policy)
        assert policy.checked > 500

    def test_heap_stays_bounded(self):
        # On churn30's 6 990 steps the heap would keep one stale entry per
        # re-evaluated process; rebuilding it holds it to a constant
        # multiple of the enabled moves at every step.
        _, g, start = _churn_instances()[-1]
        daemon = MaxChurnDaemon(1)
        sizes = []

        class Watch(ChurnCheck):
            def select(self, config, g, enabled):
                heap = daemon._heap
                assert len(heap) <= daemon_module._HEAP_FACTOR * len(enabled) + daemon_module._HEAP_SLACK
                sizes.append(len(heap))
                return super().select(config, g, enabled)

        trace = run(start, g, Watch(daemon, forward=True))
        assert trace.terminated and trace.step_count > 5_000
        assert len(daemon._heap) <= daemon_module._HEAP_SLACK
        assert max(sizes) < trace.step_count // 10

    def test_stale_heap_is_not_trusted(self, star):
        # A daemon fed by one run and then selecting without the hook (a
        # wrapper, or a new run behind one) scans instead of popping the
        # heap the hook last built. That heap holds (-9, 1) and (-2, 2):
        # node 1's shift is now 4, so popping would stop at node 2, whose
        # shift is still 2.
        daemon = MaxChurnDaemon(0)
        high = mk_config(star, n1=(Status.C, 0, 10), n2=(Status.C, 0, 3))
        daemon.moves_changed(high, enabled(high, star), None)
        assert daemon.select(high, star, enabled(high, star)) == {1}
        low = mk_config(star, n1=(Status.C, 0, 5), n2=(Status.C, 0, 3))
        assert daemon.select(low, star, enabled(low, star)) == {1}


class TestForcedSelection:
    @pytest.mark.parametrize("cls", [CentralDaemon, StarveCleanupDaemon, MaxChurnDaemon, lambda s: RandomDistributedDaemon(s, 0.3)])
    def test_one_enabled_process_draws_nothing(self, monkeypatch, star, cls):
        # With one enabled process the selection is forced: no stream is
        # seeded, yet the next call still draws from its own stream.
        config = mk_config(star, n1=(Status.C, 0, 1), n2=(Status.C, 0, 5))
        only = enabled(config, star)
        assert len(only) == 1
        daemon = cls(7)
        seeded = []
        real = random.Random.seed
        monkeypatch.setattr(random.Random, "seed", lambda self, a=None, *args: seeded.append(a) or real(self, a, *args))
        assert daemon.select(config, star, only) == set(only)
        assert seeded == []
        frozen = mk_config(star, n1=(Status.EB, 0, 1), n2=(Status.EB, 0, 1))
        both = enabled(frozen, star)
        chosen = daemon.select(frozen, star, both)
        assert seeded == [(7 + 1) * 0x9E3779B97F4A7C15 + 1]
        assert chosen <= both.keys()


class TestSpecStrings:
    def test_known_specs(self):
        assert parse_daemon_spec("sync").name == "sync"
        assert parse_daemon_spec("central", 1).name == "central"
        assert parse_daemon_spec("rand:p=0.5", 1).p == 0.5
        starve, churn = parse_daemon_spec("adv:starve", 1), parse_daemon_spec("adv:churn", 1)
        assert (type(starve), starve.name) == (StarveCleanupDaemon, "adv:starve-cleanup")
        assert (type(churn), churn.name) == (MaxChurnDaemon, "adv:max-churn")

    def test_unknown_spec(self):
        with pytest.raises(DaemonSpecError, match=r"^unknown daemon spec 'chaotic'$"):
            parse_daemon_spec("chaotic")
        with pytest.raises(DaemonSpecError, match=r"^bad probability in 'rand:p=lots'$"):
            parse_daemon_spec("rand:p=lots")

    @settings(max_examples=300, deadline=None)
    @given(hs.one_of(hs.text(), hs.builds("rand:p={}".format, hs.one_of(hs.floats(), hs.text()))))
    def test_any_spec_raises_only_daemon_spec_error(self, spec):
        try:
            parse_daemon_spec(spec, 0)
        except DaemonSpecError:
            pass


class TestTraceDeterminism:
    @pytest.mark.parametrize(
        "spec", ["sync", "central", "rand:p=0.4", "adv:starve", "adv:churn"]
    )
    def test_identical_traces_for_identical_seeds(self, triangle, spec):
        config = random_configuration(triangle, 17, 8)
        first = run(config, triangle, parse_daemon_spec(spec, 9))
        second = run(config, triangle, parse_daemon_spec(spec, 9))
        assert first.steps == second.steps

    def test_every_selection_respects_enablement(self, triangle):
        config = random_configuration(triangle, 23, 8)
        trace = run(config, triangle, parse_daemon_spec("rand:p=0.6", 5))
        for fired, pre in zip(trace.steps, replay(trace)):
            assert fired.keys() <= enabled(pre, triangle).keys()
