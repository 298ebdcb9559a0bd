"""End-to-end acceptance suite.

Runs a seeded 1000-instance corpus under five daemons, checks every
worst-case guarantee on every trace, and exhaustively certifies a family
of small instances. Each test prints one [PASS]/[FAIL] line.
"""

import time
from dataclasses import dataclass, field

import pytest

from stabtree import analysis, engine
from stabtree.cli import corpus_instances
from stabtree.daemon import parse_daemon_spec
from stabtree.explorer import certify_instance
from stabtree.graph import build_graph, component_info
from stabtree.protocol import enabled_rule

from conftest import reference_move, replay, spanning_tree_holds, walk_matches_references

CORPUS_SIZE = 1000
CORPUS_SEED = 2024
DAEMONS = ("sync", "central", "rand:p=0.5", "adv:starve", "adv:churn")


@dataclass
class RunRecord:
    instance: int
    daemon: str
    n: int
    terminated: bool
    steps: int
    rounds: int
    step_limit: int
    round_limit: int
    uniform_weights: bool
    uniform_limit: int | None
    final_ok: bool
    aar_ok: bool
    segments_ok: bool
    milestones_ok: bool
    guards_agree: bool
    walk_agrees: bool


@dataclass
class Corpus:
    runs: list[RunRecord] = field(default_factory=list)
    elapsed: float = 0.0


def _guards_agree_everywhere(trace, g) -> bool:
    """In every configuration of the trace, exactly the guard of each
    process's enabled rule (if any) holds, and the move writes the state of
    the paper's action for it. Guards and actions read only a process and
    its neighbors, so after a step only the fired processes and their
    neighbors can change verdict and are checked again."""
    todo = range(g.node_count)
    for i, config in enumerate(replay(trace)):
        if i:
            todo = {v for u in trace.steps[i - 1] for v in (u, *g.adjacency[u])}
        for u in todo:
            if u != g.root_id and reference_move(config, g, u) != enabled_rule(config, g, u):
                return False
    return True


@pytest.fixture(scope="session")
def corpus():
    import random

    start = time.monotonic()
    result = Corpus()
    rng = random.Random(CORPUS_SEED ^ 0x5BD1E995)
    for idx, g in enumerate(corpus_instances(CORPUS_SIZE, CORPUS_SEED)):
        info = component_info(g)
        d_cap = info.w_max * g.node_count
        init = engine.random_configuration(g, rng.randrange(2**32), d_cap)
        for spec in DAEMONS:
            policy = parse_daemon_spec(spec, seed=rng.randrange(2**32))
            trace = engine.run(init, g, policy)
            failing = analysis.legitimate_config(trace.final, g)
            walk = engine.check_trace(trace, g)
            uniform = info.w_min == info.w_max
            result.runs.append(
                RunRecord(
                    instance=idx,
                    daemon=spec,
                    n=g.node_count,
                    terminated=trace.terminated,
                    steps=trace.step_count,
                    rounds=trace.rounds,
                    step_limit=analysis.step_bound_for(g),
                    round_limit=analysis.round_bound_for(g),
                    uniform_weights=uniform,
                    uniform_limit=(
                        analysis.uniform_step_bound(g.node_count, info.n_max_cc) if uniform else None
                    ),
                    final_ok=not failing and spanning_tree_holds(trace.final, g),
                    aar_ok=walk.aar_monotone,
                    segments_ok=walk.segments_ok,
                    milestones_ok=trace.terminated and walk.milestones_ok,
                    guards_agree=_guards_agree_everywhere(trace, g),
                    walk_agrees=walk_matches_references(trace, g),
                )
            )
    result.elapsed = time.monotonic() - start
    return result


CERTIFICATION_INSTANCES = [
    ("2-node w=1", [(0, 1, 1)], 2),
    ("2-node w=2", [(0, 1, 2)], 2),
    ("3-path w=1,1", [(0, 1, 1), (1, 2, 1)], 3),
    ("3-path w=1,2", [(0, 1, 1), (1, 2, 2)], 3),
    ("triangle w=1,1,1", [(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3),
    ("triangle w=1,2,2", [(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3),
    ("4-node 2 components", [(0, 1, 1), (2, 3, 2)], 4),
    ("5-node 3 components", [(0, 1, 1), (2, 3, 1)], 5),
]


@pytest.fixture(scope="session")
def certifications():
    results = []
    for name, edges, n in CERTIFICATION_INSTANCES:
        g = build_graph(edges, n, 0)
        d_cap = component_info(g).w_max * n
        results.append((name, certify_instance(g, d_cap)))
    return results


def _verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


class TestAcceptance:
    def test_1_round_bound(self, corpus):
        bad = [
            r for r in corpus.runs if not r.terminated or r.rounds > r.round_limit
        ]
        label = (
            f"1. all {len(corpus.runs)} corpus runs terminate within the round "
            f"bound ({corpus.elapsed:.1f}s)"
        )
        _verdict(not bad, label)

    def test_2_step_bound(self, corpus):
        bad = [r for r in corpus.runs if r.steps > r.step_limit]
        bad += [
            r
            for r in corpus.runs
            if r.uniform_weights
            and (r.steps > r.uniform_limit or r.uniform_limit > r.n**4)
        ]
        uniform = sum(r.uniform_weights for r in corpus.runs)
        _verdict(
            not bad,
            f"2. step bound holds on every run, tighter bound on {uniform} "
            "uniform-weight runs",
        )

    def test_3_silence_and_terminal_legitimacy(self, certifications):
        failures = [name for name, r in certifications if not r.passed]
        for name, r in certifications:
            print(
                f"    {name}: {r.verdict}, {r.initial_configs} initial, "
                f"{r.reachable_count} reachable, longest {r.max_steps_any_path} "
                f"<= {r.step_limit}"
            )
        _verdict(
            not failures,
            f"3. exhaustive certification passes on {len(certifications)} instances",
        )

    def test_4_no_alive_abnormal_root_created(self, corpus, certifications):
        bad = [r for r in corpus.runs if not r.aar_ok]
        cert_bad = [
            name for name, r in certifications if any("abnormal" in v for v in r.violations)
        ]
        _verdict(
            not bad and not cert_bad,
            "4. no step ever creates an alive abnormal root",
        )

    def test_5_segment_rule_language(self, corpus):
        bad = [r for r in corpus.runs if not r.segments_ok]
        _verdict(
            not bad,
            "5. per-segment rule sequences and segment counts within limits",
        )

    def test_6_round_milestones(self, corpus):
        bad = [r for r in corpus.runs if not r.milestones_ok]
        _verdict(not bad, "6. cleanup and legitimacy milestones met round by round")

    def test_7_correct_final_answer(self, corpus):
        bad = [r for r in corpus.runs if not r.final_ok]
        _verdict(
            not bad,
            "7. every run ends with exact distances, a shortest-path spanning "
            "tree, and disconnected processes isolated",
        )

    def test_8_guard_exclusivity(self, corpus):
        bad = [r for r in corpus.runs if not r.guards_agree]
        _verdict(
            not bad,
            "8. exactly the enabled rule's guard holds per process in every "
            "corpus configuration, and its move writes the paper's action",
        )


def test_corpus_walk_matches_references(corpus):
    # The one trace walk against the two reference replays, on every
    # corpus trace.
    assert all(r.walk_agrees for r in corpus.runs)
