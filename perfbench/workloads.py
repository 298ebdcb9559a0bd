"""The four benchmark workloads: seeded inputs and the timed items that run them.

Each workload's ``setup`` turns a seed into inputs (graph files written to
the current directory, or per-item seeds) and returns the list of items of
one pass. An item calls the same entry point as a ``stabtree`` subcommand,
times only that call, and then hashes the outputs into a digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from stabtree import cli, engine, graph

#: The daemons ``stabtree bench`` sweeps by default.
CORPUS_DAEMONS = ("sync", "central", "rand:p=0.5", "adv:starve", "adv:churn")
LARGE_DAEMONS = ("sync", "rand:p=0.5", "central", "adv:churn")


@dataclass(frozen=True)
class Size:
    corpus_instances: int   # items per corpus pass
    path_nodes: int         # large: path length
    grid_side: int          # large: grid is side x side
    certify_dcap: int
    split_dcap: int


FULL = Size(corpus_instances=800, path_nodes=240, grid_side=16, certify_dcap=1, split_dcap=2)
TINY = Size(corpus_instances=4, path_nodes=12, grid_side=3, certify_dcap=1, split_dcap=1)


@dataclass
class Outcome:
    seconds: float           # time inside the program call only
    ok: bool                 # exit code 0 and every verdict PASS
    digest: str
    verdicts: int            # traces checked, or instances certified
    work: int                # steps checked, or reachable configurations
    counts: dict = field(default_factory=dict)  # per-layer counts read from outputs


@dataclass(frozen=True)
class Item:
    key: str
    run: Callable[[], Outcome]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def _cli(args: list[str]) -> tuple[float, int, bytes]:
    """Run one ``stabtree`` subcommand in-process; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(args)
    return time.perf_counter() - t0, code, out.getvalue().encode()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(edges, n: int, perm: list[int]) -> graph.WeightedGraph:
    """Structural node v gets id perm[v]; structural node 0 is the root,
    so the seed moves the root's id but not its place."""
    return graph.build_graph([(perm[u], perm[v], w) for u, v, w in edges], n, perm[0])


# --- corpus: what `stabtree bench` does ---------------------------------------


def _corpus_item(seed: int) -> Outcome:
    t0 = time.perf_counter()
    runs = cli.bench_corpus(count=1, seed=seed, daemons=CORPUS_DAEMONS)
    seconds = time.perf_counter() - t0
    record = [[r.daemon, r.n, r.steps, r.rounds, r.step_limit, r.round_limit, r.failures] for r in runs]
    return Outcome(
        seconds=seconds,
        ok=all(not r.failures for r in runs),
        digest=_digest(json.dumps(record).encode()),
        verdicts=len(runs),
        work=sum(r.steps for r in runs),
        counts={"engine.steps": sum(r.steps for r in runs)},
    )


def setup_corpus(seed: int, size: Size) -> list[Item]:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(size.corpus_instances)]
    return [Item(f"corpus-{s}", lambda s=s: _corpus_item(s)) for s in seeds]


# --- large: `stabtree run --init rand:... --trace ... --report ...` -----------


def _path_edges(n: int, rng: random.Random):
    return [(i, i + 1, rng.randint(1, 3)) for i in range(n - 1)]


def _grid_edges(side: int, rng: random.Random):
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                edges.append((u, u + 1, rng.randint(1, 3)))
            if r + 1 < side:
                edges.append((u, u + side, rng.randint(1, 3)))
    return edges


def _large_item(args: list[str], trace: str, report: str) -> Outcome:
    seconds, code, stdout = _cli(args)
    trace_bytes, report_bytes = _read(trace), _read(report)
    steps = int(stdout.split(b" ", 1)[0].removeprefix(b"steps="))
    return Outcome(
        seconds=seconds,
        ok=code == cli.EXIT_OK,
        digest=_digest(stdout, trace_bytes, report_bytes),
        verdicts=1,
        work=steps,
        counts={"engine.steps": steps, "engine.trace_bytes": len(trace_bytes)},
    )


def setup_large(seed: int, size: Size) -> list[Item]:
    # Weights and the corrupted start are drawn once, in structural
    # coordinates; the seed relabels them and seeds the daemons. Every seed
    # starts from the same configuration up to node ids, so the spread
    # between seeds measures the program, not how much work a start drew.
    shape = random.Random(0)
    rng = random.Random(seed)
    shapes = {
        "path": (_path_edges(size.path_nodes, shape), size.path_nodes),
        "grid": (_grid_edges(size.grid_side, shape), size.grid_side**2),
    }
    items = []
    for name, (edges, n) in shapes.items():
        plain = graph.build_graph(edges, n, 0)
        d_cap = max(w for _, _, w in edges) * n  # as `stabtree bench` corrupts its starts
        start = engine.random_configuration(plain, shape.randrange(2**32), d_cap)
        perm = _permutation(n, rng)
        relabelled = [None] * n
        for v, state in enumerate(start):
            relabelled[perm[v]] = state if v == 0 else state._replace(par=perm[state.par])
        gfile, cfile = f"large-{name}.g", f"large-{name}.config"
        g = _relabel(edges, n, perm)
        graph.save_graph(g, gfile)
        engine.save_configuration(tuple(relabelled), g, cfile)
        for spec in LARGE_DAEMONS:
            key = f"large-{name}-{spec}"
            trace, report = f"{key}.trace", f"{key}.jsonl"
            args = ["run", "-g", gfile, "--init", f"file:{cfile}", "-d", spec,
                    "--seed", str(rng.randrange(2**32)), "--trace", trace, "--report", report]
            items.append(Item(key, lambda a=args, t=trace, r=report: _large_item(a, t, r)))
    return items


# --- certify and certify-split: `stabtree explore --dcap ... --report ...` ----

CERTIFY_INSTANCES = {
    "3-path": ([(0, 1, 1), (1, 2, 2)], 3),
    "triangle": ([(0, 1, 1), (1, 2, 2), (2, 0, 2)], 3),
    "4-path": ([(0, 1, 1), (1, 2, 1), (2, 3, 1)], 4),
    "4-star": ([(0, 1, 1), (0, 2, 1), (0, 3, 1)], 4),
}
SPLIT_INSTANCES = {
    "4-node-2-components": ([(0, 1, 1), (2, 3, 2)], 4),
    "3-path-and-isolated-node": ([(0, 1, 1), (1, 2, 1)], 4),
}


def _certify_item(args: list[str], report: str) -> Outcome:
    seconds, code, _ = _cli(args)
    report_bytes = _read(report)
    result = json.loads(report_bytes)
    return Outcome(
        seconds=seconds,
        ok=code == cli.EXIT_OK and result["verdict"] == "PASS",
        digest=_digest(report_bytes),
        verdicts=1,
        work=result["reachable"],
        counts={
            "explorer.initial_configs": result["initial_configs"],
            "explorer.reachable": result["reachable"],
            "explorer.max_steps": result["max_steps"],
        },
    )


def _setup_explore(prefix: str, instances: dict, d_cap: int, seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for name, (edges, n) in instances.items():
        key = f"{prefix}-{name}"
        gfile, report = f"{key}.g", f"{key}.json"
        graph.save_graph(_relabel(edges, n, _permutation(n, rng)), gfile)
        args = ["explore", "-g", gfile, "--dcap", str(d_cap), "--report", report]
        items.append(Item(key, lambda a=args, r=report: _certify_item(a, r)))
    return items


def setup_certify(seed: int, size: Size) -> list[Item]:
    return _setup_explore("certify", CERTIFY_INSTANCES, size.certify_dcap, seed)


def setup_certify_split(seed: int, size: Size) -> list[Item]:
    return _setup_explore("split", SPLIT_INSTANCES, size.split_dcap, seed)


WORKLOADS: dict[str, Callable[[int, Size], list[Item]]] = {
    "corpus": setup_corpus,
    "large": setup_large,
    "certify": setup_certify,
    "certify-split": setup_certify_split,
}


def setup(name: str, seed: int, tiny: bool = False) -> list[Item]:
    """Write the workload's inputs into the current directory; return one pass."""
    return WORKLOADS[name](seed, TINY if tiny else FULL)
