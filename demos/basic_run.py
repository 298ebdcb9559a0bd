"""Walk through one execution from a normal start.

Builds a small weighted graph, starts every non-root process isolated,
lets the synchronous daemon drive the protocol to termination, and prints
each configuration along the way.
"""

from stabtree import (
    build_graph,
    legitimate_config,
    normal_initial_configuration,
    root_distances,
    run,
    SynchronousDaemon,
)


def show(config, label):
    cells = ", ".join(
        f"{u}:({s.status.value} par={s.par} d={s.d})" for u, s in enumerate(config)
    )
    print(f"{label}: {cells}")


def main():
    # r(0) --1-- a(1) --2-- b(2), plus a shortcut r --4-- b.
    g = build_graph([(0, 1, 1), (1, 2, 2), (0, 2, 4)], 3, 0)
    print("true distances:", list(root_distances(g)))

    trace = run(normal_initial_configuration(g), g, SynchronousDaemon())
    # The trace keeps the start and each step's fired moves: apply them in turn.
    config = list(trace.initial)
    show(config, "start")
    for i, moves in enumerate(trace.steps):
        for u, m in moves.items():
            config[u] = m.state
        fired = {u: m.rule.value for u, m in moves.items()}
        print(f"step {i}: fired {fired}")
        show(config, f"  config {i + 1}")

    failing = legitimate_config(trace.final, g)
    print(f"terminated in {trace.step_count} steps; legitimate: {not failing}")


if __name__ == "__main__":
    main()
