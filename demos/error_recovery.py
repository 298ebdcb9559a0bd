"""Recovery from a corrupted start, including a disconnected component.

Seeds a configuration with a too-small distance (the classic trigger for
count-to-infinity in naive distance-vector protocols) and a rootless
component that believes it is attached. The freeze waves (EB down, EF up)
dismantle both illusions, after which the survivors rejoin and the
stranded component isolates itself.
"""

from stabtree import (
    ProcessState,
    ROOT_STATE,
    Status,
    build_graph,
    CentralDaemon,
    check_trace,
    full_trace_report,
    run,
)


def main():
    # Component A: r(0) - a(1) - b(2); component B: c(3) - e(4), no root.
    g = build_graph([(0, 1, 2), (1, 2, 1), (3, 4, 1)], 5, 0)
    config = (
        ROOT_STATE,
        ProcessState(Status.C, 0, 1),   # claims d=1, but the edge weighs 2
        ProcessState(Status.C, 1, 2),
        ProcessState(Status.C, 4, 3),   # rootless pair, mutually attached
        ProcessState(Status.C, 3, 2),
    )

    trace = run(config, g, CentralDaemon(seed=7))
    for i, moves in enumerate(trace.steps):
        fired = {u: m.rule.value for u, m in moves.items()}
        print(f"step {i}: {fired}")

    print(f"\nfinal after {trace.step_count} steps:")
    for u, state in enumerate(trace.final):
        print(f"  {u}: {state.status.value} par={state.par} d={state.d}")

    print("\nchecks:")
    for result in full_trace_report(trace, g, check_trace(trace, g)):
        print(f"  {result.name}: {'PASS' if result.ok else 'FAIL'} {result.detail}")


if __name__ == "__main__":
    main()
