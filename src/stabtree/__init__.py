"""Simulator and verification harness for a silent self-stabilizing
rooted shortest-path tree protocol with disconnection detection."""

from types import ModuleType as _ModuleType

from .graph import (
    INFINITY,
    ComponentInfo,
    WeightedGraph,
    build_graph,
    component_info,
    generate_random_graph,
    hop_diameter_root,
    induced_subgraph,
    load_graph,
    parse_graph,
    root_distances,
    root_hop_distances,
    save_graph,
)
from .protocol import ROOT_STATE, Configuration, Move, ProcessState, Rule, Status
from .engine import (
    ExecutionTrace,
    check_trace,
    enabled,
    normal_initial_configuration,
    random_configuration,
    run,
)
from .daemon import (
    CentralDaemon,
    DaemonPolicy,
    MaxChurnDaemon,
    RandomDistributedDaemon,
    StarveCleanupDaemon,
    SynchronousDaemon,
    parse_daemon_spec,
)
from .analysis import (
    TraceWalk,
    full_trace_report,
    legitimate_config,
    legitimate_state,
    round_bound,
    step_bound,
    uniform_step_bound,
)
from .explorer import (
    CertificationResult,
    certify_instance,
    enumerate_initial_configs,
)

# Not the submodules: ``from stabtree import *`` must not rebind a caller's ``graph``.
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
