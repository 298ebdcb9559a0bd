"""Per-layer measurement from outside the program.

``traced`` wraps every public function of the six layer modules in a span
recorder, and wraps each daemon that ``cli`` builds in ``TimedDaemon``, so
``engine.run``'s self time excludes daemon selection without editing the
package. ``profile_pass`` runs one pass under cProfile and aggregates self
time by module plus exact call counts of the hot functions.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from stabtree.daemon import DaemonPolicy

LAYERS = ("graph", "engine", "daemon", "analysis", "explorer", "cli")


class SpanRecorder:
    """Spans kept in memory as (name, start, end, self seconds); a span's
    self time is its duration minus the time its child spans cover."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float]] = []
        self._children: list[float] = []  # child seconds of each open span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def _close(self, name: str, start: float) -> None:
        end = time.perf_counter()
        child = self._children.pop()
        if self._children:
            self._children[-1] += end - start
        self.spans.append((name, start, end, end - start - child))

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # Time each resumption; the consumer's work between them is not ours.
            def resumed(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        value = self.call(name, next, it)
                    except StopIteration:
                        return
                    yield value

            return resumed
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, seconds, self seconds]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out


class TimedDaemon(DaemonPolicy):
    """Delegates ``select`` to ``inner`` and records each call as a
    ``daemon.select`` span. The inner policy keeps its own step counter, so
    its random draws, and hence the trace, are unchanged."""

    def __init__(self, inner: DaemonPolicy, recorder: SpanRecorder):
        self.inner = inner
        self.name = inner.name
        self.seed = inner.seed
        self._recorder = recorder

    def select(self, config, g, enabled):
        return self._recorder.call("daemon.select", self.inner.select, config, g, enabled)


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every binding of the layers' public functions, in every
    ``stabtree`` module, with span-recording wrappers; restore on exit."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"stabtree.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = recorder.wrap(f"{layer}.{name}", obj)
    cli = sys.modules["stabtree.cli"]
    parse = wrappers[cli.parse_daemon_spec]
    wrappers[cli.parse_daemon_spec] = lambda spec, seed=0: TimedDaemon(parse(spec, seed), recorder)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "stabtree" and not modname.startswith("stabtree."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    try:
        yield
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)


PROFILE_MODULES = ("graph", "protocol", "engine", "daemon", "analysis", "explorer", "cli", "enum")
PROFILE_CALLS = {
    ("protocol", "enabled_rule"): "profile.protocol.enabled_rule.calls",
    ("protocol", "enabled_rules"): "profile.protocol.enabled_rules.calls",
    ("analysis", "alive_abnormal_roots"): "profile.analysis.alive_abnormal_roots.calls",
    ("enum", "__hash__"): "profile.enum.hash.calls",
}


def profile_pass(run_pass: Callable[[], None]) -> tuple[float, dict[str, float]]:
    """Run one pass under cProfile; returns (wall seconds, metrics)."""
    import stabtree

    package = Path(stabtree.__file__).resolve().parent
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        run_pass()
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    metrics = {f"profile.{m}.self_s": 0.0 for m in PROFILE_MODULES}
    metrics.update({key: 0 for key in PROFILE_CALLS.values()})
    for (filename, _, func), (_, calls, self_s, _, _) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        module = path.stem if path.parent == package else "enum" if path.name == "enum.py" else None
        if module in PROFILE_MODULES:
            metrics[f"profile.{module}.self_s"] += self_s
        if (module, func) in PROFILE_CALLS:
            metrics[PROFILE_CALLS[module, func]] += calls
    return wall, metrics
