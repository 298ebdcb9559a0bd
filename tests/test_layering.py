import ast
import graphlib
import pathlib

import stabtree

PACKAGE = pathlib.Path(stabtree.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _package_imports(source: str):
    """The package modules that ``source`` imports, and the line of each
    package import made inside a function."""
    imported, local = set(), []

    def targets(node):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif node.level:  # from . import x, from .x import y
            dotted = [f"stabtree.{node.module or alias.name}" for alias in node.names]
        else:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "stabtree" and len(parts) > 1 and parts[1] in MODULES:
                yield parts[1]

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found = set(targets(child))
                imported.update(found)
                if found and in_function:
                    local.append(child.lineno)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return imported, local


def _module_imports():
    return {name: _package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}


class TestLayering:
    """Each module imports the package modules it uses at module level, and
    those imports form no cycle: analysis judges executions and imports
    nothing from engine, which runs and replays them."""

    def test_detector_sees_a_local_import(self):
        source = "from . import graph\nfrom .protocol import Move\ndef f():\n    from stabtree import engine\n    import json\n"
        assert _package_imports(source) == ({"graph", "protocol", "engine"}, [4])

    def test_no_function_local_package_import(self):
        local = {name: lines for name, (_, lines) in _module_imports().items() if lines}
        assert local == {}

    def test_module_imports_form_no_cycle(self):
        graph = {name: imported for name, (imported, _) in _module_imports().items()}
        order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError names the cycle
        assert sorted(order) == MODULES
        assert "engine" not in graph["analysis"]
