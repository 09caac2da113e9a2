"""Every example script compiles, and every name it imports from
``repro`` resolves — without running it (CI runs three of them end to
end; the other two take minutes)."""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


def _repro_imports(tree: ast.AST):
    """``(module, name or None)`` for each import of ``repro`` code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_the_examples_are_all_here():
    assert {p.name for p in EXAMPLES} >= {
        "burst_buffer_scheduling.py", "custom_trace.py", "motivating_example.py",
        "power_aware_scheduling.py", "quickstart.py",
    }


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_its_imports_resolve(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    imports = list(_repro_imports(ast.parse(source)))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from repro.pkg import submodule`` names a module
            importlib.import_module(f"{module_name}.{name}")
