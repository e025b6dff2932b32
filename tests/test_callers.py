"""Every public function of polycrit has a caller in the package itself,
unless it is listed below with the reason it stays: a function that only
tests call is test-only API, and one that nothing calls is dead code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polycrit"

TEST_ONLY = {
    "fov.kippenhahn_eval": "the tangent-line determinant form of acceptance criterion c10",
    "fov.point_margin": "membership margins of acceptance criterion c6; the benchmark's tracing layers name it",
    "matricial.is_trace_vector": "the trace-vector test of acceptance criterion c2",
    "matricial.is_differentiator": "the differentiator identity of acceptance criterion c3",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _references(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every function the package refers to: a bare name
    in its own module, ``module.name``, or ``from .module import name``."""
    refs = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                refs.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                refs.update((node.module, alias.name) for alias in node.names)
    return refs


def _public_functions(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def test_every_public_function_has_a_caller_in_the_package():
    trees = _trees()
    uncalled = {f"{module}.{name}" for module, name in _public_functions(trees) - _references(trees)}
    assert uncalled - TEST_ONLY.keys() == set(), "public functions with no caller in src/polycrit"


def test_the_test_only_list_names_only_uncalled_functions():
    # a listed function that gains a caller leaves the list
    trees = _trees()
    called = {f"{module}.{name}" for module, name in _public_functions(trees) & _references(trees)}
    assert TEST_ONLY.keys() & called == set()
    assert TEST_ONLY.keys() <= {f"{module}.{name}" for module, name in _public_functions(trees)}
