"""The traced benchmark's span targets must exist in the package.

``perfbench/tracer.py`` wraps each (module, attribute) in its ``SPANS``
table and only lists the ones it cannot find, so a rename would go
unnoticed outside a traced run.  Its ``_post_solve`` hook reads fields of
each ``RoyEquilibrium``, so a renamed field would break the traced run
without failing anything else.  The table and the hook are read with
``ast``; the benchmark's files are neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from structlabor.roy import RoyEquilibrium

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def span_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in node.value.elts]
    raise AssertionError(f"no SPANS table in {TRACER}")


def test_span_table_is_read():
    targets = span_targets()
    assert ("structlabor.estimators", "MaturityPanel.__post_init__") in targets
    assert len(targets) >= 20


@pytest.mark.parametrize("module_name, attr", span_targets())
def test_span_target_resolves(module_name, attr):
    # Looked up the way the tracer does: in the owner's own namespace.
    owner = importlib.import_module(module_name)
    *cls, attr_name = attr.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert vars(owner).get(attr_name) is not None, f"{module_name}.{attr} is gone"


def post_solve_fields() -> set[str]:
    """Attributes ``_post_solve`` reads from the equilibrium, its fourth argument."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_post_solve":
            eq = node.args.args[3].arg
            return {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == eq
            }
    raise AssertionError(f"no _post_solve hook in {TRACER}")


def test_post_solve_reads_fields_roy_equilibrium_has():
    read = post_solve_fields()
    assert {"iterations", "converged", "residual"} <= read
    assert read <= set(RoyEquilibrium._fields)
