"""The README's library layout names exactly the package's modules, the package's imports stay declared
and used, every module-level name the package defines is used somewhere, and by more than tests, and
every docstring cross-reference names something the package defines."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "structlabor").glob("*.py"))
# The runtime dependencies pyproject.toml declares, by import name, and the package itself.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "structlabor"}


def test_readme_library_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `structlabor\.(\w+)`", section, flags=re.M)
    modules = sorted(path.stem for path in MODULES if path.stem != "__init__")
    assert sorted(listed) == modules
    assert len(set(listed)) == len(listed)
    for name in listed:
        importlib.import_module(f"structlabor.{name}")


def imported_roots(source: str) -> set[str]:
    """Top-level names of every absolute import in ``source``, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_sees_every_absolute_import():
    source = "import os.path, scipy.linalg\nfrom yaml import safe_load\nfrom . import rng\n"
    source += "def f():\n    from scipy import optimize\n"
    assert imported_roots(source) == {"os", "scipy", "yaml"}
    assert "scipy" not in ALLOWED


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library_numpy_and_yaml(path):
    assert imported_roots(path.read_text(encoding="utf-8")) <= ALLOWED


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_does_not_import_multiprocessing(path):
    # Workers are forked by parallel.forked_map with os.fork and pipes alone.
    assert "multiprocessing" not in imported_roots(path.read_text(encoding="utf-8"))


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports at module level and never reads; the
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_sees_names_never_read():
    source = "from __future__ import annotations\nimport os.path, numpy as np\nfrom . import rng\n"
    source += "from .schema import A, B as C\n\ndef f():\n    import re\n    return np.pi + A + os.sep\n"
    assert unused_imports(source) == ["rng", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SOURCES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


def unreferenced(source: str, others: list[str]) -> list[str]:
    """Module-level functions, classes and assigned names of ``source`` that
    appear, as whole words, neither in ``others`` nor in ``source`` outside
    their own definition."""
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in (rest, *others)):
                dead.append(name)
    return dead


def test_unreferenced_sees_names_used_only_in_their_own_definition():
    source = "A, B = 1, 2\nC: int = A\n\ndef f(n):\n    return f(n - 1)\n\nclass G:\n    pass\n"
    assert unreferenced(source, ["G()"]) == ["B", "C", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_name_is_referenced(path):
    others = [other.read_text(encoding="utf-8") for other in SOURCES if other != path]
    assert unreferenced(path.read_text(encoding="utf-8"), others) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_name_is_used_outside_tests(path):
    # Code that only tests use belongs in tests/.
    program = [other for top in ("src", "perfbench") for other in (ROOT / top).rglob("*.py") if other != path]
    others = [other.read_text(encoding="utf-8") for other in program]
    assert unreferenced(path.read_text(encoding="utf-8"), others) == []


ROLE = re.compile(r":(?:func|meth|class):`([^`]+)`")


def package_definitions() -> dict[str, set[str]]:
    """Per module, by stem: the functions and classes it defines at module
    level, and its classes' methods as ``Class.method``."""
    defined = {}
    for path in MODULES:
        names = defined[path.stem] = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{sub.name}" for sub in node.body if isinstance(sub, ast.FunctionDef))
    return defined


DEFINED = package_definitions()


def unresolved_roles(source: str) -> list[str]:
    """Targets of ``source``'s :func:, :meth: and :class: roles that name
    nothing in the package: a ``~structlabor.module.name`` path must name
    something that module defines, and a bare ``name`` or ``Class.method``
    something some module defines."""
    anywhere = set().union(*DEFINED.values())
    bad = []
    for target in ROLE.findall(source):
        package, _, path = target.lstrip("~").partition(".")
        module, _, name = path.partition(".")
        found = name in DEFINED.get(module, ()) if package == "structlabor" else target in anywhere
        if not found:
            bad.append(target)
    return bad


def test_unresolved_roles_sees_targets_the_package_does_not_define():
    good = ":func:`solve_roy`, :meth:`WorkerSkillMatrix.skills` and :func:`~structlabor.parallel.forked_map`"
    bad = ":func:`_skill_normals`, :meth:`WorkerSkillMatrix.a`, :func:`~structlabor.roy.forked_map`, :class:`np.ndarray`"
    assert unresolved_roles(good + "\n" + bad) == [
        "_skill_normals", "WorkerSkillMatrix.a", "~structlabor.roy.forked_map", "np.ndarray",
    ]
    assert sum(len(ROLE.findall(path.read_text(encoding="utf-8"))) for path in MODULES) >= 15


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_docstring_cross_references_resolve(path):
    assert unresolved_roles(path.read_text(encoding="utf-8")) == []


def dataclasses_without_post_init(source: str) -> list[str]:
    """Classes of ``source`` under a ``@dataclass`` decorator, called or not,
    that define no ``__post_init__``: a dataclass validates, and a class that
    checks nothing is a ``NamedTuple`` record."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            if not any(isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__" for sub in node.body):
                bad.append(node.name)
    return bad


def test_dataclasses_without_post_init_sees_dataclasses_that_check_nothing():
    source = "@dataclass\nclass A:\n    x: int\n\n@dataclass(frozen=True, eq=False)\nclass B:\n    x: int\n"
    source += "\n@dataclasses.dataclass(frozen=True)\nclass C:\n    def size(self):\n        pass\n"
    source += "\n@dataclass(frozen=True)\nclass D:\n    def __post_init__(self):\n        pass\n"
    source += "\nclass E(NamedTuple):\n    x: int\n\n@total_ordering\nclass F:\n    pass\n"
    assert dataclasses_without_post_init(source) == ["A", "B", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_dataclass_validates_in_post_init(path):
    assert dataclasses_without_post_init(path.read_text(encoding="utf-8")) == []
