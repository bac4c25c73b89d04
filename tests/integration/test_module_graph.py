"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the ``[project.scripts]`` targets and every file under
``examples/``, ``perfbench/`` and ``benchmarks/``.  From them the test walks
``import`` statements, function-level ones included:

* ``from pkg import name`` reaches the submodule ``pkg/__init__.py`` takes
  ``name`` from (through its re-exports or its PEP 562 ``_LAZY`` map);
* a string constant equal to a module's dotted name reaches that module,
  the way ``perfbench``'s span table names the layers it wraps;
* a package's top-level re-export of its own submodule reaches nothing by
  itself, or every re-exported module would count as called;
* imports under ``if TYPE_CHECKING:`` never run and reach nothing.

A module no entry point reaches has no caller outside its own tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _module_files():
    """Dotted module name -> source path, for every module under ``src/repro``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        files[".".join(parts)] = path
    return files


def _script_modules():
    """The modules named by ``[project.scripts]`` (a regex: Python 3.10 has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return re.findall(r'^\s*[\w.-]+\s*=\s*"([\w.]+):\w+"', section.group(1), re.M)


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_nodes(tree):
    """Every node of ``tree`` except the bodies of ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _absolute(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    if not node.level:
        return node.module
    base = module.split(".")
    base = base[: len(base) - node.level + is_package]
    return ".".join(base + ([node.module] if node.module else []))


class ModuleGraph:
    def __init__(self):
        self.files = _module_files()
        self.reached = set()
        self._trees = {}

    def _tree(self, path):
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), filename=str(path))
        return self._trees[path]

    def _exports(self, package):
        """``name -> (module, name there)`` for a package's own re-exports and ``_LAZY`` map."""
        exports = {}
        for node in self._tree(self.files[package]).body:
            if isinstance(node, ast.ImportFrom):
                source = _absolute(node, package, True)
                if source.startswith(package + "."):
                    for alias in node.names:
                        exports[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets
            ):
                for name, sub in ast.literal_eval(node.value).items():
                    exports[name] = (f"{package}.{sub}", name)
        return exports

    def _resolve(self, module, name):
        """The module that ``from module import name`` reaches."""
        if f"{module}.{name}" in self.files:
            return f"{module}.{name}"
        source = self._exports(module).get(name)
        if source is None or source[0] not in self.files:
            return module
        if self.files[source[0]].name == "__init__.py":
            return self._resolve(*source)
        return source[0]

    def reach(self, module):
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            self.visit(".".join(parts[:i]))

    def visit(self, module):
        if module in self.reached or module not in self.files:
            return
        self.reached.add(module)
        path = self.files[module]
        self.walk(self._tree(path), module, path.name == "__init__.py")

    def walk(self, tree, module="", is_package=False):
        own_exports = set(tree.body) if is_package else set()
        for node in _runtime_nodes(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, module, is_package)
                if node in own_exports and source.startswith(module + "."):
                    continue
                self.reach(source)
                for alias in node.names:
                    if source in self.files:
                        self.reach(self._resolve(source, alias.name))
            elif isinstance(node, ast.Constant) and node.value in self.files:
                self.reach(node.value)


def test_every_module_is_reached_from_an_entry_point():
    graph = ModuleGraph()
    for module in _script_modules():
        graph.reach(module)
    for folder in ("examples", "perfbench", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            graph.walk(ast.parse(path.read_text(), filename=str(path)))
    unreached = sorted(set(graph.files) - graph.reached)
    assert not unreached, f"modules no entry point reaches: {', '.join(unreached)}"


def test_scripts_are_read_from_pyproject():
    assert "repro.cli" in _script_modules()
    assert "repro.serve.cli" in _script_modules()
