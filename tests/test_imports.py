"""No module of the package imports a name it never reads, no module
defines a private function, class or method that no module reads, no
package class has a public method that only tests read, and no module
reads the environment, so no variable changes behaviour unseen.
The weight, moment-graph, stalk, transition and rank modules work in
integers only, so they do not import ``fractions``.  The number of settable values is
pinned, so a new option fails here until the pin moves with a reason.

There is no linter in the toolchain, so this walks each module's syntax
tree.  A name counts as read when some expression loads it or when it
is listed in the module's ``__all__`` (a re-export).  A module-level
private definition (``_name``) also counts as read when some module
loads it as an attribute or imports it by name.  A private method
(``_name``, not a dunder) of a package class counts as read when some
module loads it as an attribute.  A public method counts as read when
some file under ``src/`` or ``perfbench/``, or some ``python`` block of
the README, loads it as an attribute.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gkmfactor"
BENCH = REPO / "perfbench"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unread_private_definitions(sources: dict) -> list:
    """(module, line, name) of each module-level private function or
    class that none of ``sources`` (module name -> source) reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def unread_private_methods(sources: dict) -> list:
    """(module, line, name) of each private method of a class in
    ``sources`` (module name -> source) that no module loads as an
    attribute."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, item.lineno, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("_")
                    and not item.name.startswith("__")
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def readme_python_blocks(text: str) -> list:
    """The source of each fenced ``python`` block of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def unread_public_methods(package: dict, readers: list) -> list:
    """(module, line, "Class.method") of each public method of a class in
    ``package`` (module name -> source) that none of ``readers`` (sources)
    loads as an attribute."""
    read = set()
    for source in readers:
        read.update(
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    found = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (module, item.lineno, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and item.name not in read
                )
    return sorted(found)


def test_finds_an_unread_public_method():
    package = {
        "a": (
            "class A:\n"
            "    def used(self):\n        pass\n"
            "    def dead(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "    @property\n    def size(self):\n        return 0\n"
            "    def documented(self):\n        pass\n"
        ),
        "b": "def go(a):\n    return a.used(), a.size\n",
    }
    readme = "Text.\n\n```python\nA().documented()\n```\n\n```\nA().dead()\n```\n"
    readers = list(package.values()) + readme_python_blocks(readme)
    assert unread_public_methods(package, readers) == [("a", 4, "A.dead")]


def test_no_unread_public_methods():
    # A public method that only tests read belongs in tests/, not in the API.
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PACKAGE.parent.rglob("*.py"))]
    readers += [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    readers += readme_python_blocks((REPO / "README.md").read_text())
    assert unread_public_methods(package, readers) == []


def test_finds_an_unread_private_definition():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _imported():\n    pass\n"
            "def _dead():\n    pass\n"
            "class _Gone:\n    def _method(self):\n        pass\n"
            "x = _used()\n"
        ),
        "b": "from .a import _imported\n",
    }
    assert unread_private_definitions(sources) == [("a", 5, "_dead"), ("a", 7, "_Gone")]


def test_finds_an_unread_private_method():
    sources = {
        "a": (
            "class A:\n"
            "    def _used(self):\n        pass\n"
            "    def _dead(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "    def run(self):\n        return self._used()\n"
            "def _helper():\n    pass\n"
        ),
        "b": "class B:\n    def _called(self):\n        pass\n",
        "c": "def go(b):\n    b._called()\n",
    }
    assert unread_private_methods(sources) == [("a", 4, "_dead")]


def test_no_unread_private_methods():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_methods(sources) == []


def test_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def test_finds_an_unused_import():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """(line, name) of each ``os.environ``/``os.getenv`` read, also
    through ``import os as ...`` or ``from os import ...``."""
    tree = ast.parse(source)
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname for a in node.names if a.name == "os" and a.asname)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (node.lineno, f"os.{a.name}") for a in node.names if a.name in ENVIRONMENT_NAMES
            )
    return sorted(found)


def test_finds_an_environment_read():
    source = (
        "import os\nimport os as system\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = system.getenv('Y')\nc = os.cpu_count()\n"
    )
    assert environment_reads(source) == [(3, "os.getenv"), (4, "os.environ"), (5, "os.getenv")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


# Modules whose arithmetic is integer-only.
INTEGER_MODULES = ("weights.py", "momentgraph.py", "stalks.py", "transition.py", "linalg.py")


def fraction_imports(source: str) -> list:
    """Line of each ``import fractions`` or ``from fractions import ...``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for a in node.names if a.name.split(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(node.lineno)
    return found


def test_finds_a_fraction_import():
    source = "import os\nfrom fractions import Fraction\nimport fractions as f\nx = 1\n"
    assert fraction_imports(source) == [2, 3]


@pytest.mark.parametrize("name", INTEGER_MODULES)
def test_integer_modules_import_no_fractions(name):
    assert fraction_imports((PACKAGE / name).read_text()) == []


def option_declarations(source: str) -> int:
    """Number of ``add_argument`` calls: one per CLI option declared."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for node in ast.walk(ast.parse(source))
    )


def defaulted_public_parameters(source: str) -> list:
    """(function, parameter) of each parameter with a default of a public
    module-level function or a public method of a public class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def defaulted(fn, name):
        positional = fn.args.posonlyargs + fn.args.args
        with_default = positional[len(positional) - len(fn.args.defaults):] + [
            a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
        ]
        return [(name, a.arg) for a in with_default]

    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef):
            found += [
                pair
                for item in node.body
                if isinstance(item, functions) and not item.name.startswith("_")
                for pair in defaulted(item, f"{node.name}.{item.name}")
            ]
        else:
            found += defaulted(node, node.name)
    return found


def test_counts_settable_values():
    source = (
        "def run(argv, out=None, *, strict=False, level):\n"
        "    p.add_argument('--json')\n    p.add_argument('--csv')\n"
        "def _private(x=1):\n    pass\n"
        "class Table:\n"
        "    def rows(self, limit=10):\n        pass\n"
        "    def _cached(self, key=None):\n        pass\n"
    )
    assert option_declarations(source) == 2
    assert defaulted_public_parameters(source) == [
        ("run", "out"), ("run", "strict"), ("Table.rows", "limit"),
    ]


# ROADMAP aim 2's settable values: 33 CLI option declarations, 0
# environment reads and 10 defaulted parameters of public functions.
# 47 went to 43 when the all-weights transition path went: every caller
# builds one weight block, so the weight of weight_pairs and build_A is
# required, build_Q builds only the symbolic diagonal, and
# transition_bundle always uses the unit normalization.  Dropping
# build_A, build_Q and compose_C left it at 43, as none had a default.
# Move the pin only together with the ROADMAP, saying what the new
# value is for.
SETTABLE_VALUES = 43


def test_settable_value_count_is_pinned():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    options = sum(option_declarations(s) for s in sources)
    environment = sum(len(environment_reads(s)) for s in sources)
    defaults = sum(len(defaulted_public_parameters(s)) for s in sources)
    assert options + environment + defaults == SETTABLE_VALUES, (options, environment, defaults)
