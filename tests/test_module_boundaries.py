"""No module of the package reaches into another's private names: a
``_name`` is its own module's business, so a layout or an algorithm kept
behind one stays behind it (all CSV line layout lives in
``verify._write_lines``, for one)."""

import ast
from pathlib import Path

import besselbounds

PACKAGE = Path(besselbounds.__file__).resolve().parent


def _private_uses(tree: ast.Module) -> list:
    """(line, text) of each ``module._name`` attribute read on a package
    module bound by ``from . import module [as name]``, and of each
    ``from .module import _name``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    uses = {path.name: _private_uses(ast.parse(path.read_text())) for path in paths}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_check_sees_private_reads():
    tree = ast.parse("from . import verify as v\n"
                     "from .oracle import _TINY, horner\n"
                     "def f():\n"
                     "    from . import g17\n"
                     "    return v._Axis, g17._fill, v.__name__\n")
    assert _private_uses(tree) == [(2, "oracle._TINY"), (5, "g17._fill"), (5, "v._Axis")]
