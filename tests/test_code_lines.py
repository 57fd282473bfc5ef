"""`tools/code_lines.py` is the size metric simplicity changes report, so
its counting rule is pinned here.  The tool is loaded from its file, not
imported as a package."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # a comment line
        import math


        def f(x):
            """One-line docstring."""
            total = (x +      # trailing comment
                     math.pi)
            s = """a string
        that is a value"""
            return total, s
        ''')
    # import, def, the two lines of `total = ...`, the two of `s = ...`, return
    assert _load().code_lines(source) == 7


def test_code_lines_counts_the_package(capsys):
    tool = _load()
    assert tool.main() == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1].split()[0] == "total"
    counts = [int(ln.split()[1].replace(",", "")) for ln in lines]
    assert sum(counts[:-1]) == counts[-1] > 0


def test_code_lines_counts_another_tree(tmp_path, capsys):
    package = tmp_path / "besselbounds"
    package.mkdir()
    (package / "a.py").write_text('"""Docstring."""\n\nx = 1\ny = 2\n')
    (package / "b.py").write_text("# a comment\nz = 3\n")
    tool = _load()
    assert tool.main(["--src", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [ln.split() for ln in lines] == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]
    # a tree without the package counts nothing and is refused, not reported as 0
    with pytest.raises(SystemExit):
        tool.main(["--src", str(tmp_path / "missing")])
