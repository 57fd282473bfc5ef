"""Print the code lines of each module in src/besselbounds and their total.

A code line holds at least one token that is not a comment; the lines of a
statement that is only a string (a docstring) and blank lines do not count.

    python3 tools/code_lines.py [--src DIR]

``--src`` names the source tree whose ``besselbounds`` package is counted
(default: this repository's ``src``), so one command counts another
checkout.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - strings)


SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(SRC), help="source tree to count")
    root = Path(ap.parse_args(argv).src) / "besselbounds"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    if not counts:
        ap.error(f"no modules in {root}")
    width = max(len("total"), *map(len, counts))
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}} {n:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
