"""`tools/output_digest.py` digests every report command's output, the
monotone suite's reports and the sharpness battery's, so a byte-identity claim between two source
trees is one diff.  The tool is loaded from its file, not imported as a
package."""

import hashlib
import importlib.util
import re
from pathlib import Path

from besselbounds import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_on_a_tiny_grid(capsys, tmp_path):
    tool = _load()
    assert tool.main(["--tiny"]) == 0
    first = capsys.readouterr().out
    assert tool.main(["--tiny"]) == 0
    assert capsys.readouterr().out == first      # outputs repeat byte for byte
    lines = first.splitlines()
    runs = dict(re.fullmatch(r"(\S+) exit=(\d) stdout=[0-9a-f]{64} stderr=[0-9a-f]{64}",
                             line).groups() for line in lines if " exit=" in line)
    assert runs == {"verify-default": "0", "verify-x-min": "0", "verify-default-corrupt": "1",
                    "verify-corrupt-zero": "2", "verify-corrupt-slack": "2", "verify-dense": "0",
                    "verify-dense-corrupt": "1",
                    "conjecture": "0", "sharpness": "0", "tabulate": "0", "explore": "0",
                    "explore-nu": "0", "explore-y0": "0"}
    assert ({line.split()[0].split("/")[0] for line in lines}
            == {*runs, "monotone-dense", "sharpness-battery"})
    files = dict(line.split() for line in lines if " exit=" not in line)
    for run in ("verify-default", "verify-x-min", "verify-default-corrupt", "verify-dense"):
        assert sum(name.startswith(run + "/") for name in files) == 25
    assert not any(name.startswith(("verify-corrupt-zero", "verify-corrupt-slack"))
                   for name in files)
    assert sum(name.startswith("sharpness/") for name in files) == 7
    assert sum(name.startswith("monotone-dense/") for name in files) == 21
    assert sum(name.startswith("sharpness-battery/") for name in files) == 7
    # a digest is the sha256 of what the command writes
    out = tmp_path / "table.csv"
    assert cli.main(["tabulate", *tool.TINY_GRID, "--out", str(out)]) == 0
    assert files["tabulate/tabulate.csv"] == hashlib.sha256(out.read_bytes()).hexdigest()
