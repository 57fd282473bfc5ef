"""`tools/ab_pairs.py` summarises alternating perfbench runs of two trees;
its arithmetic (pairs won and tied, quartiles, the parent's IQR) is pinned
here on canned numbers, without running perfbench.  The tool is loaded
from its file, not imported as a package."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate_inclusively():
    tool = _load()
    assert tool.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarise_counts_wins_and_ties_per_pair():
    tool = _load()
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 4.0, 3.0, 1.0]        # lower, tied, higher, lower, lower
    s = tool.summarise(parent, change)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert s["change"] == {"median": 2.0, "q1": 1.0, "q3": 3.0, "runs": change}
    assert (s["change_lower_pairs"], s["tied_pairs"], s["pairs"]) == (3, 1, 5)
    assert s["median_change_pct"] == -33.33
    assert s["parent_iqr"] == 2.0
    # where higher is better the same pairs give one win, one tie
    s = tool.summarise(parent, change, better="higher")
    assert (s["change_higher_pairs"], s["tied_pairs"]) == (1, 1)


def test_summarise_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        _load().summarise([1.0, 2.0], [1.0])
