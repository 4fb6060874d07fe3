"""tools/ab.py's verdict on fixed ratios: the rule an in-process A/B claim must meet."""

import importlib.util
import sys

import pytest

from .conftest import REPO_ROOT


@pytest.fixture(scope="module")
def ab():
    sys.path.insert(0, str(REPO_ROOT / "tools"))  # for ab.py's import of pairs.py
    spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.path.remove(str(REPO_ROOT / "tools"))
    return module


CONTROL = [0.97, 1.01, 0.99, 1.03, 1.00, 0.98, 1.02, 1.00, 0.99, 1.01]  # quartiles 0.99, 1, 1.01


def test_better_needs_the_upper_quartile_below_one_and_the_control(ab):
    faster = [0.90, 0.93, 0.88, 0.95, 0.91, 0.97, 0.89, 0.92, 0.94, 0.90]
    assert ab.verdict(faster, CONTROL) == "better"
    change = [0.90, 0.995, 0.88, 0.995, 0.91, 0.995, 0.89, 0.995, 0.995, 0.90]
    assert ab.quartiles(change)[2] == pytest.approx(0.995)  # inside the control's spread
    assert ab.verdict(change, CONTROL) == "unresolved"
    drifting = [c + 0.1 for c in CONTROL]  # lower quartile 1.09
    assert ab.verdict([c + 0.05 for c in CONTROL], drifting) == "unresolved"  # not below 1
    assert ab.verdict([c - 0.05 for c in CONTROL], drifting) == "better"


def test_worse_mirrors_better(ab):
    assert ab.verdict([c + 0.1 for c in CONTROL], CONTROL) == "worse"
    assert ab.verdict(CONTROL, CONTROL) == "unresolved"
    with pytest.raises(ValueError):
        ab.verdict([0.9], CONTROL)


def test_series_summary(ab):
    summary = ab.series([2.0, 4.0, 1.0], [1.0, 5.0, 1.0])
    assert (summary["ratios"], summary["second_faster"]) == ([0.5, 1.25, 1.0], 1)
    assert summary["ratio_quartiles"] == pytest.approx([0.75, 1.0, 1.125])
    assert summary["medians_s"] == [2.0, 1.0]
