"""tools/pairs.py's verdict on fixed numbers: the rule a claimed gain must meet."""

import importlib.util

import numpy as np
import pytest

from .conftest import REPO_ROOT


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", REPO_ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [88.80, 88.82, 88.85, 88.79, 88.90, 88.81, 88.84, 88.80, 88.83, 88.86]


def test_quartiles_interpolate_as_numpy(pairs):
    assert pairs.quartiles(PARENT) == pytest.approx(np.percentile(PARENT, [25, 50, 75]), abs=1e-12)


def test_lower_in_every_pair_beyond_the_spread_is_better(pairs):
    change = [80.27, 80.46, 80.25, 80.30, 80.31, 80.28, 80.40, 80.33, 80.29, 80.35]
    result = pairs.verdict(PARENT, change, bound=0.05)
    assert (result["verdict"], result["wins"], result["losses"]) == ("better", 10, 0)
    assert result["median_gap"] == pytest.approx(np.median(PARENT) - np.median(change))
    assert result["parent_spread"] == pytest.approx(88.8475 - 88.8025)
    assert result["within_bound"] is True


def test_nine_wins_of_ten_suffice_and_eight_do_not(pairs):
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 1.0
    assert pairs.verdict(PARENT, change)["verdict"] == "better"
    change[1] = PARENT[1]  # a tie counts for neither side
    result = pairs.verdict(PARENT, change)
    assert (result["wins"], result["losses"], result["verdict"]) == (8, 1, "unresolved")


def test_a_gap_inside_the_parent_spread_is_unresolved(pairs):
    change = [p - 0.001 for p in PARENT]  # lower in every pair, by far less than the spread
    result = pairs.verdict(PARENT, change)
    assert result["wins"] == 10 and result["verdict"] == "unresolved"


def test_worse_and_the_bound(pairs):
    change = [p * 1.10 for p in PARENT]
    result = pairs.verdict(PARENT, change, bound=0.05)
    assert (result["verdict"], result["losses"], result["within_bound"]) == ("worse", 10, False)
    assert pairs.verdict(PARENT, change, bound=0.25)["within_bound"] is True


def test_a_change_that_fails_more_operations_is_not_better(pairs):
    change = [p - 1.0 for p in PARENT]
    assert pairs.verdict(PARENT, change, failed=(2, 2))["verdict"] == "better"
    result = pairs.verdict(PARENT, change, failed=(0, 1))
    assert (result["wins"], result["failed"], result["verdict"]) == (10, [0, 1], "unresolved")


def test_series_must_pair_up(pairs):
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:-1])
