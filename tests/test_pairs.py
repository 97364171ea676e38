"""Summary statistics of tools/pairs.py on synthetic benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def result(attempted=10, failed=0, **values):
    """A run's result object, as ``perfbench/run.py`` prints it last."""
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": "u"}
                        for name, v in values.items()}}


def test_quartiles_inclusive_and_single_value():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}
    assert pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    runs = [{"parent": result(rss=127.0, ops=10.0),
             "change": result(rss=114.0, ops=10.0)},
            {"parent": result(rss=126.0, ops=9.0),
             "change": result(rss=126.0, ops=11.0)},
            {"parent": result(rss=128.0, ops=12.0),
             "change": result(rss=129.0, ops=8.0)}]
    summary = pairs.summarize(runs, {"rss": "lower", "ops": "higher"})
    rss, ops = summary["metrics"]["rss"], summary["metrics"]["ops"]
    assert rss["wins"] == {"parent": 1, "change": 1}
    assert ops["wins"] == {"parent": 1, "change": 1}
    assert rss["better"] == "lower" and rss["unit"] == "u"
    assert rss["parent"] == {"q1": 126.5, "median": 127.0, "q3": 127.5}
    assert rss["change"]["median"] == 126.0


def test_summarize_pools_ok_frac_over_operations():
    runs = [{"parent": result(attempted=10, failed=1, t=1.0),
             "change": result(attempted=30, failed=0, t=1.0)},
            {"parent": result(attempted=30, failed=3, t=1.0),
             "change": result(attempted=10, failed=0, t=1.0)}]
    summary = pairs.summarize(runs, {"t": "lower"})
    assert summary["ok_frac"] == {"parent": pytest.approx(0.9), "change": 1.0}
    assert summary["metrics"]["t"]["wins"] == {"parent": 0, "change": 0}
