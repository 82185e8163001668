"""``scripts/pairs.py``'s summary of paired benchmark runs, on synthetic
runs: wins, ties and the one-sided sign test."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _runs(**sides):
    """``runs`` as ``pairs.main`` collects them, from one list of values
    of metric ``m`` per copy."""
    return {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in sides.items()}


def _declared(better):
    return [{"name": "m", "unit": "s", "better": better, "bound": 0.1}]


def test_ten_wins_of_ten_give_p_one_in_1024():
    parent = [100.0 + i for i in range(10)]
    runs = _runs(parent=parent, change=[v * 1.2 for v in parent], parent2=parent)
    s = pairs.summarize(runs, _declared("higher"))["m"]
    assert (s["change_wins"], s["pairs"]) == (10, 10)
    assert s["sign_p"] == 1 / 1024
    assert s["ratio"] == pytest.approx(1.2)
    assert (s["aa_ratio"], s["floor"], s["beyond_floor"]) == (1.0, 1.0, 10)


def test_lower_is_better_and_ties_count_for_neither_side():
    parent = [2.0] * 10
    # seven lower (wins for a lower-is-better metric), two tied, one higher
    change = [1.5] * 7 + [2.0, 2.0, 2.5]
    s = pairs.summarize(_runs(parent=parent, change=change, parent2=parent),
                        _declared("lower"))["m"]
    assert s["change_wins"] == 7
    # 7 or more wins in the 8 untied pairs: (C(8, 7) + C(8, 8)) / 2^8
    assert s["sign_p"] == 9 / 256
    assert s["ratio"] == 0.75


def test_all_tied_pairs_give_p_one():
    parent = [3.0] * 4
    s = pairs.summarize(_runs(parent=parent, change=parent, parent2=parent),
                        _declared("higher"))["m"]
    assert (s["change_wins"], s["sign_p"]) == (0, 1.0)


def test_a_metric_missing_from_a_run_is_left_out():
    runs = _runs(parent=[1.0], change=[1.0], parent2=[1.0])
    runs["change"][0]["metrics"] = {}
    assert pairs.summarize(runs, _declared("higher")) == {}


@pytest.mark.parametrize("wins, losses, p", [(0, 0, 1.0), (0, 5, 1.0), (1, 0, 0.5),
                                             (9, 1, 11 / 1024), (5, 5, 638 / 1024)])
def test_sign_test_is_the_binomial_tail(wins, losses, p):
    assert pairs.sign_test(wins, losses) == p
