"""``scripts/pairs.py``'s summary of paired benchmark runs, on synthetic
runs: wins, ties and the one-sided sign test; and sessions with failed,
incorrect and malformed runs, through ``main`` with the benchmark runs
stubbed."""

import importlib.util
import json
import subprocess
import sys
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


def _session(tmp_path, monkeypatch, better, run, n_pairs, seed):
    """Run ``pairs.main`` in ``tmp_path`` with ``run`` for ``_run`` and no git."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": _declared(better)}))
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "_extract", lambda tree_ish, dest: None)
    monkeypatch.setattr(pairs, "_working_tree", lambda tmp: "tree")
    monkeypatch.setattr(pairs, "_run", run)
    monkeypatch.setattr(sys, "argv", ["pairs.py", "REV", "--workload", "w", "--pairs",
                                      str(n_pairs), "--seed", str(seed), "--label", "t"])
    pairs.main()


def test_a_failed_or_incorrect_run_is_kept_counted_and_left_out(tmp_path, monkeypatch):
    # pair 1's change run exits 3 and pair 2's parent2 run is incorrect;
    # the session goes on, the file holds every run, and the summary only
    # the two clean pairs
    calls = []

    def run(checkout, workload, seed, seconds):
        side = Path(checkout).name
        calls.append((seed, side))
        if (seed, side) == (101, "change"):
            return {"exit_code": 3}
        value = {"parent": 100.0, "change": 120.0, "parent2": 101.0}[side] + seed
        return {"exit_code": 0, "fingerprint": {}, "attempted": 4,
                "correct": (seed, side) != (102, "parent2"),
                "failed": int((seed, side) == (102, "parent2")),
                "metrics": {"m": {"value": value}}}

    with pytest.raises(SystemExit) as exit_info:
        _session(tmp_path, monkeypatch, "higher", run, 4, 100)
    assert exit_info.value.code == 1
    assert len(calls) == 12
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["w"]
    assert entry["failed_runs"] == {"parent": 0, "change": 1, "parent2": 0}
    assert entry["incorrect_runs"] == {"parent": 0, "change": 0, "parent2": 1}
    assert entry["runs"]["change"][1] == {"pair": 1, "seed": 101, "first": True,
                                          "exit_code": 3}
    assert [len(entry["runs"][side]) for side in pairs.SIDES] == [4, 4, 4]
    s = entry["summary"]["m"]
    assert s["pairs"] == 2
    assert s["parent"]["median"] == 100.0 + (100 + 103) / 2
    assert s["change_wins"] == 2
    assert not list(tmp_path.glob("*.tmp"))


def test_a_clean_session_exits_zero(tmp_path, monkeypatch):
    _session(tmp_path, monkeypatch, "lower",
             lambda checkout, workload, seed, seconds: {
                 "exit_code": 0, "fingerprint": {}, "correct": True, "failed": 0,
                 "attempted": 1, "metrics": {"m": {"value": 1.0}}},
             2, 1)
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["w"]
    assert entry["failed_runs"] == entry["incorrect_runs"] == dict.fromkeys(pairs.SIDES, 0)
    assert entry["summary"]["m"]["pairs"] == 2


def test_a_malformed_run_is_kept_counted_and_left_out(tmp_path, monkeypatch):
    # runs that exit 0 without a fingerprint line, with a last line that
    # is not JSON, or with no output at all; the real _run parses them
    good = 'fingerprint {}\n{"correct": true, "attempted": 1, "failed": 0, ' \
           '"metrics": {"m": {"value": 1.0}}}\n'
    bad = {(11, "change"): '{"correct": true}\n',
           (12, "parent"): "fingerprint {}\nTraceback (most recent call last):\n",
           (13, "parent2"): ""}

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        out = bad.get((seed, Path(cwd).name), good)
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exit_info:
        _session(tmp_path, monkeypatch, "higher", pairs._run, 4, 10)
    assert exit_info.value.code == 1
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["w"]
    assert entry["malformed_runs"] == dict.fromkeys(pairs.SIDES, 1)
    assert entry["failed_runs"] == entry["incorrect_runs"] == dict.fromkeys(pairs.SIDES, 0)
    assert entry["runs"]["change"][1]["malformed"] == "no fingerprint line"
    assert entry["runs"]["parent"][2]["malformed"].startswith("not JSON")
    assert [len(entry["runs"][side]) for side in pairs.SIDES] == [4, 4, 4]
    assert entry["summary"]["m"]["pairs"] == 1
