"""Run the benchmark on a parent revision and on this working tree, in
pairs, with a same-session A/A floor.

    python scripts/pairs.py PARENT_REV --workload W --pairs N --seed S \\
        [--label L]

It extracts three ``git archive`` copies into a temporary directory: two of
the revision PARENT_REV (``parent`` and ``parent2``) and one of the working
tree as it is now (``change``), staged and unstaged edits and untracked
files included (through a temporary git index, so the real index is not
touched). Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i`` in
each copy, for the ``run_seconds`` that ``BENCHMARK.json`` declares, in the
order parent, change, parent2 rotated by ``i``, so each copy runs first in
every third pair.

The two parent copies run the same code from different directories, so
what sets them apart is the host's noise in this session, directory
placement included. Per end-to-end metric, the A/A ratio is parent2's
median over parent's, and the floor is the factor by which it strays from
1, either way. A pair counts as beyond the floor where the change's ratio
to the parent in that pair is better than 1 by more than the floor. The
widest single-pair A/A factor is kept beside it, as the host's spread.

It writes ``BENCH_<L>.json`` at the root of the checkout (L defaults to
PARENT_REV) after every pair, so a session cut short keeps the pairs it
finished. The file holds one entry per workload, so runs of other
workloads under the same label are kept. An entry has every run: its exit
code and, if it exited 0, its fingerprint, ``correct`` flag,
failed/attempted operation counts and metrics. A run that exits non-zero
is recorded and the session goes on. The entry counts each copy's failed
runs (non-zero exit) and incorrect ones (``correct`` false). The summary
leaves out every pair with such a run, and holds, for each end-to-end
metric of ``BENCHMARK.json``, each copy's median and quartiles, the ratio
of the change's median to the parent's, the metric's bound, the number of
pairs the change won (ties count for neither), the one-sided sign-test
p-value of those wins, the A/A ratio, the floor, the number of pairs
beyond it and the widest single-pair A/A factor. The script exits 1 if
any run failed or was incorrect.

The sign test asks how likely that many wins would be if the change made
no difference: each untied pair is then a fair coin, and the p-value is
the binomial tail of ``change_wins`` or more wins in the untied pairs. It
is 1/1024 for 10 wins of 10 and 11/1024 for 9 of 10.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the two copies of the parent revision and the working tree
SIDES = ("parent", "change", "parent2")


def _git(*args, env=None):
    return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                          stdout=subprocess.PIPE, check=True).stdout


def _working_tree(tmp):
    """A tree object of the working tree, built in a throwaway index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env).decode().strip()


def _extract(tree_ish, dest):
    archive = _git("archive", "--format=tar", tree_ish)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: its exit code and, if that is 0,
    its fingerprint and final JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode}
    lines = done.stdout.splitlines()
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return {"exit_code": 0, "fingerprint": fingerprint, **json.loads(lines[-1])}


def _quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test(wins, losses):
    """One-sided sign-test p-value: the chance of ``wins`` or more wins in
    ``wins + losses`` fair coin flips; 1.0 with no untied pair."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def summarize(runs, declared):
    """Per end-to-end metric: each copy's median and quartiles, the ratio
    of the change's median to the parent's, the bound, the change's wins
    over the pairs and their sign-test p-value, the A/A ratio and floor,
    the pairs beyond the floor, and the widest single-pair A/A factor."""
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [run["metrics"].get(name, {}).get("value") for run in runs[side]]
                 for side in SIDES}
        if any(v is None for values in sides.values() for v in values):
            continue
        parent = sides["parent"]
        # per pair, a ratio above 1 is better for the second copy
        gains = {side: [(p / v) if lower else (v / p) for p, v in zip(parent, sides[side])]
                 for side in ("change", "parent2")}
        medians = {side: _quartiles(values) for side, values in sides.items()}
        aa_ratio = medians["parent2"]["median"] / medians["parent"]["median"]
        floor = max(aa_ratio, 1.0 / aa_ratio)
        wins = sum(r > 1.0 for r in gains["change"])
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **medians,
                     "ratio": medians["change"]["median"] / medians["parent"]["median"],
                     "change_wins": wins,
                     "sign_p": sign_test(wins, sum(r < 1.0 for r in gains["change"])),
                     "aa_ratio": aa_ratio, "floor": floor,
                     "beyond_floor": sum(r > floor for r in gains["change"]),
                     "aa_pair_max": max(max(r, 1.0 / r) for r in gains["parent2"]),
                     "pairs": len(parent)}
    return out


def entry(runs, declared, **fields):
    """A workload's entry: ``fields``, each copy's count of failed and of
    incorrect runs, the summary over the pairs whose three runs all exited
    0 and were correct, and every run."""
    failed = {side: sum(run["exit_code"] != 0 for run in runs[side]) for side in SIDES}
    incorrect = {side: sum(run.get("correct") is False for run in runs[side])
                 for side in SIDES}
    kept = [i for i in range(len(runs["parent"]))
            if all(runs[side][i].get("correct") is True for side in SIDES)]
    summary = summarize({side: [runs[side][i] for i in kept] for side in SIDES},
                        declared) if kept else {}
    return {**fields, "failed_runs": failed, "incorrect_runs": incorrect,
            "summary": summary, "runs": runs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = ROOT / f"BENCH_{args.label or args.parent}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkouts = {side: tmp / side for side in SIDES}
        _extract(args.parent, checkouts["parent"])
        _extract(args.parent, checkouts["parent2"])
        _extract(_working_tree(tmp), checkouts["change"])
        for pair in range(args.pairs):
            seed = args.seed + pair
            shift = pair % len(SIDES)
            order = SIDES[shift:] + SIDES[:shift]
            for side in order:
                run = _run(checkouts[side], args.workload, seed, seconds)
                runs[side].append({"pair": pair, "seed": seed,
                                   "first": side == order[0], **run})
                print(f"pair {pair} seed {seed} {side}: "
                      + (f"correct {run['correct']}, failed {run['failed']}/"
                         f"{run['attempted']}" if run["exit_code"] == 0
                         else f"exited with {run['exit_code']}"), file=sys.stderr)
            doc[args.workload] = entry(
                runs, benchmark["end_to_end"], parent_rev=args.parent,
                pairs=args.pairs, seed=args.seed, seconds=seconds)
            # a kill mid-write leaves the previous file whole
            partial = out.with_name(out.name + ".tmp")
            partial.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            os.replace(partial, out)
    for name, s in doc[args.workload]["summary"].items():
        print(f"{args.workload} {name}: {s['parent']['median']:.6g} -> "
              f"{s['change']['median']:.6g} (x{s['ratio']:.4f}, bound {s['bound']}), "
              f"change better in {s['change_wins']} of {s['pairs']} "
              f"(sign test p={s['sign_p']:.3g}); A/A "
              f"x{s['aa_ratio']:.4f}, change beyond that floor in "
              f"{s['beyond_floor']} of {s['pairs']}, widest A/A pair x{s['aa_pair_max']:.4f}")
    print(f"wrote {out}")
    bad = {kind: doc[args.workload][kind] for kind in ("failed_runs", "incorrect_runs")}
    if any(n for counts in bad.values() for n in counts.values()):
        print(f"pairs.py: {bad}; their pairs are left out of the summary",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
