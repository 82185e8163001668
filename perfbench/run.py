"""polarlab benchmark: one workload per run, each run a fresh process.

    python3 perfbench/run.py --workload train|eval-serial|ber-pool|all \\
        --seed N --seconds S --trace 0|1

The run sets up several times (setup_s is the import time plus the median
set-up), then repeats rounds of the workload's operations for ``--seconds``
and checks every operation's output against ``reference.json``. Times are
scaled to the host's reference speed with ``calibration.py``, except those
of the ber-pool sweeps, whose work runs in child processes. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
half the time untraced and half traced, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object. ``--workload all`` runs the three workloads one after another, each
in its own process. METRICS.md says why each workload and metric exists.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the import time is part of setup_s
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402 - numpy's import is part of setup_s too

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "eval-serial", "ber-pool")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="polarlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "toy"), default="full",
                   help="work per operation; 'toy' is for the schema smoke test")
    return p.parse_args(argv)


def main():
    args = parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "polarlab" / "__init__.py").is_file():
        print(f"run.py: no polarlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracing
    import workloads as wl
    import_s = time.perf_counter() - START

    budget = wl.BUDGETS[args.profile]
    inputs = args.seed % wl.REFERENCE_SETS
    workers = max(2, len(os.sched_getaffinity(0)))
    workload = wl.WORKLOADS[args.workload](budget, inputs, workers)
    reference = wl.load_reference(args.profile, inputs)
    stamp = fingerprint(args, budget, inputs, workers, np)
    print("fingerprint " + json.dumps(stamp))

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        workload.install_tracing(tracer)
    setups, scales = [], []
    before = calibration.batch()
    for _ in range(budget.setup_reps):
        start = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            workload.setup()
        setups.append(time.perf_counter() - start)
        after = calibration.batch()
        scales.append(calibration.scale(before, after))
        before = after
    setup_s = statistics.median(scales) * (import_s + statistics.median(setups))

    if tracer:
        tracer.uninstall()
        untraced = measure(workload, args.seconds / 2)
        workload.install_tracing(tracer)
        traced = measure(workload, args.seconds / 2, tracer)
        tracer.uninstall()
        overhead_pct = 100.0 * (scaled_wall(traced) / scaled_wall(untraced) - 1.0)
        metrics = tracing.layer_metrics(tracer, traced, wl.retained_bytes(inputs),
                                        workload.checkpoint_bytes, overhead_pct)
        rounds = untraced + traced
        wl.OUT.mkdir(exist_ok=True)
        path = wl.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"fingerprint": stamp})
        print(f"note spans written to {path.relative_to(ROOT)}")
        if args.workload == "ber-pool":
            print("note ber-pool worker processes are not traced: its layer numbers "
                  "are pickled sizes, pool task counts and getrusage CPU of the "
                  "parent and its children; nn.* and polar.* read 0")
    else:
        rounds = measure(workload, args.seconds)
        metrics = end_to_end(rounds, setup_s, wl)

    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [f"{op.name}: {why}" for r in rounds for op in r["ops"]
                if (why := wl.check(op, reference.get(op.name)))]
    for line in failures[:5]:
        print(f"run.py: failed {line}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in details(rounds, wl).items():
        print(f"detail {name} = {value} {unit}")
    print(f"detail fail_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g} (operations failed / attempted)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def measure(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        own0, children0 = cpu_seconds()
        start = time.perf_counter()
        with tracer.span("round") if tracer else contextlib.nullcontext():
            ops = workload.round()
        wall = time.perf_counter() - start
        own1, children1 = cpu_seconds()
        rounds.append({"ops": ops, "wall_s": wall, "parent_cpu_s": own1 - own0,
                       "child_cpu_s": children1 - children0})
    return rounds


def scaled_wall(rounds):
    """Median round wall time, each round at its operations' median scale."""
    return statistics.median(r["wall_s"] * statistics.median(op.scale for op in r["ops"])
                             for r in rounds)


def round_seconds(rounds, select, scaled=True):
    """Seconds a round spends in the selected operations, at the host's
    reference speed unless ``scaled`` is false, each operation taken at its
    median over the run, so one slow call moves nothing."""
    seconds = {}
    for r in rounds:
        for op in r["ops"]:
            if select(op):
                seconds.setdefault(op.name, []).append(
                    op.seconds * (op.scale if scaled else 1.0))
    return sum(statistics.median(v) * len(v) for v in seconds.values()) / len(rounds)


def rate(rounds, select, scaled=True):
    """Frames a second through the selected operations, or None if none ran."""
    frames = sum(op.frames for r in rounds for op in r["ops"] if select(op))
    return (frames / len(rounds) / round_seconds(rounds, select, scaled)
            if frames else None)


def end_to_end(rounds, setup_s, wl):
    m = {"setup_s": (setup_s, "s")}
    for family in wl.FAMILIES:
        m[f"frames_per_s.{family}"] = (
            rate(rounds, lambda op: op.family == family), "frames/s")
    m["round_s"] = (round_seconds(rounds, lambda op: True), "s")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    m["peak_rss_mb"] = ((own + children) / 1024.0, "MB")
    return m


def details(rounds, wl):
    """The per-operation figures behind the end-to-end metrics, under the
    names METRICS.md gives them."""
    out = {"host_scale": (
        f"{statistics.median(op.scale for r in rounds for op in r['ops']):.4g}",
        "(median over operations; below 1 when the host ran slow)")}
    for family in wl.FAMILIES:
        out[f"unscaled.frames_per_s.{family}"] = (
            f"{rate(rounds, lambda op: op.family == family, scaled=False):.6g}", "frames/s")
    out["unscaled.round_s"] = (f"{round_seconds(rounds, lambda op: True, False):.6g}", "s")
    for family in wl.FAMILIES:
        steps = rate(rounds, lambda op: op.name.startswith("train.")
                     and op.family == family)
        if steps:
            out[f"train_steps_per_s.{family}"] = (f"{steps / wl.BATCH:.6g}", "1/s")
    for label, family in (("sc", ""),) + tuple((f, f) for f in wl.FAMILIES):
        frames = rate(rounds, lambda op: op.name.startswith("ber.")
                      and op.family == family)
        if frames:
            out[f"ber_frames_per_s.{label}"] = (f"{frames:.6g}", "frames/s")
    for name in ("snr", "pdf"):
        frames = rate(rounds, lambda op: op.name == name)
        if frames:
            out[f"{name}_frames_per_s"] = (f"{frames:.6g}", "frames/s")
    latencies = sorted(x * op.scale for r in rounds for op in r["ops"]
                       for x in op.latencies)
    if latencies:
        n = len(latencies)
        out["sc_latency_us.p50"] = (f"{1e6 * statistics.median(latencies):.6g}",
                                    f"us ({n} samples)")
        p = max((q for q in (50, 90, 99, 99.9, 99.99) if n * (100 - q) / 100 >= 10),
                default=50)
        value = latencies[min(n - 1, int(n * p / 100))]
        out["sc_latency_us.tail"] = (f"{1e6 * value:.6g}",
                                     f"us (p{p} of {n} samples)")
    return out


def fingerprint(args, budget, inputs, workers, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_set": inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "budget": dataclasses.asdict(budget),
        "ber_workers": workers if args.workload == "ber-pool" else 1,
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "polarlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_all(args):
    """Each workload in its own process; the last line sums their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--profile", args.profile],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
