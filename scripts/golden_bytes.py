"""Print the sha256 of every output of one fixed polarlab run.

    python scripts/golden_bytes.py

The run goes through ``polarlab.cli.main``, into a temporary directory,
with the ``polarlab`` of the checkout this script sits in and one BLAS
thread, at seed 11 on the (16, 8) code:

- ``train`` of each of ``ARCHS`` for 3 epochs at batch 64;
- ``ber`` of SC and those checkpoints at Eb/N0 0 and 2.5 dB, 6,000 frames
  a point, serial and again with ``--workers 2``;
- ``snr`` and ``pdf`` at 5,000 frames on rnn-rnnd, mlp-rnnd and cnn-rnnd,
  whose tiled denoiser splits the last 904-frame chunk into 113-frame
  (cnn) and 226-frame (rnn) tiles;
- ``ber`` of SC alone on the (64, 32) code, whose decoding tree, unlike
  (16, 8)'s, has rate-0 nodes;
- ``params``, whose standard output is hashed as ``params.txt``.

The serial ``ber`` and each ``snr`` and ``pdf`` run again at two BLAS
threads (``nn.blas_threads(2)``), where an inference forward spreads its
tiles over two threads.

It prints one ``sha256  file`` line per output: equal lines mean
byte-identical outputs. It exits non-zero, with a message on standard
error, if the pooled ``ber.csv`` or a file of a two-thread run differs
from its one-thread counterpart in any byte; those files get no line of
their own, so the output diffs against checkouts that did not run them.

    python scripts/golden_bytes.py --against REV

runs this script on this checkout and the script of a ``git archive`` copy
of the git revision REV on that copy, and prints a unified diff of the two
outputs, or the shared lines if there is none. It exits non-zero on any
difference.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# before numpy loads: the bits of a gemm can depend on its thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polarlab import cli, nn  # noqa: E402

ARCHS = ("rnn-nnd", "rnn-rnnd", "mlp-nnd", "mlp-rnnd", "cnn-rnnd", "cnn-nnd")
DENOISERS = ("rnn-rnnd", "mlp-rnnd", "cnn-rnnd")
BER_FRAMES = 6000
CONFIG = {
    "code": {"N": 16, "K": 8},
    "train": {"batch_size": 64, "epochs": 3},
    # more bit errors than 6,000 frames can hold, so every point runs them all
    "eval": {"ebn0_db": [0.0, 2.5], "max_frames": BER_FRAMES,
             "min_bit_errors": BER_FRAMES * 8 + 1, "frames": 5000},
    "seed": 11,
}


def _run(*argv):
    """``polarlab argv``; returns what it printed, raises if it failed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"polarlab {' '.join(argv)} exited {code}")
    return printed.getvalue()


def run(root):
    """Run everything under ``root``; returns the outputs' relative paths."""
    outputs = []

    def config(name, **extra):
        path = root / f"{name}.json"
        path.write_text(json.dumps({**CONFIG, **extra}))
        return str(path)

    for arch in ARCHS:
        _run("train", "--config", config(arch, arch=arch),
             "--out", str(root / "train" / arch))
        outputs += [f"train/{arch}/checkpoint.json", f"train/{arch}/trace.csv"]
    checkpoints = {arch: str(root / "train" / arch / "checkpoint.json") for arch in ARCHS}
    # the evaluation commands take the architecture from each checkpoint
    evaluation = config("eval")

    def evaluate(command, out, *args):
        """``command`` at one BLAS thread, then at two into a twin
        directory, whose file must hold the same bytes; returns the path."""
        name = f"{out}/{command}.csv"
        _run(command, "--config", evaluation, "--out", str(root / out), *args)
        with nn.blas_threads(2):
            _run(command, "--config", evaluation, "--out", str(root / "two-threads" / out),
                 *args)
        if (root / "two-threads" / name).read_bytes() != (root / name).read_bytes():
            raise SystemExit(f"{command} at two BLAS threads wrote a {name} that "
                             f"differs from the one-thread one")
        return name

    outputs.append(evaluate("ber", "ber", *checkpoints.values()))
    _run("ber", "--config", evaluation, "--out", str(root / "ber-pooled"),
         "--workers", "2", *checkpoints.values())
    if (root / "ber-pooled/ber.csv").read_bytes() != (root / "ber/ber.csv").read_bytes():
        raise SystemExit("ber --workers 2 wrote a ber.csv that differs from the serial one")
    for command in ("snr", "pdf"):
        for arch in DENOISERS:
            outputs.append(evaluate(command, f"{command}/{arch}", checkpoints[arch]))
    _run("ber", "--config", config("sc-64-32", code={"N": 64, "K": 32},
                                   eval={**CONFIG["eval"],
                                         "min_bit_errors": BER_FRAMES * 32 + 1}),
         "--out", str(root / "ber-64-32"))
    outputs.append("ber-64-32/ber.csv")
    (root / "params.txt").write_text(_run("params"))
    outputs.append("params.txt")
    return outputs


def _script_output(checkout):
    """What ``checkout``'s own copy of this script prints."""
    done = subprocess.run([sys.executable, str(checkout / "scripts" / "golden_bytes.py")],
                          stdout=subprocess.PIPE, check=True, text=True)
    return done.stdout.splitlines(keepends=True)


def against(rev):
    """Diff this checkout's lines against those of git revision ``rev``;
    returns the exit status."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = _script_output(Path(tmp))
    ours = _script_output(ROOT)
    diff = list(difflib.unified_diff(theirs, ours, rev, "this checkout"))
    sys.stdout.writelines(diff or ours)
    if diff:
        print(f"outputs differ from {rev}", file=sys.stderr)
    return 1 if diff else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff the output against that of git revision REV")
    args = parser.parse_args()
    if args.against is not None:
        sys.exit(against(args.against))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in run(root):
            print(f"{hashlib.sha256((root / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
