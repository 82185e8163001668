"""Rebuild reference.json: the output of every benchmark operation, for
every input set and budget, as the current sources produce it.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference. ber-pool has no
entries of its own: its rows must equal the serial rows of eval-serial.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def main():
    reference = {}
    for profile, budget in wl.BUDGETS.items():
        sets = reference[profile] = {}
        for inputs in range(wl.REFERENCE_SETS):
            outputs = {}
            for cls in (wl.Train, wl.EvalSerial):
                workload = cls(budget, inputs, 1)
                workload.setup()
                for op in workload.round():
                    if op.error:
                        raise RuntimeError(f"{op.name}: {op.error}")
                    outputs[op.name] = op.output
            sets[str(inputs)] = outputs
            print(f"{profile} input set {inputs} done", flush=True)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
