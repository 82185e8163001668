"""Time every layer shape of the six default architectures under two
versions of ``polarlab.nn``, alternating in one process, and compare their
bits.

    python scripts/layer_ab.py REV

It loads REV's ``src/polarlab/nn.py`` (through ``git show``) and the
working tree's, each as a standalone module: the file imports only numpy.
The cases are the layers of ``polarlab.nn`` in a B=64 training forward of
each of the six default architectures, as this tree's ``polarlab.models``
builds them (seed 0): one case per distinct layer type, parameter shapes
and input shape, with the input that layer saw there (its memory layout
included) and a fixed standard-normal output gradient.

Each version runs a copy of the case's layer, with the same weights: from
zeroed gradients, a ``keep=True`` forward and then a backward. A sample is
the mean time of ``REPS`` such calls; the ``ROUNDS`` rounds alternate which
version goes first. Everything runs at one BLAS thread.

It prints, per case, how many of the six models' layers share it, the
shape of its first parameter, its input shape, each version's median and
quartiles of the per-call time, the ratio of REV's median to the tree's
(above 1: the tree is faster), the rounds the tree won, and whether the
output, the input gradient and every parameter gradient are
byte-identical. Then, per layer type, the count-weighted sum of the
medians: the type's time in one step of all six models. It exits 1 if any
case differs in any bit.
"""

import argparse
import copy
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from polarlab.models import FAMILIES, VARIANTS, ModelSpec, build  # noqa: E402
from polarlab.nn import blas_threads  # noqa: E402

NN_PATH = "src/polarlab/nn.py"
BATCH = 64
ROUNDS = 20
REPS = 10


def _git_show(rev):
    """The text of ``NN_PATH`` at git revision ``rev``."""
    return subprocess.run(["git", "-C", str(ROOT), "show", f"{rev}:{NN_PATH}"],
                          stdout=subprocess.PIPE, check=True, text=True).stdout


def load_nn(source, name):
    """``source`` executed as the module ``name``."""
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, None))
    # registered first: dataclass reads the module of the class it decorates
    sys.modules[name] = module
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module


def layer_cases():
    """``{(type, parameter shapes, input shape): [layer, input, count]}``
    over the six default models' B=64 training forwards."""
    rng = np.random.default_rng(0)
    cases = {}

    def recorded(layer):
        forward = layer.forward

        def record(x, keep=False):
            key = (type(layer).__name__, tuple(p.value.shape for p in layer.params()),
                   x.shape)
            cases.setdefault(key, [layer, x, 0])[2] += 1
            return forward(x, keep)
        return record

    for family in FAMILIES:
        for variant in VARIANTS:
            model = build(ModelSpec(family, variant), seed=0)
            for stack in (model.denoiser, model.decoder):
                for layer in [] if stack is None else stack.layers:
                    if type(layer).__module__ == "polarlab.nn":
                        layer.forward = recorded(layer)
            model.forward(rng.standard_normal((BATCH, model.spec.N)), keep=True)
    return cases


def twin(module, layer):
    """A layer of ``module``'s class of the same name, with a copy of
    ``layer``'s weights and no cache."""
    out = object.__new__(getattr(module, type(layer).__name__))
    state = {k: v for k, v in vars(layer).items() if k not in ("forward", "_cache")}
    out.__dict__.update(copy.deepcopy(state))
    return out


def step(layer, x, dout):
    """A training forward and a backward from zeroed gradients: the output,
    the input gradient and each parameter gradient."""
    for p in layer.params():
        p.grad[...] = 0.0
    out = layer.forward(x, keep=True)
    dx = layer.backward(dout)
    return [out, dx] + [p.grad for p in layer.params()]


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _sample(layer, x, dout, reps):
    start = time.perf_counter()
    for _ in range(reps):
        step(layer, x, dout)
    return (time.perf_counter() - start) / reps


def compare(base, tree, cases, rounds, reps):
    """One row per case: its key, count, each version's per-call times,
    the rounds the tree won and whether all bits agree."""
    rng = np.random.default_rng(1)
    rows = []
    for key, (layer, x, count) in cases.items():
        layers = [twin(base, layer), twin(tree, layer)]
        out = layers[0].forward(x)
        dout = rng.standard_normal(out.shape)
        same = _bits(step(layers[0], x, dout)) == _bits(step(layers[1], x, dout))
        times = ([], [])
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(_sample(layers[side], x, dout, reps))
        wins = sum(t < b for b, t in zip(*times))
        rows.append((key, count, times, wins, same))
    return rows


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV")
    args = parser.parse_args()
    base = load_nn(_git_show(args.rev), "layer_ab_base")
    tree = load_nn((ROOT / NN_PATH).read_text(), "layer_ab_tree")
    with blas_threads(1):
        rows = compare(base, tree, layer_cases(), ROUNDS, REPS)
    totals = {}
    print(f"per call in us, {ROUNDS} rounds of {REPS} calls, "
          f"{args.rev} against the working tree")
    for (kind, shapes, in_shape), count, times, wins, same in rows:
        (b, b1, b3), (t, t1, t3) = (_quartiles(ts) for ts in times)
        total = totals.setdefault(kind, [0.0, 0.0])
        total[0] += count * b
        total[1] += count * t
        weight = shapes[0] if shapes else "-"
        print(f"{kind:9s} x{count} weight {weight} in {in_shape}: "
              f"{b * 1e6:.1f} [{b1 * 1e6:.1f}-{b3 * 1e6:.1f}] -> "
              f"{t * 1e6:.1f} [{t1 * 1e6:.1f}-{t3 * 1e6:.1f}], x{b / t:.3f}, "
              f"tree won {wins}/{ROUNDS}, "
              + ("bits identical" if same else "BITS DIFFER"))
    for kind, (b, t) in totals.items():
        print(f"{kind:9s} all six models: {b * 1e6:.1f} -> {t * 1e6:.1f} us, x{b / t:.3f}")
    differ = sum(not row[-1] for row in rows)
    if differ:
        print(f"layer_ab.py: {differ} of {len(rows)} cases differ in their bits",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
