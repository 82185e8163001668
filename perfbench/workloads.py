"""The benchmark's three workloads: set-up, one round of operations, and
the checks that compare each operation's output with the reference.

Every workload drives polarlab's public entry points in-process, the same
calls the ``polarlab`` CLI makes, on the (16, 8) code of Gruber et al.,
"On Deep Learning-Based Channel Decoding" (arXiv:1701.07738). A round is a
fixed list of operations whose work does not depend on the seed, so rounds
of different seeds and commits cost the same.

The workload seed selects one of ``REFERENCE_SETS`` input sets (seed
modulo the set count). Input set ``i`` uses ``i`` as the program's master
seed: model weights come from ``build(spec, i)``, training noise from
``TrainConfig(seed=i)`` and evaluation draws from the CLI's evaluation
stream ``SeedSequence([i, 2])``. ``reference.json`` holds, for every set,
the outputs of the commit that added the benchmark; ``make_reference.py``
rebuilds it.
"""

import copy
import json
import math
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
from polarlab import evaluation as ev
from polarlab import models, nn, polar, training

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SETS = 32

N, K = 16, 8
BATCH = 64
FAMILIES = ("mlp", "cnn", "rnn")
EVAL_STREAM = 2          # the CLI's evaluation stream tag
SC_STREAM = 3            # frames for the single-frame sc_decode calls
TRAIN_EBN0_DB = 0.0
PDF_EBN0_DB = 0.0
SC_EBN0_DB = 2.0
PDF_BINS = 80

# Output tolerances. BER rows and SC decisions are integer counts and must
# match exactly; the float outputs may move by reassociation only.
LOSS_RTOL = 1e-6         # final train loss, relative
SNR_ATOL_DB = 1e-9
PDF_ATOL = 1e-12         # per-bin density
PDF_INTEGRAL_ATOL = 1e-9


@dataclass(frozen=True)
class Budget:
    """Work per operation. Changing it changes every number; it is fixed."""

    train_epochs: int     # one epoch is 4 steps of B=64 over the 2^8-message codebook
    ebn0_db: tuple        # ber_eval grid, also the snr_gain grid
    ber_frames: int       # frames per Eb/N0 point; the stop rule cannot trigger
    denoise_frames: int   # frames for snr_gain and for pdf_hist
    sc_calls: int         # single-frame sc_decode calls per round
    cheap_sweeps: int     # SC and mlp-rnnd sweeps per round (one for cnn, rnn)
    setup_reps: int       # complete set-ups whose median is setup_s


BUDGETS = {
    "full": Budget(train_epochs=4, ebn0_db=(0.0, 2.0, 4.0), ber_frames=4096,
                   denoise_frames=8192, sc_calls=200, cheap_sweeps=8,
                   setup_reps=5),
    # for the schema smoke test only
    "toy": Budget(train_epochs=1, ebn0_db=(0.0, 4.0), ber_frames=2048,
                  denoise_frames=1024, sc_calls=20, cheap_sweeps=1,
                  setup_reps=1),
}


@dataclass
class Op:
    """One timed call into the library and what it returned."""

    name: str            # key of the reference entry, e.g. "ber.sc"
    family: str          # mlp/cnn/rnn lane of frames_per_s, "" for none
    frames: int          # frames through the decoder(s); 64 per train step
    seconds: float       # as measured
    output: object = None
    error: str = ""
    latencies: list = field(default_factory=list)
    scale: float = 1.0   # takes ``seconds`` to the host's reference speed


def timed(name, family, frames, call, canonical, calibrate=True):
    """Time ``call()``, between two calibration batches if ``calibrate``;
    an exception becomes a failed operation, not a crash."""
    before = calibration.batch() if calibrate else None
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        op = Op(name, family, frames, time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}")
    else:
        seconds = time.perf_counter() - start
        op = Op(name, family, frames, seconds, canonical(result))
    if calibrate:
        op.scale = calibration.scale(before, calibration.batch())
    return op


def eval_rng(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, EVAL_STREAM]))


def round_trip(built, seed):
    """Save and reload each model as the CLI does; returns (models, bytes)."""
    OUT.mkdir(exist_ok=True)
    loaded, size = {}, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for model in built:
            path = os.path.join(tmp, model.spec.arch_name + ".json")
            training.save_checkpoint(model, path, seed=seed, epoch=0)
            size += os.path.getsize(path)
            loaded[model.spec.arch_name], _ = training.load_checkpoint(path)
    return loaded, size


def retained_bytes(seed):
    """Pickled size of each rnnd ModelDecoder after one inference forward
    at the BER block size: what the pool path would ship per block."""
    y = np.random.default_rng(seed).standard_normal((ev.BER_BLOCK_FRAMES, N))
    sizes = {}
    for family in FAMILIES:
        model = models.build(models.ModelSpec(family, "rnnd", N=N, K=K), seed)
        model.forward(y)
        sink = ByteCounter()
        pickle.dump(ev.ModelDecoder(model), sink)
        sizes[f"{family}-rnnd"] = sink.size
    return sizes


class ByteCounter:
    """Write-only file that keeps the byte count, not the bytes."""

    size = 0

    def write(self, data):
        self.size += len(data)
        return len(data)


def trace_in_process(tracer):
    """Wrap every public entry point the in-process workloads call."""
    for cls in (nn.Affine, nn.Conv1D, nn.MaxPool1D, nn.ReLU, nn.Sigmoid, nn.LSTM):
        for method in ("forward", "backward"):
            tracer.wrap(cls, method, f"nn.{cls.__name__}.{method}")
    tracer.wrap(nn.Adam, "step", "nn.Adam.step")
    for method in ("forward", "loss"):
        tracer.wrap(models.Model, method, f"models.Model.{method}")
    for name in ("train", "gen_dataset", "save_checkpoint", "load_checkpoint"):
        tracer.wrap(training, name, f"training.{name}")
    for name in ("encode", "bpsk_modulate", "awgn_channel", "sc_decode",
                 "sc_decode_batch", "bit_reversal_permutation"):
        tracer.wrap(polar, name, f"polar.{name}")
    for name in ("ber_eval", "snr_gain", "pdf_hist"):
        tracer.wrap(ev, name, f"evaluation.{name}")


class Train:
    """Each of the six architectures, trained with training.train."""

    name = "train"
    specs = [models.ModelSpec(f, v, N=N, K=K) for f in FAMILIES
             for v in ("nnd", "rnnd")]

    def __init__(self, budget, seed, workers):
        self.budget, self.seed = budget, seed

    def setup(self):
        self.code = polar.construct_code(N, K)
        self.dataset = training.gen_dataset(self.code)
        self.initial, self.checkpoint_bytes = round_trip(
            [models.build(spec, self.seed) for spec in self.specs], self.seed)
        s, u = self.dataset.symbols[:BATCH], self.dataset.messages[:BATCH]
        for model in self.initial.values():
            copy.deepcopy(model).loss(s, s, u, compute_grads=True)

    install_tracing = staticmethod(trace_in_process)

    def round(self):
        steps = self.budget.train_epochs * -(-len(self.dataset.messages) // BATCH)
        config = training.TrainConfig(
            batch_size=BATCH, epochs=self.budget.train_epochs,
            train_ebn0_db=TRAIN_EBN0_DB, seed=self.seed, log_every=steps)
        ops = []
        for arch, initial in self.initial.items():
            model = copy.deepcopy(initial)
            ops.append(timed(
                f"train.{arch}", initial.spec.family, steps * BATCH,
                lambda: training.train(model, self.dataset, config),
                lambda trace: trace.rows[-1].total_loss))
        return ops


class BerSweep:
    """SC and the three rnnd decoders swept by evaluation.ber_eval."""

    install_tracing = staticmethod(trace_in_process)

    def __init__(self, budget, seed, workers):
        self.budget, self.seed, self.workers = budget, seed, workers

    def setup(self):
        b = self.budget
        self.code = polar.construct_code(N, K)
        # unused here, but every workload's set-up covers it, so that
        # setup_s moves with gen_dataset everywhere
        training.gen_dataset(self.code)
        specs = [models.ModelSpec(f, "rnnd", N=N, K=K) for f in FAMILIES]
        self.models, self.checkpoint_bytes = round_trip(
            [models.build(spec, self.seed) for spec in specs], self.seed)
        self.decoders = [ev.ScDecoder(self.code)] + [
            ev.ModelDecoder(m) for m in self.models.values()]
        # more errors than the sweep has bits: every point spends max_frames
        self.stop = ev.StopRule(min_bit_errors=b.ber_frames * K + 1,
                                max_frames=b.ber_frames)

    def ber_ops(self):
        frames = len(self.budget.ebn0_db) * self.budget.ber_frames
        ops = []
        for decoder in self.decoders:
            family = (decoder.model.spec.family
                      if isinstance(decoder, ev.ModelDecoder) else "")
            # SC and mlp sweeps cost a twentieth of a cnn or rnn sweep or
            # less; repeating them gives their lanes enough measured time.
            sweeps = self.budget.cheap_sweeps if family in ("", "mlp") else 1
            for _ in range(sweeps):
                ops.append(timed(
                    f"ber.{decoder.name}", family, frames,
                    lambda: ev.ber_eval(decoder, self.code, self.budget.ebn0_db,
                                        stop=self.stop, rng=eval_rng(self.seed),
                                        workers=self.workers),
                    lambda rows: [[r.decoder, r.ebn0_db, r.frames, r.bit_errors]
                                  for r in rows],
                    # pool work runs in child processes on every core, which
                    # samples taken in the idle parent do not track
                    calibrate=self.workers == 1))
        return ops


class EvalSerial(BerSweep):
    """ber_eval at workers=1, snr_gain and pdf_hist on mlp-rnnd, and
    single-frame sc_decode calls."""

    name = "eval-serial"

    def __init__(self, budget, seed, workers):
        super().__init__(budget, seed, 1)

    def setup(self):
        super().setup()
        self.denoiser = self.models[f"mlp-rnnd-{N}-{K}"]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, SC_STREAM]))
        self.sc_sigma = polar.ebn0_to_sigma(SC_EBN0_DB, self.code.rate)
        self.sc_msgs = rng.integers(0, 2, size=(self.budget.sc_calls, K))
        self.sc_y = polar.awgn_channel(
            polar.bpsk_modulate(polar.encode(self.code, self.sc_msgs)),
            self.sc_sigma, rng)
        for decoder in self.decoders:
            decoder.decode(self.sc_y, self.sc_sigma)
        polar.sc_decode(self.code, self.sc_y[0], self.sc_sigma)

    def round(self):
        b = self.budget
        ops = self.ber_ops()
        ops.append(timed(
            "snr", "", len(b.ebn0_db) * b.denoise_frames,
            lambda: ev.snr_gain(self.denoiser, self.code, b.ebn0_db,
                                b.denoise_frames, rng=eval_rng(self.seed)),
            lambda rows: [[r.ebn0_db, float(r.input_snr_db), float(r.output_snr_db)]
                          for r in rows]))
        ops.append(timed(
            "pdf", "", b.denoise_frames,
            lambda: ev.pdf_hist(self.denoiser, self.code, PDF_EBN0_DB,
                                b.denoise_frames, rng=eval_rng(self.seed),
                                bins=PDF_BINS),
            lambda rows: {
                "width": [r.bin_right - r.bin_left for r in rows],
                "received": [r.density_received for r in rows],
                "denoised": [r.density_denoised for r in rows]}))
        ops.append(self.sc_single())
        return ops

    def sc_single(self):
        op = Op("sc_single", "", len(self.sc_y), 0.0)
        before = calibration.batch()
        decoded = np.empty_like(self.sc_msgs)
        try:
            for i, y in enumerate(self.sc_y):
                start = time.perf_counter()
                decoded[i] = polar.sc_decode(self.code, y, self.sc_sigma)
                op.latencies.append(time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = sum(op.latencies)
        op.scale = calibration.scale(before, calibration.batch())
        op.output = int((decoded != self.sc_msgs).sum())
        return op


class BerPool(BerSweep):
    """The eval-serial sweep at workers = max(2, nproc)."""

    name = "ber-pool"

    def setup(self):
        super().setup()
        # Warm up through the pool, so the parent's models never run a
        # forward and are pickled as the CLI's freshly loaded ones are.
        warm = ev.StopRule(min_bit_errors=1, max_frames=BATCH)
        for decoder in self.decoders:
            ev.ber_eval(decoder, self.code, (0.0,), stop=warm,
                        rng=eval_rng(self.seed), workers=self.workers)

    def install_tracing(self, tracer):
        # Forked workers inherit the parent's patched modules, so only
        # what the workers never call is wrapped: they stay untraced.
        for name in ("gen_dataset", "save_checkpoint", "load_checkpoint"):
            tracer.wrap(training, name, f"training.{name}")
        tracer.wrap(ev, "ber_eval", "evaluation.ber_eval")
        tracer.count_pool_submits(ev)

    def round(self):
        return self.ber_ops()


WORKLOADS = {w.name: w for w in (Train, EvalSerial, BerPool)}


# ------------------------------------------------------------------ checks

def load_reference(profile, seed):
    with open(REFERENCE) as fh:
        return json.load(fh)[profile][str(seed)]


def check(op, ref):
    """Empty string when ``op`` produced the reference output, else why not."""
    if op.error:
        return op.error
    if ref is None:
        return "no reference output"
    kind = op.name.split(".")[0]
    got = op.output
    if kind == "train":
        if not math.isfinite(got):
            return f"non-finite final loss {got!r}"
        if abs(got - ref) > LOSS_RTOL * abs(ref):
            return f"final loss {got!r}, reference {ref!r}"
    elif kind in ("ber", "sc_single"):
        if got != ref:
            return f"output {got!r}, reference {ref!r}"
    elif kind == "snr":
        if (len(got) != len(ref) or any(
                g[0] != r[0] or abs(g[1] - r[1]) > SNR_ATOL_DB
                or abs(g[2] - r[2]) > SNR_ATOL_DB for g, r in zip(got, ref))):
            return f"snr rows {got!r}, reference {ref!r}"
    elif kind == "pdf":
        for column in ("received", "denoised"):
            integral = sum(d * w for d, w in zip(got[column], got["width"]))
            if abs(integral - 1.0) > PDF_INTEGRAL_ATOL:
                return f"{column} density integrates to {integral!r}"
            if len(got[column]) != len(ref[column]) or any(
                    abs(g - r) > PDF_ATOL for g, r in zip(got[column], ref[column])):
                return f"{column} densities differ from the reference"
    else:
        return f"unknown operation {op.name}"
    return ""
