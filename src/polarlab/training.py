"""Training loop and checkpoint I/O.

The training set is the full codebook: every information pattern in
ascending binary order, encoded and BPSK-modulated once up front. An epoch
walks the codebook in that fixed order in consecutive batch slices; every
iteration draws fresh channel noise at the training Eb/N0, so the model
never sees the same received vector twice.
"""

import dataclasses
import json

import numpy as np
from dataclasses import dataclass, field

from polarlab import polar
from polarlab.models import ModelSpec, build, spec_param_count
from polarlab.nn import Adam, blas_threads

CHECKPOINT_FORMAT_VERSION = 2


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 2 ** 16
    train_ebn0_db: float = 0.0
    lr: float = 0.001
    beta1: float = 0.99
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    log_every: int = 1
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass
class Dataset:
    code: polar.PolarCode
    messages: np.ndarray   # (2^K, K) information bits, ascending binary order
    symbols: np.ndarray    # (2^K, N) BPSK codewords


def gen_dataset(code):
    """Every information pattern (most significant bit first), encoded."""
    if code.K > 16:
        raise ValueError(f"full codebook generation needs K <= 16, got {code.K}")
    count = 2 ** code.K
    messages = np.zeros((count, code.K), dtype=np.int64)
    for j in range(code.K):
        messages[:, j] = (np.arange(count) >> (code.K - 1 - j)) & 1
    symbols = polar.bpsk_modulate(polar.encode(code, messages))
    return Dataset(code=code, messages=messages, symbols=symbols)


@dataclass
class TraceRow:
    epoch: int
    step: int
    total_loss: float
    denoise_loss: float
    decode_loss: float


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)


def train(model, dataset, config, epoch_callback=None):
    """Train ``model`` in place; returns the loss trace.

    Training noise comes from the stream tagged ``[config.seed, 1]``,
    independent of the build-time init stream. ``epoch_callback(model,
    epoch)`` fires every ``checkpoint_every`` epochs when set.

    Raises
    ------
    TrainingDiverged
        If any logged loss stops being finite.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    sigma = polar.ebn0_to_sigma(config.train_ebn0_db, dataset.code.rate)
    optimizer = Adam(model.params(), lr=config.lr, beta1=config.beta1,
                     beta2=config.beta2, eps=config.eps)
    trace = TrainTrace()
    step = 0
    # a training batch's gemms are too small to gain from a second BLAS thread
    with blas_threads(1):
        for epoch in range(1, config.epochs + 1):
            # consecutive fixed-order batches; the tail batch may be short
            for lo in range(0, len(dataset.messages), config.batch_size):
                step += 1
                s = dataset.symbols[lo:lo + config.batch_size]
                u = dataset.messages[lo:lo + config.batch_size]
                y = polar.awgn_channel(s, sigma, rng)
                values = model.loss(y, s, u, compute_grads=True)
                if not np.isfinite(values.total):
                    raise TrainingDiverged(f"training diverged: non-finite loss "
                                           f"{values.total} at epoch {epoch} step {step}")
                optimizer.step()
                if step % config.log_every == 0:
                    trace.rows.append(TraceRow(epoch, step, values.total,
                                               values.denoise, values.decode))
            if (epoch_callback is not None and config.checkpoint_every
                    and epoch % config.checkpoint_every == 0):
                epoch_callback(model, epoch)
    return trace


# ------------------------------------------------------------------ checkpoints

@dataclass(frozen=True)
class CheckpointMeta:
    spec: ModelSpec
    seed: int
    epoch: int


def save_checkpoint(model, path, seed, epoch):
    """Write the model's spec and tensors as JSON (decimal shortest-round-trip
    floats).

    The bytes are ``json.dumps(doc) + "\\n"``. ``json.dump`` would stream the
    document through the pure-Python encoder; here the C encoder writes the
    header and then one tensor entry at a time, separated as ``json.dump``
    separates list items, so one tensor's value list is alive at a time.
    """
    head = json.dumps({
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "spec": dataclasses.asdict(model.spec),
        "seed": int(seed),
        "epoch": int(epoch),
        "tensors": [],
    })
    with open(path, "w") as fh:
        fh.write(head.removesuffix("]}"))
        for i, (name, p) in enumerate(model.named_params()):
            fh.write((", " if i else "") + json.dumps(
                {"name": name, "shape": list(p.value.shape),
                 "values": p.value.reshape(-1).tolist()}))
        fh.write("]}\n")


def load_checkpoint(path):
    """Rebuild the architecture the file's spec describes and restore its
    tensors.

    Returns ``(model, meta)``. An unreadable or malformed file and any
    mismatch with the spec (version, parameter count, tensor names, shapes,
    non-finite values) raise ``CheckpointError`` naming ``path``. The
    parameter count is checked before the model is built, so a spec with
    huge widths is refused without allocating them.
    """
    def error(msg):
        return CheckpointError(f"checkpoint {path}: {msg}")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path
        raise error(f"cannot read: {exc}") from None

    if not isinstance(doc, dict):
        raise error("not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise error(f"format_version {version!r}; this build reads "
                    f"{CHECKPOINT_FORMAT_VERSION}")
    for key in ("seed", "epoch"):
        if type(doc.get(key)) is not int or doc[key] < 0:
            raise error(f"field {key!r} must be a non-negative integer, "
                        f"got {doc.get(key)!r}")
    if not isinstance(doc.get("spec"), dict):
        raise error("field 'spec' must be an object")
    try:
        # JSON lists back to tuples
        spec = ModelSpec(**{key: tuple(v) if isinstance(v, list) else v
                            for key, v in doc["spec"].items()})
    except (TypeError, ValueError) as exc:
        raise error(f"bad spec: {exc}") from None
    if not isinstance(doc.get("tensors"), list):
        raise error("field 'tensors' must be a list")

    stored = {}
    for idx, entry in enumerate(doc["tensors"]):
        try:
            name = entry["name"]
            if not set(map(type, entry["values"])) <= {int, float}:
                raise ValueError("values must be JSON numbers, not strings or bools")
            arr = np.asarray(entry["values"], dtype=np.float64)
            shape = entry["shape"]
            # a -1 would let reshape infer a dimension; reshape checks the count
            if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
            arr = arr.reshape(shape)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise error(f"tensor entry {idx} is malformed: {exc!r}") from None
        if not isinstance(name, str) or name in stored:
            raise error(f"tensor entry {idx} has a bad or repeated name {name!r}")
        if not np.isfinite(arr).all():
            raise error(f"tensor {name!r} has non-finite values")
        stored[name] = arr

    # the spec's widths size what ``build`` allocates, so they must agree
    # with the stored tensors before it runs
    count, stored_count = spec_param_count(spec), sum(a.size for a in stored.values())
    if count != stored_count:
        raise error(f"bad spec: {spec.arch_name} with these widths has {count} "
                    f"parameters, the file stores {stored_count}")
    model = build(spec, seed=doc["seed"])
    expected = dict(model.named_params())
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise error(f"tensor names do not match {spec.arch_name}: "
                    f"missing {missing}, unexpected {extra}")
    for name, p in expected.items():
        if stored[name].shape != p.value.shape:
            raise error(f"tensor {name!r} has shape {stored[name].shape}, "
                        f"expected {p.value.shape}")
        p.value[...] = stored[name]
    return model, CheckpointMeta(spec=spec, seed=doc["seed"], epoch=doc["epoch"])
