"""Command line front end.

Subcommands: ``train`` fits a decoder and writes a checkpoint plus a loss
trace; ``ber``, ``snr``, ``pdf``, and ``bench`` run the evaluation harness
over checkpoints and write CSV reports; ``params`` prints parameter counts.
Every file-writing command refuses to overwrite existing outputs unless
``--force`` is given. Settings come from defaults, then an optional JSON
config file, then command line flags, in that order. ``POLARLAB_LOG``
selects the log level (debug/info/warning/error).

Each command checks all of its input (config, flags, arch, code,
checkpoints) before it creates its output directory, so a refused run
leaves no files. ``main`` alone maps exceptions to exit codes: 0 success;
2 ``UsageError`` (usage, config, overwrite refusal) or ``CheckpointError``;
3 ``TrainingDiverged``, ``OSError`` or any other ``ValueError``.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np
from dataclasses import dataclass, replace

from polarlab import evaluation as ev
from polarlab import polar
from polarlab.models import (FAMILIES, VARIANTS, build, parse_arch_name,
                             spec_param_count)
from polarlab.training import (TrainConfig, TrainingDiverged, CheckpointError,
                               TraceRow, gen_dataset, train, save_checkpoint,
                               load_checkpoint)

log = logging.getLogger("polarlab")

# build/init rng stream is tagged 0 and training noise 1; evaluation draws
# use tag 2 so no stream is ever shared across roles
EVAL_STREAM = 2


# The longest code a command accepts: the longest 5G NR polar code, and the
# longest at which every model builds in under 100 MB (the head of a cnn
# rnnd has 8 N^2 weights). Checked before anything of size N is allocated.
MAX_N = 1 << 10

# The most pdf bins, and the most symbols (bench_frames x N) bench draws:
# both are allocated whole, so a huge count would fail mid-run.
MAX_BINS = 1 << 16
MAX_BENCH_SYMBOLS = 1 << 26


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _check_length(N):
    if N > MAX_N:
        raise UsageError(f"block length N must be at most {MAX_N}, got {N}")


@dataclass(frozen=True)
class EvalSettings:
    ebn0_db: tuple = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    min_bit_errors: int = 100
    max_frames: int = 1_000_000
    frames: int = 20_000
    bins: int = 80
    pdf_ebn0_db: float = 0.0
    batch: int = 1024
    bench_frames: int = 512

    def __post_init__(self):
        # StopRule checks min_bit_errors and max_frames
        ev.StopRule(min_bit_errors=self.min_bit_errors, max_frames=self.max_frames)
        for key, least in (("frames", 1), ("batch", 1), ("bench_frames", 1),
                           ("bins", 10)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.bins > MAX_BINS:
            raise ValueError(f"bins must be at most {MAX_BINS}, got {self.bins}")


@dataclass(frozen=True)
class Settings:
    N: int = 16
    K: int = 8
    arch: str = "mlp-rnnd"
    train: TrainConfig = TrainConfig()
    eval: EvalSettings = EvalSettings()
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        _check_length(self.N)
        if self.eval.bench_frames * self.N > MAX_BENCH_SYMBOLS:
            raise UsageError(f"eval.bench_frames * N must be at most "
                             f"{MAX_BENCH_SYMBOLS}, got {self.eval.bench_frames} * "
                             f"{self.N}")


_CODE_KEYS = ("N", "K")
_TOP_KEYS = ("code", "arch", "train", "eval", "out", "seed")


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise UsageError(f"config section {where!r} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise UsageError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _typed(value, kind, key):
    """A config value checked against ``kind``: ``str``, ``int`` (not a
    bool), ``float`` (any finite number, returned as a float) or ``tuple``
    (a non-empty list of finite numbers, returned as a tuple of floats)."""
    if kind is tuple:
        if not isinstance(value, list) or not value:
            raise UsageError(f"config key {key} must be a non-empty list of numbers")
        return tuple(_typed(v, float, key) for v in value)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        want = "number" if kind is float else kind.__name__
        raise UsageError(f"config key {key} must be a {want}")
    if kind is float:
        # NaN compares false; a huge int compares exactly, before float()
        # could overflow
        if not abs(value) <= sys.float_info.max:
            raise UsageError(f"config key {key} must be finite, got {value}")
        return float(value)
    return value


def _section(section, name, cls, skip=()):
    """``cls`` built from config section ``name``: its keys are the fields of
    ``cls`` less ``skip``, each typed by the field's annotation."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in skip}
    _check_keys(section, kinds, name)
    kwargs = {key: _typed(value, kinds[key], f"{name}.{key}")
              for key, value in section.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad {name} config: {exc}") from exc


def load_config(path):
    """Parse a JSON config file into Settings, rejecting unknown keys."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(raw, _TOP_KEYS, "top level")
    kinds = {f.name: f.type for f in dataclasses.fields(Settings)}
    values = {}
    if "code" in raw:
        _check_keys(raw["code"], _CODE_KEYS, "code")
        values.update({key: _typed(value, kinds[key], f"code.{key}")
                       for key, value in raw["code"].items()})
    for key in ("arch", "out", "seed"):
        if key in raw:
            values[key] = _typed(raw[key], kinds[key], key)
    if "train" in raw:
        # the seed is top-level only
        values["train"] = _section(raw["train"], "train", TrainConfig, skip=("seed",))
    if "eval" in raw:
        values["eval"] = _section(raw["eval"], "eval", EvalSettings)
    return Settings(**values)


def _settings_from_args(args):
    """``(settings, code)`` from the config file, overridden by the flags."""
    settings = load_config(args.config) if args.config else Settings()
    if args.out:
        settings = replace(settings, out=args.out)
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    if getattr(args, "workers", 1) < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    try:
        code = polar.construct_code(settings.N, settings.K)
    except ValueError as exc:
        raise UsageError(f"bad code: {exc}") from exc
    points = [("train.train_ebn0_db", settings.train.train_ebn0_db),
              ("eval.pdf_ebn0_db", settings.eval.pdf_ebn0_db)]
    points += [("eval.ebn0_db", value) for value in settings.eval.ebn0_db]
    for key, ebn0_db in points:
        try:
            polar.ebn0_to_sigma(ebn0_db, code.rate)
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    return settings, code


def _resolve_spec(arch, code=None):
    """The spec an arch name gives: 'family-variant' is sized by ``code``,
    else (16, 8); a full name must match ``code`` when one is given."""
    try:
        spec = (parse_arch_name(arch) if code is None
                else parse_arch_name(arch, code.N, code.K))
    except ValueError as exc:
        raise UsageError(f"bad architecture name {arch!r}: {exc}; family is "
                         f"one of {FAMILIES} and variant one of {VARIANTS}") from exc
    _check_length(spec.N)
    if code is not None and (spec.N, spec.K) != (code.N, code.K):
        raise UsageError(f"arch {arch} does not match code ({code.N}, {code.K})")
    return spec


def _codebook(code):
    try:
        return gen_dataset(code)
    except ValueError as exc:
        raise UsageError(f"cannot train on code ({code.N}, {code.K}): {exc}") from exc


def _prepare_out(settings, filenames, force):
    try:
        os.makedirs(settings.out, exist_ok=True)
    except OSError as exc:
        # an existing file, an empty name, a path through a file
        raise UsageError(f"cannot use {settings.out!r} as the output "
                         f"directory: {exc.strerror or exc}") from exc
    paths = [os.path.join(settings.out, name) for name in filenames]
    if not force:
        for path in paths:
            if os.path.exists(path):
                raise UsageError(f"refusing to overwrite {path} (use --force)")
    return paths


def _load_model(path, code):
    model, meta = load_checkpoint(path)
    if (model.spec.N, model.spec.K) != (code.N, code.K):
        raise UsageError(f"checkpoint {path} is for code "
                         f"({model.spec.N}, {model.spec.K}), expected "
                         f"({code.N}, {code.K})")
    log.info("loaded %s (epoch %d) from %s", meta.spec.arch_name, meta.epoch, path)
    return model


def _decoders(paths, code):
    """SC, then one decoder per checkpoint in ``paths``."""
    return [ev.ScDecoder(code)] + [ev.ModelDecoder(_load_model(p, code))
                                   for p in paths]


def _load_denoiser(path, code):
    model = _load_model(path, code)
    if model.denoiser is None:
        raise UsageError(f"checkpoint {path} holds {model.spec.arch_name}, "
                         "which has no denoiser stage (rnnd variants only)")
    return model


def _eval_rng(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, EVAL_STREAM]))


def cmd_train(args):
    settings, code = _settings_from_args(args)
    spec = _resolve_spec(settings.arch, code)
    dataset = _codebook(code)
    model = build(spec, seed=settings.seed)
    config = replace(settings.train, seed=settings.seed)
    every = config.checkpoint_every
    # the periodic snapshots are outputs too: claim them all up front
    snapshots = [f"checkpoint_epoch_{epoch}.json"
                 for epoch in range(every, config.epochs + 1, every)] if every else []
    ckpt_path, trace_path, *_ = _prepare_out(
        settings, ["checkpoint.json", "trace.csv", *snapshots], args.force)
    log.info("training %s for %d epochs (seed %d)",
             spec.arch_name, config.epochs, settings.seed)

    def snapshot(snap_model, epoch):
        path = os.path.join(settings.out, f"checkpoint_epoch_{epoch}.json")
        save_checkpoint(snap_model, path, seed=settings.seed, epoch=epoch)
        log.info("wrote %s", path)

    callback = snapshot if config.checkpoint_every else None
    trace = train(model, dataset, config, epoch_callback=callback)
    save_checkpoint(model, ckpt_path, seed=settings.seed, epoch=config.epochs)
    ev.write_rows(trace_path, TraceRow, trace.rows)
    if trace.rows:
        last = trace.rows[-1]
        print(f"final loss: total {last.total_loss:.6f} denoise "
              f"{last.denoise_loss:.6f} decode {last.decode_loss:.6f}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {trace_path}")
    return 0


def cmd_ber(args):
    settings, code = _settings_from_args(args)
    decoders = _decoders(args.checkpoints, code)
    stop = ev.StopRule(min_bit_errors=settings.eval.min_bit_errors,
                       max_frames=settings.eval.max_frames)
    (out_path,) = _prepare_out(settings, ["ber.csv"], args.force)
    rows = []
    for decoder in decoders:
        # a fresh generator per decoder pairs every decoder on the same frames
        rows += ev.ber_eval(decoder, code, settings.eval.ebn0_db, stop=stop,
                            rng=_eval_rng(settings.seed), workers=args.workers)
        log.info("evaluated %s", decoder.name)
    ev.write_rows(out_path, ev.BerRow, rows)
    print(f"wrote {out_path}")
    return 0


def cmd_snr(args):
    settings, code = _settings_from_args(args)
    model = _load_denoiser(args.checkpoint, code)
    (out_path,) = _prepare_out(settings, ["snr.csv"], args.force)
    rows = ev.snr_gain(model, code, settings.eval.ebn0_db,
                       settings.eval.frames, rng=_eval_rng(settings.seed))
    ev.write_rows(out_path, ev.SnrRow, rows)
    print(f"wrote {out_path}")
    return 0


def cmd_pdf(args):
    settings, code = _settings_from_args(args)
    model = _load_denoiser(args.checkpoint, code)
    (out_path,) = _prepare_out(settings, ["pdf.csv"], args.force)
    rows = ev.pdf_hist(model, code, settings.eval.pdf_ebn0_db,
                       settings.eval.frames, rng=_eval_rng(settings.seed),
                       bins=settings.eval.bins)
    ev.write_rows(out_path, ev.HistRow, rows)
    print(f"wrote {out_path}")
    return 0


def cmd_bench(args):
    settings, code = _settings_from_args(args)
    decoders = _decoders(args.checkpoints, code)
    (out_path,) = _prepare_out(settings, ["timing.csv"], args.force)
    rows = ev.timing_bench(code, decoders, settings.eval.bench_frames,
                           batch=settings.eval.batch,
                           rng=_eval_rng(settings.seed))
    ev.write_rows(out_path, ev.TimingRow, rows)
    print(f"wrote {out_path}")
    return 0


def cmd_params(args):
    if args.archs:
        names = args.archs
    else:
        names = [f"{fam}-{var}-16-8" for fam in FAMILIES for var in VARIANTS]
    for spec in [_resolve_spec(name) for name in names]:
        print(f"{spec.arch_name} {spec_param_count(spec)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polarlab",
        description="train and evaluate neural decoders for polar codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="simulation worker processes")

    p_train = sub.add_parser("train", help="train a decoder, write a checkpoint")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_ber = sub.add_parser("ber", help="bit error rate sweep (SC plus checkpoints)")
    common(p_ber, workers=True)
    p_ber.add_argument("checkpoints", nargs="*", metavar="CHECKPOINT")
    p_ber.set_defaults(func=cmd_ber)

    p_snr = sub.add_parser("snr", help="denoiser SNR gain sweep")
    common(p_snr)
    p_snr.add_argument("checkpoint", metavar="CHECKPOINT")
    p_snr.set_defaults(func=cmd_snr)

    p_pdf = sub.add_parser("pdf", help="received vs denoised signal histogram")
    common(p_pdf)
    p_pdf.add_argument("checkpoint", metavar="CHECKPOINT")
    p_pdf.set_defaults(func=cmd_pdf)

    p_bench = sub.add_parser("bench", help="decode timing (SC plus checkpoints)")
    common(p_bench)
    p_bench.add_argument("checkpoints", nargs="*", metavar="CHECKPOINT")
    p_bench.set_defaults(func=cmd_bench)

    p_params = sub.add_parser("params", help="print model parameter counts")
    p_params.add_argument("archs", nargs="*", metavar="ARCH",
                          help="arch names; default: all six at (16, 8)")
    p_params.set_defaults(func=cmd_params)

    return parser


def _setup_logging():
    level_name = os.environ.get("POLARLAB_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CheckpointError) as exc:
        print(f"polarlab: error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, OSError, ValueError) as exc:
        print(f"polarlab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
