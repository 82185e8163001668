"""End-to-end tests for the command line front end."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polarlab import cli
from polarlab import evaluation as ev
from polarlab.training import TraceRow, TrainConfig, load_checkpoint


EVAL = {"ebn0_db": [0.0, 2.0], "min_bit_errors": 20, "max_frames": 6000,
        "frames": 400, "bench_frames": 16, "batch": 8}


def write_config(tmp_path, **overrides):
    """Small, fast config for a toy model; overrides merge at the top level."""
    cfg = {
        "code": {"N": 8, "K": 4},
        "arch": "mlp-rnnd",
        "train": {"batch_size": 8, "epochs": 3},
        "eval": EVAL,
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


# -------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", str(out)) == 0
    model, meta = load_checkpoint(out / "checkpoint.json")
    assert meta.spec.arch_name == "mlp-rnnd-8-4"
    assert meta.seed == 5
    assert meta.epoch == 3
    trace = ev.read_rows(out / "trace.csv", TraceRow)
    # 16 messages at batch 8 make 2 steps per epoch
    assert len(trace) == 6
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("final loss:") for line in lines)
    assert any("checkpoint.json" in line for line in lines)
    assert any("trace.csv" in line for line in lines)


def test_train_refuses_overwrite_without_force(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", str(out)) == 0
    assert run("train", "--config", cfg, "--out", str(out)) == 2
    assert run("train", "--config", cfg, "--out", str(out), "--force") == 0


def test_train_deterministic_checkpoints(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("train", "--config", cfg, "--out", str(out_a)) == 0
    assert run("train", "--config", cfg, "--out", str(out_b)) == 0
    assert (out_a / "checkpoint.json").read_bytes() == \
        (out_b / "checkpoint.json").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("train", "--config", cfg, "--out", str(out_a)) == 0
    assert run("train", "--config", cfg, "--out", str(out_b), "--seed", "6") == 0
    _, meta = load_checkpoint(out_b / "checkpoint.json")
    assert meta.seed == 6
    assert (out_a / "checkpoint.json").read_bytes() != \
        (out_b / "checkpoint.json").read_bytes()


def test_train_periodic_snapshots(tmp_path):
    cfg = write_config(tmp_path, train={"batch_size": 8, "epochs": 4,
                                        "checkpoint_every": 2})
    out = tmp_path / "run"
    out.mkdir()
    # epoch 3 is no snapshot of this run, epoch 6 is past its last epoch:
    # neither is claimed, so neither blocks the run
    for epoch in (3, 6):
        (out / f"checkpoint_epoch_{epoch}.json").write_text("keep me")
    assert run("train", "--config", cfg, "--out", str(out)) == 0
    assert (out / "checkpoint_epoch_2.json").exists()
    assert (out / "checkpoint_epoch_4.json").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "checkpoint_epoch_3.json").read_text() == "keep me"
    assert (out / "checkpoint_epoch_6.json").read_text() == "keep me"


def test_train_refuses_to_overwrite_a_snapshot(tmp_path, capsys):
    # a killed run leaves snapshots but no checkpoint.json
    cfg = write_config(tmp_path, train={"batch_size": 8, "epochs": 4,
                                        "checkpoint_every": 2})
    out = tmp_path / "run"
    out.mkdir()
    planted = out / "checkpoint_epoch_2.json"
    planted.write_text("keep me")
    assert run("train", "--config", cfg, "--out", str(out)) == 2
    assert "checkpoint_epoch_2.json" in capsys.readouterr().err
    assert planted.read_text() == "keep me"
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint_epoch_2.json"]
    assert run("train", "--config", cfg, "--out", str(out), "--force") == 0
    assert planted.read_text() != "keep me"


def test_train_full_arch_name_must_match_code(tmp_path):
    cfg = write_config(tmp_path, arch="mlp-rnnd-16-8")
    assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 2


# ------------------------------------------------------------------- config

def test_config_unknown_top_level_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"coed": {"N": 8}}))
    assert run("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_unknown_nested_key(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"epochs": 2, "momentum": 0.9})
    assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 2
    assert "momentum" in capsys.readouterr().err


def test_config_bad_types_rejected(tmp_path):
    for bad in [{"code": {"N": "eight"}},
                {"seed": 1.5},
                {"eval": {"ebn0_db": "all"}},
                {"eval": {"ebn0_db": []}},
                {"train": {"epochs": True}}]:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        assert run("train", "--config", str(path),
                   "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("command,bad", [
    ("train", '{"train": {"lr": NaN}}'),
    ("train", '{"train": {"train_ebn0_db": -Infinity}}'),
    ("train", '{"train": {"eps": 1e999}}'),
    ("train", '{"train": {"beta1": %d}}' % 10 ** 400),
    ("ber", '{"eval": {"ebn0_db": [0.0, NaN]}}'),
    ("pdf", '{"eval": {"pdf_ebn0_db": Infinity}}'),
])
def test_config_nonfinite_rejected(tmp_path, capsys, command, bad):
    path = tmp_path / "config.json"
    path.write_text(bad)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
    if command == "pdf":
        argv.append(str(tmp_path / "unused.json"))
    assert run(*argv) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _section_of(keys):
    return st.dictionaries(st.sampled_from(keys + ["junk"]), _JSON, max_size=4) | _JSON


_CONFIGS = _JSON | st.fixed_dictionaries({}, optional={
    "code": _section_of(["N", "K"]),
    "arch": _JSON,
    "train": _section_of([f.name for f in dataclasses.fields(TrainConfig)]),
    "eval": _section_of([f.name for f in dataclasses.fields(cli.EvalSettings)]),
    "out": _JSON,
    "seed": _JSON,
})


@settings(max_examples=300, deadline=None)
@given(doc=_CONFIGS)
def test_load_config_any_json_gives_settings_or_usage_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(doc))
    try:
        assert isinstance(cli.load_config(str(path)), cli.Settings)
    except cli.UsageError:
        pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_settings(draw):
    """Any Settings a config may give: every field drawn from its valid
    range, the train seed left at its default."""
    m = draw(st.integers(1, 10))
    epochs = draw(st.integers(1, 2 ** 16))
    train = TrainConfig(
        batch_size=draw(st.integers(1, 2 ** 20)), epochs=epochs,
        train_ebn0_db=draw(_FINITE), lr=draw(st.floats(1e-9, 1e3)),
        beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta2=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eps=draw(st.floats(1e-300, 1e3)), log_every=draw(st.integers(1, 2 ** 20)),
        checkpoint_every=draw(st.integers(0, epochs)))
    evaluation = cli.EvalSettings(
        ebn0_db=tuple(draw(st.lists(_FINITE, min_size=1, max_size=4))),
        min_bit_errors=draw(st.integers(0, 2 ** 40)),
        max_frames=draw(st.integers(1, 2 ** 40)), frames=draw(st.integers(1, 2 ** 40)),
        bins=draw(st.integers(10, cli.MAX_BINS)), pdf_ebn0_db=draw(_FINITE),
        batch=draw(st.integers(1, 2 ** 20)),
        bench_frames=draw(st.integers(1, cli.MAX_BENCH_SYMBOLS >> m)))
    return cli.Settings(code=cli.CodeSettings(N=2 ** m, K=draw(st.integers(1, 2 ** m))),
                        arch=draw(st.text(max_size=12)), train=train, eval=evaluation,
                        out=draw(st.text(max_size=12)), seed=draw(st.integers(0, 2 ** 64)))


@settings(max_examples=200, deadline=None)
@given(expected=_valid_settings())
def test_settings_round_trip_through_a_config(tmp_path_factory, expected):
    doc = dataclasses.asdict(expected)
    # a run's train seed is its top-level seed; no config sets it
    del doc["train"]["seed"]
    path = tmp_path_factory.getbasetemp() / "round_trip_config.json"
    path.write_text(json.dumps(doc))
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert repr(cli.load_config(str(path))) == repr(expected)


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    # nested deep enough that the JSON decoder raises RecursionError; bytes
    # that are not UTF-8
    for data in (b"{not json", b"[" * 200_000, b"\xff\xfe{}"):
        path.write_bytes(data)
        assert run("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "JSON" in err and str(path) in err
    assert not (tmp_path / "x").exists()


def test_config_missing_file(tmp_path):
    assert run("train", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")) == 2


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run("frobnicate")
    assert exc_info.value.code == 2


# --------------------------------------------------------------- evaluation

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", str(out)) == 0
    return cfg, str(out / "checkpoint.json"), tmp_path


def test_ber_sc_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "ber"
    assert run("ber", "--config", cfg, "--out", str(out)) == 0
    rows = ev.read_rows(out / "ber.csv", ev.BerRow)
    assert [r.decoder for r in rows] == ["sc", "sc"]
    assert [r.ebn0_db for r in rows] == [0.0, 2.0]


def test_ber_with_checkpoint_pairs_frames(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = tmp_path / "ber"
    assert run("ber", "--config", cfg, "--out", str(out), ckpt) == 0
    rows = ev.read_rows(out / "ber.csv", ev.BerRow)
    assert [r.decoder for r in rows] == ["sc", "sc",
                                         "mlp-rnnd-8-4", "mlp-rnnd-8-4"]
    by_decoder = {}
    for r in rows:
        by_decoder.setdefault(r.decoder, []).append(r)
    # untrained-ish model exhausts the frame budget; SC stops early on errors,
    # so only assert the shared grid here
    assert [r.ebn0_db for r in by_decoder["sc"]] == [0.0, 2.0]
    assert [r.ebn0_db for r in by_decoder["mlp-rnnd-8-4"]] == [0.0, 2.0]


def test_ber_workers_flag_matches_serial(trained, tmp_path):
    cfg, ckpt, _ = trained
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert run("ber", "--config", cfg, "--out", str(out1), ckpt) == 0
    assert run("ber", "--config", cfg, "--out", str(out2), "--workers", "2",
               ckpt) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()


def test_ber_refuses_overwrite(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ber"
    assert run("ber", "--config", cfg, "--out", str(out)) == 0
    assert run("ber", "--config", cfg, "--out", str(out)) == 2
    assert run("ber", "--config", cfg, "--out", str(out), "--force") == 0


def test_ber_deterministic_output(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run("ber", "--config", cfg, "--out", str(out1)) == 0
    assert run("ber", "--config", cfg, "--out", str(out2)) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()


def test_ber_rejects_code_mismatch(trained, tmp_path):
    _, ckpt, _ = trained
    cfg16 = write_config(tmp_path, code={"N": 16, "K": 8})
    assert run("ber", "--config", cfg16, "--out", str(tmp_path / "x"), ckpt) == 2


def test_ber_rejects_damaged_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("ber", "--config", cfg, "--out", str(tmp_path / "x"),
               str(bad)) == 2
    assert "bad.json" in capsys.readouterr().err


def test_snr_end_to_end(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = tmp_path / "snr"
    assert run("snr", "--config", cfg, "--out", str(out), ckpt) == 0
    rows = ev.read_rows(out / "snr.csv", ev.SnrRow)
    assert [r.ebn0_db for r in rows] == [0.0, 2.0]


def test_snr_deterministic(trained, tmp_path):
    cfg, ckpt, _ = trained
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run("snr", "--config", cfg, "--out", str(out1), ckpt) == 0
    assert run("snr", "--config", cfg, "--out", str(out2), ckpt) == 0
    assert (out1 / "snr.csv").read_bytes() == (out2 / "snr.csv").read_bytes()


def test_pdf_end_to_end(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = tmp_path / "pdf"
    assert run("pdf", "--config", cfg, "--out", str(out), ckpt) == 0
    rows = ev.read_rows(out / "pdf.csv", ev.HistRow)
    assert len(rows) == 80
    width = 0.1
    integral = sum(r.density_received for r in rows) * width
    assert integral == pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def trained_nnd(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-nnd")
    cfg = write_config(tmp_path, arch="mlp-nnd")
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", str(out)) == 0
    return str(out / "checkpoint.json")


# (command, config overrides, extra flags, checkpoint, what stderr names)
_BAD_INPUT = {
    "eval.frames": ("snr", {"eval": {**EVAL, "frames": 0}}, [], "rnnd",
                    r"\bframes must be"),
    "eval.bins": ("pdf", {"eval": {**EVAL, "bins": 5}}, [], "rnnd",
                  r"\bbins must be"),
    "eval.batch": ("bench", {"eval": {**EVAL, "batch": 0}}, [], "rnnd",
                   r"\bbatch must be"),
    "eval.bench_frames": ("bench", {"eval": {**EVAL, "bench_frames": 0}}, [],
                          "rnnd", r"\bbench_frames must be"),
    # counts whose arrays are allocated whole, so they would fail mid-run
    "eval.bins-10^12": ("pdf", {"eval": {**EVAL, "bins": 10 ** 12}}, [],
                        "rnnd", r"\bbins must be at most 65536"),
    "eval.bench_frames-10^12": ("bench",
                                {"eval": {**EVAL, "bench_frames": 10 ** 12}},
                                [], "rnnd",
                                r"\bbench_frames \* N must be at most 67108864"),
    "eval.min_bit_errors": ("ber", {"eval": {**EVAL, "min_bit_errors": -1}},
                            [], "rnnd", r"\bmin_bit_errors must be"),
    "eval.max_frames": ("ber", {"eval": {**EVAL, "max_frames": 0}}, [], "rnnd",
                        r"\bmax_frames must be"),
    "workers": ("ber", {}, ["--workers", "0"], "rnnd", r"--workers must be"),
    "cnn-nnd-8-4": ("train", {"arch": "cnn-nnd"}, [], None,
                    r"N must be divisible by 16"),
    "train-32-20": ("train", {"code": {"N": 32, "K": 20}}, [], None,
                    r"K <= 16"),
    # a code this long would allocate gigabytes before any other check
    "code.N-2^30": ("train", {"code": {"N": 2 ** 30, "K": 8}}, [], None,
                    r"N must be at most 1024"),
    "arch-2^30": ("train", {"arch": "mlp-rnnd-1073741824-8"}, [], None,
                  r"N must be at most 1024"),
    "snr-nnd": ("snr", {}, [], "nnd", r"no denoiser"),
    "pdf-nnd": ("pdf", {}, [], "nnd", r"no denoiser"),
    # finite values whose noise sigma overflows, underflows or divides by
    # 0, or whose LLR scale 2 / sigma^2 overflows
    "eval.ebn0_db-4000": ("ber", {"eval": {**EVAL, "ebn0_db": [0.0, 4000.0]}},
                          [], "rnnd", r"eval\.ebn0_db: .*no positive finite"),
    "eval.ebn0_db-1e308": ("ber", {"eval": {**EVAL, "ebn0_db": [1e308]}}, [],
                           None, r"eval\.ebn0_db: .*no positive finite"),
    "eval.ebn0_db-3080": ("ber", {"eval": {**EVAL, "ebn0_db": [3080.0]}}, [],
                          None, r"eval\.ebn0_db: .*no positive finite"),
    "eval.ebn0_db--1e308": ("snr", {"eval": {**EVAL, "ebn0_db": [-1e308]}}, [],
                            "rnnd", r"eval\.ebn0_db: .*no positive finite"),
    "eval.pdf_ebn0_db": ("pdf", {"eval": {**EVAL, "pdf_ebn0_db": 1e308}}, [],
                         "rnnd", r"eval\.pdf_ebn0_db: .*no positive finite"),
    "train.train_ebn0_db": ("train", {"train": {"epochs": 1,
                                                "train_ebn0_db": -1e308}},
                            [], None, r"train\.train_ebn0_db: .*no positive"),
    # 0 divides 0 by 0 in the first Adam step, a negative eps trains on
    "train.eps-0": ("train", {"train": {"epochs": 1, "eps": 0.0}}, [], None,
                    r"\beps must be positive"),
    "train.eps--1": ("train", {"train": {"epochs": 1, "eps": -1.0}}, [], None,
                     r"\beps must be positive"),
    # every snapshot name is claimed before training starts
    "train.snapshots-2^40": ("train", {"train": {"epochs": 2 ** 40,
                                                 "checkpoint_every": 1}},
                             [], None, r"checkpoint_every must be at most 65536"),
    # open() raises ValueError, not OSError, for a NUL byte in a path; the
    # last --config given is the one read
    "config-nul": ("train", {}, ["--config", "a\u0000b.json"], None,
                   r"cannot read config 'a\\x00b\.json'"),
    "checkpoint-nul": ("ber", {}, ["a\u0000b.json"], None,
                       r"checkpoint a\x00b\.json: cannot read"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_bad_input_exits_2_before_any_output(trained, trained_nnd, tmp_path,
                                             capsys, case):
    command, overrides, flags, ckpt, names = _BAD_INPUT[case]
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out), *flags]
    argv += {"rnnd": [trained[1]], "nnd": [trained_nnd], None: []}[ckpt]
    assert run(*argv) == 2
    assert re.search(names, capsys.readouterr().err)
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert run("ber", "--config", cfg, "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "Traceback" not in err
    assert taken.read_text() == "keep me"


@pytest.mark.parametrize("config,flags", [({"out": ""}, []), ({}, ["--out", ""]),
                                          ({"out": "a\u0000b"}, [])],
                         ids=["config", "flag", "config-nul"])
def test_empty_out_in_config_exits_2(tmp_path, capsys, monkeypatch, config, flags):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **config)
    assert run("ber", "--config", cfg, *flags) == 2
    assert "output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_malformed_checkpoint_exits_2(trained, tmp_path, capsys):
    cfg, ckpt, _ = trained
    doc = json.loads(Path(ckpt).read_text())
    del doc["tensors"][0]["values"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "ber"
    assert run("ber", "--config", cfg, "--out", str(out), str(bad)) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "Traceback" not in err
    assert not out.exists()


def test_value_error_during_run_exits_3(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise ValueError("simulated fault")

    monkeypatch.setattr(ev, "ber_eval", fail)
    cfg = write_config(tmp_path)
    assert run("ber", "--config", cfg, "--out", str(tmp_path / "ber")) == 3
    assert "simulated fault" in capsys.readouterr().err


def test_bench_end_to_end(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = tmp_path / "bench"
    assert run("bench", "--config", cfg, "--out", str(out), ckpt) == 0
    rows = ev.read_rows(out / "timing.csv", ev.TimingRow)
    assert [r.decoder for r in rows] == ["sc", "mlp-rnnd-8-4"]
    assert all(r.frames == 16 for r in rows)


# ------------------------------------------------------------------- params

def test_params_default_lists_all_six(capsys):
    assert run("params") == 0
    lines = capsys.readouterr().out.splitlines()
    got = dict(line.split() for line in lines)
    assert got == {
        "mlp-nnd-16-8": "27336",
        "mlp-rnnd-16-8": "25816",
        "cnn-nnd-16-8": "29912",
        "cnn-rnnd-16-8": "26792",
        "rnn-nnd-16-8": "38984",
        "rnn-rnnd-16-8": "27928",
    }


def test_params_named_arch(capsys):
    assert run("params", "mlp-rnnd-16-8") == 0
    assert capsys.readouterr().out == "mlp-rnnd-16-8 25816\n"


def test_params_short_name_defaults_to_16_8(capsys):
    assert run("params", "mlp-rnnd") == 0
    assert capsys.readouterr().out == "mlp-rnnd-16-8 25816\n"


def test_params_bad_arch_lists_valid_names(capsys):
    assert run("params", "transformer-xxl") == 2
    err = capsys.readouterr().err
    assert "mlp" in err and "rnnd" in err


@pytest.mark.parametrize("arch,hint", [
    ("mlp-rnnd-16", True),          # the name does not split
    ("transformer-rnnd", True),     # unknown family
    ("mlp-foo-16-8", True),         # unknown variant
    ("mlp-rnnd-12-8", False),       # N not a power of two
    ("mlp-rnnd-16-32", False),      # K > N
])
def test_params_names_families_only_for_a_bad_name(capsys, arch, hint):
    assert run("params", arch) == 2
    err = capsys.readouterr().err
    assert f"bad architecture name {arch!r}" in err
    assert ("family is one of" in err) == hint


def test_params_refuses_oversized_code_before_building(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("params", "cnn-rnnd-1073741824-8") == 2
    err = capsys.readouterr().err
    assert "N must be at most 1024" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("arch", ["mlp-rnnd-12-8", "cnn-rnnd-12-8"])
def test_params_refuses_length_not_a_power_of_two(capsys, arch):
    assert run("params", arch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N must be a power of two" in captured.err
    assert "Traceback" not in captured.err


def test_params_at_the_longest_code(capsys):
    assert run("params", "cnn-rnnd-1024-8") == 0
    assert capsys.readouterr().out.split()[0] == "cnn-rnnd-1024-8"


def test_bad_arch_odd_shape_lists_valid_names(capsys):
    assert run("params", "mlp-rnnd-16") == 2
    err = capsys.readouterr().err
    assert "mlp" in err and "rnnd" in err


def test_negative_seed_rejected(tmp_path):
    cfg = write_config(tmp_path)
    assert run("train", "--config", cfg, "--out", str(tmp_path / "x"),
               "--seed", "-3") == 2
    cfg_bad = write_config(tmp_path, seed=-1)
    assert run("train", "--config", cfg_bad, "--out", str(tmp_path / "y")) == 2


# ---------------------------------------------------------------- argv fuzz

# Every command this config makes finishes in well under a second.
_TINY = {"code": {"N": 8, "K": 4}, "arch": "mlp-rnnd",
         "train": {"batch_size": 8, "epochs": 1},
         "eval": {"ebn0_db": [0.0], "min_bit_errors": 10, "max_frames": 256,
                  "frames": 64, "bins": 10, "batch": 8, "bench_frames": 4},
         "seed": 1}
_SMALL_INTS = [-1, 0, 1, 2]
_VALUES = st.sampled_from(_SMALL_INTS + [-2 ** 70, 2 ** 70, 1.5, "", "a\u0000b", "x",
                                         "rnn-nnd", "cnn-rnnd", "mlp-rnnd-16-8",
                                         None, True, [], {}])
# kept, or set to a small int: a valid huge value of these trains or
# simulates that long, or overflows the weights (lr), and so would their
# defaults (2^16 epochs, 10^6 frames)
_COSTLY = {("train",), ("eval",), ("train", "epochs"), ("train", "lr"),
           ("eval", "frames"), ("eval", "max_frames")}
_KEYS = ([(key,) for key in [*_TINY, "junk"]]
         + [(key, sub) for key in ("code", "train", "eval")
            for sub in [*_TINY[key], "junk"]])


@st.composite
def _tiny_configs(draw):
    """``_TINY``, or ``_TINY`` with one key, known or not, dropped or set."""
    doc = copy.deepcopy(_TINY)
    op = draw(st.sampled_from(["keep", "keep", "drop", "set"]))
    if op != "keep":
        path = draw(st.sampled_from(_KEYS))
        node = doc[path[0]] if len(path) == 2 else doc
        if path in _COSTLY:
            node[path[-1]] = draw(st.sampled_from(_SMALL_INTS))
        elif op == "drop":
            node.pop(path[-1], None)
        else:
            node[path[-1]] = copy.deepcopy(draw(_VALUES))
    return doc


_FLAG_VALUES = st.sampled_from(["1", "2", str(2 ** 70), "-1", "0", str(-2 ** 70),
                                "1.5", "", "a\u0000b"])
_ARCHS = st.sampled_from(["mlp-rnnd", "rnn-nnd-8-4", "mlp-rnnd-12-8", "cnn-nnd-16-8",
                          f"mlp-rnnd-{2 ** 70}-8", "mlp-rnnd-16", "", "a\u0000b"])


@st.composite
def _argvs(draw, config, checkpoints):
    """A command line: a subcommand, its flags with any values, and its
    positional arguments, sometimes with one too few or too many."""
    command = draw(st.sampled_from(["train", "ber", "snr", "pdf", "bench", "params"]))
    argv = [command]
    if command == "params":
        argv += draw(st.lists(_ARCHS, max_size=2))
    else:
        # always a config: the default one trains 2^16 epochs
        argv += ["--config", draw(st.sampled_from(
            [config] * 6 + ["missing.json", "a\u0000b.json", "", checkpoints[-1]]))]
        if draw(st.booleans()):
            argv += ["--out", draw(st.sampled_from(["o", "o/p", "", "a\u0000b"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_FLAG_VALUES)]
        if draw(st.booleans()):
            argv.append("--force")
        if command == "ber" and draw(st.booleans()):
            argv += ["--workers", draw(_FLAG_VALUES)]
        want = {"train": 0, "snr": 1, "pdf": 1}.get(command) or draw(st.integers(0, 2))
        argv += draw(st.lists(st.sampled_from(checkpoints[:2] * 4 + checkpoints[2:]),
                              min_size=max(0, want - 1), max_size=want + 1))
    stray = draw(st.sampled_from([None] * 8 + ["--bogus", "-h"]))
    if stray:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_command_line_exits_0_2_or_3_and_2_writes_nothing(
        tmp_path_factory, trained, trained_nnd, data):
    files = tmp_path_factory.getbasetemp() / "argv_fuzz"
    files.mkdir(exist_ok=True)
    damaged = files / "damaged.json"
    damaged.write_text('{"format_version": 2}')
    config = files / "config.json"
    config.write_text(json.dumps(data.draw(_tiny_configs(), label="config")))
    # a valid rnnd and nnd checkpoint, a damaged one, a missing one, a directory
    checkpoints = [trained[1], trained_nnd, str(damaged), str(files / "missing.json"),
                   str(files)]
    argv = data.draw(_argvs(str(config), checkpoints), label="argv")
    fresh = tempfile.mkdtemp(dir=files)
    cwd = os.getcwd()
    os.chdir(fresh)
    err = io.StringIO()
    try:
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            # argparse: 0 after --help, 2 for an argument it refuses
            assert exc.code in (0, 2)
            code = exc.code
        assert code in (0, 2, 3)
        if code == 2:
            assert os.listdir(fresh) == []
        if code == 3:
            # a drawn lr can make training diverge; any other exit 3 is a
            # usage error that escaped as a runtime failure
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("polarlab: error: ")]
            assert errors and errors[-1].startswith(
                "polarlab: error: training diverged:"), err.getvalue()
    finally:
        os.chdir(cwd)
        shutil.rmtree(fresh)
