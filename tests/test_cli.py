"""End-to-end tests for the command line front end."""

import dataclasses
import json
import re
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


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert run("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
    assert "JSON" in capsys.readouterr().err


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


def test_empty_out_in_config_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, out="")
    assert run("ber", "--config", cfg) == 2
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


def test_params_refuses_oversized_code_before_building(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("params", "cnn-rnnd-1073741824-8") == 2
    err = capsys.readouterr().err
    assert "N must be at most 1024" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
