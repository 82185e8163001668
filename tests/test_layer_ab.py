"""``scripts/layer_ab.py`` with the revision's ``nn.py`` stubbed: the
working tree's own copy keeps every bit and exits 0, and a copy whose ReLU
moves its output exits 1 and names the ReLU cases."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "layer_ab.py"
_SPEC = importlib.util.spec_from_file_location("layer_ab", _PATH)
layer_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_ab)

_SOURCE = (layer_ab.ROOT / layer_ab.NN_PATH).read_text()


def _run_main(monkeypatch, capsys, source):
    """``layer_ab.main`` at one round of one call against ``source``:
    its exit status and printed lines."""
    monkeypatch.setattr(layer_ab, "_git_show", lambda rev: source)
    monkeypatch.setattr(layer_ab, "ROUNDS", 1)
    monkeypatch.setattr(layer_ab, "REPS", 1)
    monkeypatch.setattr(sys, "argv", ["layer_ab.py", "REV"])
    try:
        layer_ab.main()
        code = 0
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr().out.splitlines()


def test_the_same_source_keeps_every_bit(monkeypatch, capsys):
    code, lines = _run_main(monkeypatch, capsys, _SOURCE)
    assert code == 0
    cases = [line for line in lines if " in (" in line]
    kinds = {line.split()[0] for line in cases}
    assert kinds == {"Affine", "Conv1D", "MaxPool1D", "ReLU", "Sigmoid", "LSTM"}
    assert all(line.endswith("bits identical") for line in cases)
    # the cnn-nnd closing conv and the first conv of a cnn stack
    assert any(line.startswith("Conv1D") and "in (64, 32, 1)" in line for line in cases)
    assert any(line.startswith("Conv1D") and "in (64, 1, 16)" in line for line in cases)
    assert sum(" all six models: " in line for line in lines) == len(kinds)


def test_a_moved_bit_exits_one(monkeypatch, capsys):
    relu = "return np.maximum(x, 0.0)"
    assert relu in _SOURCE
    code, lines = _run_main(monkeypatch, capsys, _SOURCE.replace(relu, relu + " * 1.5"))
    assert code == 1
    for line in lines:
        if " in (" in line:
            assert line.endswith("BITS DIFFER") == line.startswith("ReLU"), line
