"""Training-loop and checkpoint tests."""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlab.evaluation import ModelDecoder, read_rows, write_rows
from polarlab.models import ModelSpec, build
from polarlab.nn import Adam
from polarlab.polar import construct_code, ebn0_to_sigma
from polarlab.training import (
    CheckpointError,
    TrainConfig,
    TraceRow,
    TrainingDiverged,
    gen_dataset,
    load_checkpoint,
    save_checkpoint,
    train,
)

TOY_SPEC = ModelSpec(family="mlp", variant="rnnd", N=8, K=4, mlp_hidden=(32, 16, 8))


def toy_setup(seed=0):
    code = construct_code(8, 4)
    return build(TOY_SPEC, seed=seed), gen_dataset(code)


# --------------------------------------------------------------------- dataset

def test_dataset_is_every_message_in_ascending_order():
    ds = gen_dataset(construct_code(16, 8))
    assert ds.messages.shape == (256, 8)
    as_ints = (ds.messages * (1 << np.arange(7, -1, -1))).sum(axis=1)
    np.testing.assert_array_equal(as_ints, np.arange(256))
    assert set(np.unique(ds.symbols)) == {-1.0, 1.0}
    assert ds.symbols.shape == (256, 16)


def test_dataset_smallest_code():
    ds = gen_dataset(construct_code(2, 1))
    np.testing.assert_array_equal(ds.messages, [[0], [1]])
    np.testing.assert_array_equal(ds.symbols, [[1.0, 1.0], [-1.0, -1.0]])


def test_dataset_guards_large_k():
    with pytest.raises(ValueError):
        gen_dataset(construct_code(2 ** 17, 17))


# ---------------------------------------------------------------------- config

def test_config_validation():
    for kwargs in ({"batch_size": 0}, {"epochs": 0}, {"lr": 0.0},
                   {"beta1": 1.0}, {"log_every": 0}, {"checkpoint_every": -1}):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


# ------------------------------------------------------------------- train loop

def test_train_is_deterministic():
    def run():
        model, ds = toy_setup(seed=3)
        trace = train(model, ds, TrainConfig(epochs=10, seed=3))
        return model, trace

    m1, t1 = run()
    m2, t2 = run()
    for (_, p1), (_, p2) in zip(m1.named_params(), m2.named_params()):
        np.testing.assert_array_equal(p1.value, p2.value)
    assert [vars(r) for r in t1.rows] == [vars(r) for r in t2.rows]


def test_train_noise_draw_contract():
    """One fresh (batch, N) normal draw per iteration, in batch order,
    from the stream seeded by SeedSequence([seed, 1])."""
    config = TrainConfig(epochs=3, seed=17, batch_size=6)
    model, ds = toy_setup(seed=17)
    trace = train(model, ds, config)

    replica, _ = toy_setup(seed=17)
    rng = np.random.default_rng(np.random.SeedSequence([17, 1]))
    sigma = ebn0_to_sigma(config.train_ebn0_db, ds.code.rate)
    opt = Adam(replica.params(), lr=config.lr, beta1=config.beta1,
               beta2=config.beta2, eps=config.eps)
    slices = [(0, 6), (6, 12), (12, 16)]
    totals = []
    for _ in range(config.epochs):
        for lo, hi in slices:
            s = ds.symbols[lo:hi]
            y = s + sigma * rng.standard_normal(s.shape)
            values = replica.loss(y, s, ds.messages[lo:hi], compute_grads=True)
            opt.step()
            totals.append(values.total)

    assert [r.total_loss for r in trace.rows] == totals
    for (_, p1), (_, p2) in zip(model.named_params(), replica.named_params()):
        np.testing.assert_array_equal(p1.value, p2.value)


def test_train_step_bookkeeping_and_logging():
    model, ds = toy_setup()
    trace = train(model, ds, TrainConfig(epochs=5, batch_size=6, seed=0))
    # 16 messages in slices of 6 -> 3 steps per epoch
    assert len(trace.rows) == 15
    assert [r.step for r in trace.rows] == list(range(1, 16))
    assert trace.rows[-1].epoch == 5

    model, ds = toy_setup()
    trace = train(model, ds, TrainConfig(epochs=4, batch_size=64, seed=0,
                                         log_every=2))
    # whole codebook fits one batch -> 4 steps, logged every other step
    assert [r.step for r in trace.rows] == [2, 4]


def test_train_loss_descends():
    model, ds = toy_setup(seed=1)
    trace = train(model, ds, TrainConfig(epochs=1500, seed=1))
    # compare window means; single rows are noisy under fresh noise draws
    head = np.mean([r.total_loss for r in trace.rows[:50]])
    tail = np.mean([r.total_loss for r in trace.rows[-50:]])
    assert tail < 0.75 * head


def test_rnnd_trace_has_both_terms_and_nnd_does_not():
    model, ds = toy_setup(seed=2)
    row = train(model, ds, TrainConfig(epochs=1, seed=2)).rows[0]
    assert row.total_loss == pytest.approx(row.denoise_loss + row.decode_loss)
    assert row.denoise_loss > 0.0

    nnd = build(ModelSpec(family="mlp", variant="nnd", N=8, K=4,
                          mlp_hidden=(16, 12, 8)), seed=2)
    row = train(nnd, ds, TrainConfig(epochs=1, seed=2)).rows[0]
    assert row.denoise_loss == 0.0
    assert row.total_loss == row.decode_loss


def test_divergence_guard():
    model, ds = toy_setup(seed=4)
    for p in model.params():
        p.value[...] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 1 step 1"):
            train(model, ds, TrainConfig(epochs=1, seed=4))


def test_epoch_callback_cadence():
    model, ds = toy_setup(seed=5)
    seen = []
    train(model, ds, TrainConfig(epochs=5, seed=5, checkpoint_every=2),
          epoch_callback=lambda m, e: seen.append(e))
    assert seen == [2, 4]


# ------------------------------------------------------------------ checkpoints

@pytest.mark.parametrize("spec", [
    pytest.param(TOY_SPEC, id="mlp-rnnd-32x16x8"),
    pytest.param(ModelSpec("mlp", "rnnd", N=8, K=4, mlp_hidden=(8, 6)),
                 id="mlp-rnnd-8x6"),
    pytest.param(ModelSpec("mlp", "nnd", N=8, K=4, mlp_hidden=(8, 6, 5, 4)),
                 id="mlp-nnd-8x6x5x4"),
    pytest.param(ModelSpec("cnn", "rnnd", N=8, K=4, cnn_denoiser_channels=(3, 4, 2),
                           cnn_decoder_channels=(5, 2, 3)), id="cnn-rnnd"),
    pytest.param(ModelSpec("cnn", "nnd", N=16, K=8, cnn_denoiser_channels=(3, 4, 2),
                           cnn_decoder_channels=(5, 2, 3)), id="cnn-nnd"),
    pytest.param(ModelSpec("rnn", "rnnd", N=8, K=4, rnn_denoiser_hidden=5,
                           rnn_decoder_hidden=3), id="rnn-rnnd"),
    pytest.param(ModelSpec("rnn", "nnd", N=8, K=4, rnn_denoiser_hidden=3,
                           rnn_decoder_hidden=5), id="rnn-nnd"),
])
def test_checkpoint_round_trip(tmp_path, spec):
    model = build(spec, seed=6)
    train(model, gen_dataset(construct_code(spec.N, spec.K)),
          TrainConfig(epochs=3, seed=6))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=6, epoch=3)
    # the file is the whole document dumped at once, as json.dump wrote it
    doc = {"format_version": 2, "spec": dataclasses.asdict(spec), "seed": 6,
           "epoch": 3,
           "tensors": [{"name": name, "shape": list(p.value.shape),
                        "values": p.value.reshape(-1).tolist()}
                       for name, p in model.named_params()]}
    assert path.read_text() == json.dumps(doc) + "\n"

    loaded, meta = load_checkpoint(path)
    assert loaded.spec == spec
    assert meta.spec == spec
    assert meta.seed == 6 and meta.epoch == 3
    for (n1, p1), (n2, p2) in zip(model.named_params(), loaded.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.value, p2.value)

    # save(load(x)) must reproduce the file byte for byte
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2, seed=meta.seed, epoch=meta.epoch)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("spec", [
    pytest.param(TOY_SPEC, id="mlp-rnnd"),
    pytest.param(ModelSpec("cnn", "rnnd", N=8, K=4, cnn_denoiser_channels=(3, 4, 2),
                           cnn_decoder_channels=(5, 2, 3)), id="cnn-rnnd"),
    pytest.param(ModelSpec("rnn", "nnd", N=8, K=4, rnn_denoiser_hidden=3,
                           rnn_decoder_hidden=5), id="rnn-nnd"),
])
def test_trained_model_copies_decode_the_same_bits(tmp_path, spec):
    # training leaves the parameters as views of the optimizer's flat
    # buffers; every way a model leaves the process copies only its own
    model = build(spec, seed=8)
    train(model, gen_dataset(construct_code(spec.N, spec.K)),
          TrainConfig(epochs=3, seed=8))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=8, epoch=3)
    # 300 frames: several tiles for cnn and rnn
    y = np.random.default_rng(8).standard_normal((300, spec.N))
    want = [out.tobytes() for out in model.forward(y) if out is not None]
    for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model)),
                  load_checkpoint(path)[0]):
        got = [out.tobytes() for out in other.forward(y) if out is not None]
        assert got == want
        for p, q in zip(model.params(), other.params()):
            assert not np.shares_memory(p.value, q.value)
    fresh = build(spec, seed=8)
    fresh.forward(y)
    assert len(pickle.dumps(ModelDecoder(model))) <= len(pickle.dumps(ModelDecoder(fresh)))


@pytest.mark.parametrize("version", [99, 1])
def test_checkpoint_rejects_bad_version(tmp_path, version):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_and_name_tampering(tmp_path):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)

    doc = json.loads(path.read_text())
    doc["tensors"][0]["shape"] = [1, 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)

    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["tensors"][1]["name"] = "nonsense"  # a bias
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="names do not match"):
        load_checkpoint(path)

    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["tensors"][0]["name"] = "nonsense"  # a weight
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="names do not match"):
        load_checkpoint(path)


def test_checkpoint_rejects_nonfinite_and_garbage(tmp_path):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["tensors"][0]["values"][0] = 1e999  # parses as inf
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)

    bad = tmp_path / "bad.json"
    # nested deep enough that the JSON decoder raises RecursionError; bytes
    # that are not UTF-8
    for data in (b"{not json", b"[" * 200_000, b"\xff\xfe{}"):
        bad.write_bytes(data)
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(bad)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.json")


def test_checkpoint_arch_must_be_known(tmp_path):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["spec"]["family"] = "gru"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="bad spec"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda spec: spec.update(dropout=0.5),
    lambda spec: spec.update(mlp_hidden=[32, 16.5, 8]),
    lambda spec: spec.update(mlp_hidden=[32, "16", 8]),
    lambda spec: spec.update(rnn_decoder_hidden=True),
    lambda spec: spec.update(mlp_hidden=32),
    lambda spec: spec.update(N=None),
    lambda spec: spec.pop("family"),
    lambda spec: spec.clear(),
    # 58e9 parameters: refused by count before anything is allocated
    lambda spec: spec.update(mlp_hidden=[1_000_000_000]),
    lambda spec: spec.update(mlp_hidden=[32, 16]),
], ids=["unknown-key", "float-width", "str-width", "bool-width", "scalar-widths",
        "null-N", "no-family", "empty", "huge-width", "too-few-layers"])
def test_checkpoint_rejects_malformed_spec(tmp_path, edit):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    edit(doc["spec"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="bad spec"):
        load_checkpoint(path)


def test_checkpoint_ignores_unknown_top_level_keys(tmp_path):
    # later additions (e.g. resume state) extend version 2 this way
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["resume"] = {"step": 3}
    path.write_text(json.dumps(doc))
    loaded, _ = load_checkpoint(path)
    assert loaded.spec == TOY_SPEC


def _doc(**fields):
    """A version 2 document of an (8, 4) mlp-rnnd holding one bias tensor,
    with ``fields`` replaced."""
    doc = {"format_version": 2,
           "spec": {"family": "mlp", "variant": "rnnd", "N": 8, "K": 4},
           "seed": 0, "epoch": 0,
           "tensors": [{"name": "decoder.0.b", "shape": [1], "values": [0.0]}]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc,match", [
    ([], "not a JSON object"),
    (_doc(spec="mlp-rnnd-8-4"), "'spec' must be an object"),
    (_doc(tensors=[{"shape": [1], "values": [0.0]}]), "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "values": [0.0]}]), "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1]}]), "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": ["x"]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": ["0.5"]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": [True]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": [[0.0]]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": 0.0}]),
     "entry 0"),
    # a JSON integer too large for a double
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1], "values": [10 ** 400]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": None, "values": [0.0]}]),
     "entry 0"),
    # numpy would infer a -1 dimension from the value count
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [-1], "values": [0.0]}]),
     "entry 0"),
    (_doc(tensors=[{"name": "decoder.0.b", "shape": [1, -1], "values": [0.0]}]),
     "entry 0"),
    (_doc(tensors=[{"name": ["decoder.0.b"], "shape": [1], "values": [0.0]}]),
     "entry 0"),
    (_doc(tensors={"decoder.0.b": [0.0]}), "'tensors' must be a list"),
    (_doc(tensors=[[0.0]]), "entry 0"),
    (_doc(seed=None), "'seed' must be a non-negative integer"),
    (_doc(seed=-1), "'seed' must be a non-negative integer"),
    (_doc(epoch=None), "'epoch' must be a non-negative integer"),
    (_doc(epoch=2.5), "'epoch' must be a non-negative integer"),
    (_doc(epoch=True), "'epoch' must be a non-negative integer"),
    ({"format_version": 2}, "'seed' must be a non-negative integer"),
    (_doc(tensors=None), "'tensors' must be a list"),
], ids=["not-an-object", "spec-not-an-object", "tensor-without-name",
        "tensor-without-shape", "tensor-without-values", "tensor-str-values",
        "tensor-numeric-str-values", "tensor-bool-values", "tensor-nested-values",
        "tensor-scalar-values", "tensor-huge-int-values",
        "tensor-null-shape", "tensor-inferred-shape", "tensor-inferred-column-shape",
        "tensor-list-name", "tensors-an-object", "tensors-not-objects",
        "null-seed", "negative-seed", "null-epoch", "float-epoch", "bool-epoch",
        "fields-missing", "null-tensors"])
def test_checkpoint_rejects_malformed_document(tmp_path, doc, match):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_rejects_duplicate_tensor(tmp_path):
    model, _ = toy_setup()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=0, epoch=0)
    doc = json.loads(path.read_text())
    doc["tensors"].append(doc["tensors"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="repeated name"):
        load_checkpoint(path)


def _json_paths(node, path=()):
    """Every path into a JSON document; of a list, only its first two
    items, so a tensor's values do not crowd out the other keys."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


# what a mutation writes in place of a value: another type, a shape, a
# huge or a non-finite number
_MUTANTS = st.sampled_from([None, True, "x", 1.5, -1, 0, [], {}, [1], {"a": 1},
                            10 ** 400, -10 ** 400, 2 ** 64, 1e308,
                            float("nan"), float("inf"), -float("inf")])
_SHAPES = st.lists(st.integers(-2, 2 ** 64), max_size=3)
_FUZZ_SPEC = ModelSpec(family="mlp", variant="rnnd", N=8, K=4, mlp_hidden=(4,))


@st.composite
def _damaged_checkpoints(draw):
    """The text of a small valid checkpoint with keys dropped or retyped,
    shapes or values changed, or its bytes truncated."""
    doc = {"format_version": 2, "spec": dataclasses.asdict(_FUZZ_SPEC),
           "seed": 3, "epoch": 1,
           "tensors": [{"name": name, "shape": list(p.value.shape),
                        "values": p.value.reshape(-1).tolist()}
                       for name, p in build(_FUZZ_SPEC, seed=3).named_params()]}
    for _ in range(draw(st.integers(0, 3))):
        *parents, last = draw(st.sampled_from(list(_json_paths(doc))[1:]))
        node = doc
        for key in parents:
            node = node[key]
        if draw(st.booleans()):
            del node[last]
        else:
            # a copy: a later mutation may edit inside it
            node[last] = copy.deepcopy(draw(_SHAPES if last == "shape" else _MUTANTS))
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=_damaged_checkpoints())
def test_damaged_checkpoint_raises_only_checkpoint_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_checkpoint.json"
    path.write_text(text)
    try:
        model, meta = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        assert meta.spec == model.spec


# ------------------------------------------------------------------- trace CSV

def test_trace_csv_round_trip(tmp_path):
    model, ds = toy_setup(seed=7)
    trace = train(model, ds, TrainConfig(epochs=2, seed=7))
    path = tmp_path / "trace.csv"
    write_rows(path, TraceRow, trace.rows)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,step,total_loss,denoise_loss,decode_loss"
    assert read_rows(path, TraceRow) == trace.rows
