"""Checkpoint container: bit-exact round trips, version gating, typed errors
for corrupt files."""
import json
import struct

import numpy as np
import pytest

from vdm.checkpoint import MAGIC, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from vdm.inference import belief_init, generate
from vdm.nets import ModelConfig, VdmModel

from helpers import traced_peak


def make_checkpoint(seed=0):
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega1=0.5, omega2=0.25)
    model = VdmModel.initialize(cfg, np.random.default_rng(seed))
    ckpt = Checkpoint.from_stores(
        config=cfg,
        params=model.params,
        disc=model.disc,
        obs_mean=np.array([0.5, -1.0]),
        obs_std=np.array([2.0, 0.25]),
    )
    ckpt.provenance = {"epoch": 4, "val_nll": 1.25, "manifest_sha256": "ab" * 32}
    return ckpt


def assert_same_checkpoint(got, want):
    assert got.config == want.config
    assert got.provenance == want.provenance
    assert got.model_arrays.keys() == want.model_arrays.keys()
    for name, arr in want.model_arrays.items():
        np.testing.assert_array_equal(got.model_arrays[name], arr)
    assert got.disc_arrays.keys() == want.disc_arrays.keys()
    for name, arr in want.disc_arrays.items():
        np.testing.assert_array_equal(got.disc_arrays[name], arr)
    np.testing.assert_array_equal(got.obs_mean, want.obs_mean)
    np.testing.assert_array_equal(got.obs_std, want.obs_std)


def forecast(ckpt):
    model = ckpt.build_model()
    x0 = np.array([[0.2, -0.4]])
    return generate(model, belief_init(model, x0), 6, np.random.default_rng(1))


def split_blob(blob):
    """(version, header dict, payload) of a checkpoint file's bytes."""
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    start = len(MAGIC) + 12
    return version, json.loads(blob[start : start + header_len]), blob[start + header_len :]


def join_blob(version, header, payload):
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<IQ", version, len(raw)) + raw + payload


def test_round_trip_bit_exact(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "model.vdm"
    save_checkpoint(ckpt, path)
    assert_same_checkpoint(load_checkpoint(path), ckpt)


def test_save_is_byte_deterministic(tmp_path):
    ckpt = make_checkpoint()
    p1, p2 = tmp_path / "a.vdm", tmp_path / "b.vdm"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_forecast_identical_across_round_trip(tmp_path):
    ckpt = make_checkpoint(seed=5)
    path = tmp_path / "model.vdm"
    save_checkpoint(ckpt, path)
    np.testing.assert_array_equal(forecast(ckpt), forecast(load_checkpoint(path)))


def test_format_2_holds_only_weights_and_stats(tmp_path):
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    version, header, _ = split_blob(path.read_bytes())
    assert version == 2
    assert sorted(header) == ["arrays", "config", "provenance"]
    assert {e["store"] for e in header["arrays"]} == {"model", "disc", "stats"}


def test_version_mismatch_rejected(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "model.vdm"
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.reason == "unsupported checkpoint version 99 (expected 2)"


def test_format_1_header_rejected(tmp_path):
    """Format 1 no longer loads: its version alone rejects the file."""
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    _, header, payload = split_blob(path.read_bytes())
    path.write_bytes(join_blob(1, header, payload))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.reason == "unsupported checkpoint version 1 (expected 2)"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.vdm"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    # a ValueError whose message, which the CLI prints, is "<path>: <reason>"
    assert isinstance(info.value, ValueError)
    assert (info.value.path, info.value.reason) == (path, "not a checkpoint file")
    assert str(info.value) == f"{path}: not a checkpoint file"


def test_normalization_helpers_invert():
    ckpt = make_checkpoint()
    data = np.random.default_rng(9).normal(size=(3, 4, 2))
    np.testing.assert_allclose(ckpt.denormalize(ckpt.normalize(data)), data, rtol=1e-12)


# ---------------------------------------------------------------------------
# a checkpoint builds a weights-only scoring model
# ---------------------------------------------------------------------------

def test_load_save_load_keeps_the_bytes(tmp_path):
    path, again = tmp_path / "model.vdm", tmp_path / "again.vdm"
    save_checkpoint(make_checkpoint(), path)
    loaded = load_checkpoint(path)
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert_same_checkpoint(load_checkpoint(again), loaded)


def test_built_model_shares_read_only_weights(tmp_path):
    """build_model copies no weight, and a write to one raises, whether the
    checkpoint was loaded or is the one training returned."""
    path = tmp_path / "model.vdm"
    trained = make_checkpoint()
    save_checkpoint(trained, path)
    for ckpt in (trained, load_checkpoint(path)):
        model = ckpt.build_model()
        assert model.params.keys() == ckpt.model_arrays.keys()
        for name, t in model.params.items():
            assert np.shares_memory(t.value, ckpt.model_arrays[name]), name
            with pytest.raises(ValueError):
                t.value[...] = 0.0
    assert trained.model_arrays["enc0.w"].flags.writeable


@pytest.mark.parametrize("call", ["discriminate", "disc_step"])
def test_scoring_model_has_no_discriminator(call):
    model = make_checkpoint().build_model()
    assert model.disc is None
    with pytest.raises(ValueError) as info:
        getattr(model, call)(np.zeros((1, 2)), np.zeros((1, 4)))
    assert str(info.value).startswith(f"{call}: ")


def test_scoring_model_holds_its_weights_once(tmp_path):
    """load_checkpoint plus build_model at the Lorenz desk config keep at
    most 1.5x the model's weights (22,122 floats): one buffer of file bytes
    that every array views, and no gradient, moment or discriminator store.
    Copying the weights and giving each a gradient and two Adam moments
    held 6.5x."""
    cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(cfg, np.random.default_rng(0))
    path = tmp_path / "desk.vdm"
    save_checkpoint(Checkpoint.from_stores(cfg, model.params, model.disc, np.zeros(3),
                                           np.ones(3)), path)
    weights = sum(t.value.nbytes for t in model.params.values())
    assert weights == 8 * 22_122
    del model
    with traced_peak() as held:
        ckpt = load_checkpoint(path)
        scoring = ckpt.build_model()
    assert held.current <= 1.5 * weights, (held.current, weights)
    assert scoring.disc is None
    assert type(scoring.params) is dict
    assert all(t.grad is None for t in scoring.params.values())


# ---------------------------------------------------------------------------
# corrupt files raise CheckpointError naming the path
# ---------------------------------------------------------------------------

CUTS = {
    "empty": lambda size, header_len: 0,
    "in_magic": lambda size, header_len: 5,
    "in_version": lambda size, header_len: 10,
    "in_header_length": lambda size, header_len: 19,
    "in_header": lambda size, header_len: 20 + header_len // 2,
    "header_end": lambda size, header_len: 20 + header_len,
    "in_payload": lambda size, header_len: (20 + header_len + size) // 2,
    "last_byte": lambda size, header_len: size - 1,
}


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_truncated_file_raises_value_error(tmp_path, cut):
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<Q", blob, len(MAGIC) + 4)[0]
    path.write_bytes(blob[: CUTS[cut](len(blob), header_len)])
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path


@pytest.mark.parametrize(
    "damage",
    [
        lambda h: h.pop("arrays"),
        lambda h: h["config"].update(colour="blue"),
        lambda h: h["arrays"][0].update(shape="wide"),
        lambda h: h["arrays"][0].update(store="elsewhere"),
        lambda h: h["arrays"].__setitem__(0, "enc0.w"),
        lambda h: h["arrays"].append(dict(h["arrays"][0])),
    ],
    ids=["no_arrays", "unknown_config_key", "bad_shape", "unknown_store", "entry_not_object",
         "duplicate_entry"],
)
def test_malformed_header_raises_value_error(tmp_path, damage):
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    version, header, payload = split_blob(path.read_bytes())
    damage(header)
    path.write_bytes(join_blob(version, header, payload))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path


@pytest.mark.parametrize("value", [4.0, True])
def test_non_int_dimension_rejected_on_load(tmp_path, value):
    """A config dimension of 4.0 once passed the array check, since
    (4.0,) == (4,), and failed later in the first network call."""
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    version, header, payload = split_blob(path.read_bytes())
    header["config"]["d_h"] = value
    path.write_bytes(join_blob(version, header, payload))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path
    assert info.value.reason == (
        "invalid checkpoint (ValueError: ModelConfig: d_h must be a positive integer)"
    )


def drop_model_array(ckpt):
    del ckpt.model_arrays["tra1.w"]


def add_model_array(ckpt):
    ckpt.model_arrays["extra.w"] = np.zeros((2, 2))


def widen_disc_bias(ckpt):
    ckpt.disc_arrays["mlp2.b"] = np.zeros(3)


def infinite_model_bias(ckpt):
    ckpt.model_arrays["dec2.b"][1] = np.inf


def nan_disc_weight(ckpt):
    ckpt.disc_arrays["gru.wr"][0, 0] = np.nan


def zero_obs_std(ckpt):
    ckpt.obs_std[0] = 0.0


def negative_obs_std(ckpt):
    ckpt.obs_std[1] = -0.25


@pytest.mark.parametrize(
    "damage, message",
    [
        (drop_model_array, "array model/tra1.w: the file has no array, its config (64, 64)"),
        (add_model_array, "array model/extra.w: the file has (2, 2), its config no array"),
        (widen_disc_bias, "array disc/mlp2.b: the file has (3,), its config (1,)"),
        (infinite_model_bias, "array model/dec2.b: non-finite value"),
        (nan_disc_weight, "array disc/gru.wr: non-finite value"),
        (zero_obs_std, "array stats/obs_std: a standard deviation <= 0"),
        (negative_obs_std, "array stats/obs_std: a standard deviation <= 0"),
    ],
    ids=["missing_array", "extra_array", "wrong_shape", "infinite_weight", "nan_weight",
         "zero_obs_std", "negative_obs_std"],
)
def test_array_set_must_match_the_config(tmp_path, damage, message):
    """The arrays are checked against the stores VdmModel.initialize builds
    for the file's config, and their values for finiteness and the
    observation stds for positivity, so a file the package did not write
    fails on load, naming the array, rather than in the first scoring call
    (or, for a negative std, never: the model would see sign-flipped data)."""
    ckpt = make_checkpoint()
    damage(ckpt)
    path = tmp_path / "model.vdm"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path
    assert info.value.reason == f"invalid checkpoint (ValueError: {message})"


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    blob = path.read_bytes()
    path.write_bytes(blob + bytes(16))
    size = len(split_blob(blob)[2])
    want = f"payload holds {size + 16} bytes, the arrays {size}"
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path
    assert info.value.reason == f"invalid checkpoint (ValueError: {want})"


def test_offsets_must_follow_the_saved_layout(tmp_path):
    """Every array starts where the one before it ends; a header whose
    offsets all read 0 used to load with every array aliasing the first
    array's bytes."""
    path = tmp_path / "model.vdm"
    save_checkpoint(make_checkpoint(), path)
    version, header, payload = split_blob(path.read_bytes())
    for entry in header["arrays"]:
        entry["offset"] = 0
    path.write_bytes(join_blob(version, header, payload))
    first, second = header["arrays"][:2]
    end = 8 * int(np.prod(first["shape"]))
    want = f"array {second['store']}/{second['name']}: offset 0, expected {end}"
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.path == path
    assert info.value.reason == f"invalid checkpoint (ValueError: {want})"
