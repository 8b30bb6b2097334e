"""Versioned on-disk checkpoints: bit-exact, platform-independent.

Layout: an 8-byte magic, a little-endian uint32 format version, a uint64
header length, a JSON header (config, provenance, and one entry per array
giving store, name, shape and byte offset), then one payload of
concatenated little-endian float64 values in row-major order.

Format 2 holds the model and discriminator weights, the observation
normalization statistics, the config and the provenance; loading returns each
array as a read-only view into the file's bytes.  Only format 2 loads; format
1, which also carried Adam moments, step counts and an rng state, does not.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .nets import ModelConfig, VdmModel
from .optim import ParameterStore
from .util import atomic_write_bytes

__all__ = ["Checkpoint", "CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"VDMCKPT\x00"
FORMAT_VERSION = 2
_PREAMBLE = len(MAGIC) + 12  # magic, uint32 version, uint64 header length


class CheckpointError(ValueError):
    """A checkpoint file that does not load; the message is "<path>: <reason>"."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path, self.reason = path, reason


@dataclass
class Checkpoint:
    """Weights, normalization statistics and provenance of one trained model."""

    config: ModelConfig
    model_arrays: dict
    disc_arrays: dict
    obs_mean: np.ndarray
    obs_std: np.ndarray
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_stores(cls, config, params, disc, obs_mean, obs_std):
        return cls(
            config=config,
            model_arrays={k: v.value.copy() for k, v in params.params.items()},
            disc_arrays={k: v.value.copy() for k, v in disc.params.items()},
            obs_mean=np.asarray(obs_mean, dtype=np.float64),
            obs_std=np.asarray(obs_std, dtype=np.float64),
        )

    def build_model(self):
        """A scoring model over read-only views of the model weights, with no
        gradient, optimizer state or discriminator."""
        params = ParameterStore()
        for name, arr in self.model_arrays.items():
            params.add(name, arr.view()).value.flags.writeable = False
        return VdmModel(self.config, params, None)

    def normalize(self, data):
        return (np.asarray(data, dtype=np.float64) - self.obs_mean) / self.obs_std

    def denormalize(self, data):
        return np.asarray(data, dtype=np.float64) * self.obs_std + self.obs_mean


def save_checkpoint(ckpt, path):
    entries = []
    chunks = []
    offset = 0
    stats = {"obs_mean": ckpt.obs_mean, "obs_std": ckpt.obs_std}
    for store, arrays in (("model", ckpt.model_arrays), ("disc", ckpt.disc_arrays), ("stats", stats)):
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            entries.append({"store": store, "name": name, "shape": list(arr.shape), "offset": offset})
            chunks.append(arr.tobytes())
            offset += arr.nbytes
    header = {"config": asdict(ckpt.config), "arrays": entries, "provenance": ckpt.provenance}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    preamble = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes))
    atomic_write_bytes(path, [preamble, header_bytes, *chunks])
    return path


def load_checkpoint(path):
    """Read a format 2 checkpoint; a malformed file, one whose arrays are not
    those a model of its config holds, or one with a non-finite value or an
    observation std <= 0, raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREAMBLE or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(path, "not a checkpoint file")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            path, f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    try:
        header = json.loads(blob[_PREAMBLE : _PREAMBLE + header_len])
        payload = memoryview(blob)[_PREAMBLE + header_len :]
        config = ModelConfig(**header["config"])
        shapes = VdmModel.parameter_shapes(config)
        want = {(store, name): shape for store in shapes for name, shape in shapes[store]}
        want.update({("stats", name): (config.d_x,) for name in ("obs_mean", "obs_std")})
        got = {(e["store"], e["name"]): tuple(e["shape"]) for e in header["arrays"]}
        for key in sorted(want.keys() | got.keys()):
            if got.get(key) != want.get(key):
                have, need = (d.get(key, "no array") for d in (got, want))
                raise ValueError(f"array {'/'.join(key)}: the file has {have}, its config {need}")
        size = 8 * sum(int(np.prod(e["shape"])) for e in header["arrays"])
        if len(payload) != size:
            raise ValueError(f"payload holds {len(payload)} bytes, the arrays {size}")
        arrays = {"model": {}, "disc": {}, "stats": {}}
        offset = 0  # the arrays lie back to back in header order, as saved
        for entry in header["arrays"]:
            if entry["offset"] != offset:
                raise ValueError(
                    f"array {entry['store']}/{entry['name']}: offset {entry['offset']}, "
                    f"expected {offset}"
                )
            shape = tuple(entry["shape"])
            arr = np.frombuffer(payload, dtype="<f8", count=int(np.prod(shape)), offset=offset)
            if not np.isfinite(arr).all():
                raise ValueError(f"array {entry['store']}/{entry['name']}: non-finite value")
            arrays[entry["store"]][entry["name"]] = arr.reshape(shape)
            offset += arr.nbytes
        if (arrays["stats"]["obs_std"] <= 0.0).any():
            raise ValueError("array stats/obs_std: a standard deviation <= 0")
        return Checkpoint(
            config=config,
            model_arrays=arrays["model"],
            disc_arrays=arrays["disc"],
            obs_mean=arrays["stats"]["obs_mean"],
            obs_std=arrays["stats"]["obs_std"],
            provenance=header.get("provenance", {}),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CheckpointError(path, f"invalid checkpoint ({type(err).__name__}: {err})") from err
