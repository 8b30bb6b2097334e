"""Command-line surface: simulate, train, evaluate, forecast.

Shared flags: --config <json file> (key/value text mirroring the run-config
field names), --seed <int> (mandatory), --out <dir>.  Every command writes a
run_record.json with the fully resolved configuration.  Exit codes: 0
success, 2 usage error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as vdata
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import (
    _chunk_plan,
    dataset_multi_step_nll,
    forecast_dataset,
    one_step_nll,
    w_distance_protocol,
)
from .inference import export_predictive_prior
from .nets import SAMPLER_MODES, WEIGHTING_MODES, ModelConfig
from .objective import train
from .util import atomic_write_text, sha256_file, worker_count

__all__ = ["main"]


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run_record(out_dir, command, resolved, outputs):
    record = {"command": command, "config": resolved, "outputs": sorted(outputs)}
    _write_json(os.path.join(out_dir, "run_record.json"), record)


def _load_config_file(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a key/value object")
    return cfg


def _resolve(args, settings):
    """defaults < config file < explicit CLI flags, then every value checked
    against its settings entry whatever its source; adds ``seed``, checked
    like a setting before any file is read or written."""
    resolved = {name: default for name, (_, default, _) in settings.items()}
    resolved.update(_load_config_file(args.config))
    unknown = set(resolved) - set(settings)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, (kind, default, allowed) in {**settings, "seed": (int, None, AT_LEAST_0)}.items():
        value = getattr(args, name)
        if value is None:
            value = resolved[name]
        if value is None and default is None:
            continue
        # a float setting keeps an int as given; bool is not an int here
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ValueError(f"setting {name!r} must be a {kind.__name__}, got {value!r}")
        if allowed is not None and value not in allowed:
            want = f">= {allowed.start}" if isinstance(allowed, range) else f"one of {list(allowed)}"
            raise ValueError(f"setting {name!r} must be {want}, got {value!r}")
        resolved[name] = value
    return resolved


def _load_manifest(path, split):
    """The dataset manifest at ``path`` and its directory.

    A missing or mistyped entry, or no file for ``split``, raises
    ValueError naming the entry and the path.
    """
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must hold a key/value object")
    for key, kind in (("d_x", int), ("seq_len", int), ("prefix_len", int), ("files", dict)):
        if key not in manifest:
            raise ValueError(f"{path}: manifest has no {key!r} entry")
        if type(manifest[key]) is not kind:
            raise ValueError(f"{path}: manifest entry {key!r} must be a {kind.__name__}")
    if not isinstance(manifest.get("groups", []), list):
        raise ValueError(f"{path}: manifest entry 'groups' must be a list")
    named = [(f"'files'[{key!r}]", rel) for key, rel in manifest["files"].items()]
    named += [(f"'groups'[{i}]", rel) for i, rel in enumerate(manifest.get("groups", []))]
    for name, rel in named:
        if type(rel) is not str:
            raise ValueError(f"{path}: manifest entry {name} must be a str")
    if split not in manifest["files"]:
        raise ValueError(f"{path}: manifest lists no {split!r} file")
    base = os.path.dirname(os.path.abspath(path))
    return manifest, base


def _load_csv(manifest, base, rel):
    """The dataset CSV at ``rel`` (relative to the manifest) with the manifest's shape."""
    return vdata.load_csv(os.path.join(base, rel), manifest["d_x"], manifest["seq_len"],
                          manifest["prefix_len"])


def _load_scoring_inputs(command, resolved, split):
    """Manifest, its directory, checkpoint, model and the ``split`` dataset cut
    to ``limit`` sequences, for ``evaluate`` and ``forecast``.

    The whole split is loaded and validated before the cut.
    """
    if resolved["data"] is None or resolved["checkpoint"] is None:
        raise ValueError(f"{command}: --data and --checkpoint are required")
    manifest, base = _load_manifest(resolved["data"], split)
    ckpt = load_checkpoint(resolved["checkpoint"])
    if manifest["d_x"] != ckpt.config.d_x:
        raise ValueError(
            f"{command}: dataset d_x={manifest['d_x']} does not match checkpoint d_x={ckpt.config.d_x}"
        )
    model = ckpt.build_model()
    ds = _load_csv(manifest, base, manifest["files"][split])
    if len(ds) == 0:
        raise ValueError(f"{command}: the {split!r} split holds no sequences")
    if resolved["limit"] is not None:
        ds = ds.subset(np.arange(min(resolved["limit"], len(ds))))
    return manifest, base, ckpt, model, ds


# Each command's settings: name -> (type, default, allowed values or None).
# The flag is --name with "_" turned into "-"; a bool setting is a flag that
# sets True.  A ``None`` default means "unset" and is the only None accepted.
# A range bound suits int settings only: ``in`` is O(1) for an int but scans
# the range for a float, so _resolve checks the type first.
AT_LEAST_0 = range(0, 2**63)
AT_LEAST_1 = range(1, 2**63)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_SETTINGS = {
    "gen": (str, "lorenz", ("lorenz", "four_mode")),
    "n_train": (int, 5000, AT_LEAST_1),
    "n_val": (int, 200, AT_LEAST_0),
    "n_test": (int, 800, AT_LEAST_0),
    "seq_len": (int, None, AT_LEAST_1),  # lorenz: 100; four_mode: fixed at 4
    "prefix_len": (int, None, AT_LEAST_1),  # lorenz: 10; four_mode: 1
    "n_groups": (int, None, AT_LEAST_0),  # lorenz: 10; four_mode: does not apply
    "group_size": (int, None, AT_LEAST_1),  # lorenz: 100; four_mode: does not apply
}


def cmd_simulate(args):
    resolved = _resolve(args, SIMULATE_SETTINGS)
    lorenz = resolved["gen"] == "lorenz"
    if lorenz:
        defaults = {"seq_len": 100, "prefix_len": 10, "n_groups": 10, "group_size": 100}
    else:
        if resolved["seq_len"] not in (None, vdata.FOUR_MODE_LEN):
            raise ValueError(
                f"setting 'seq_len' is fixed at {vdata.FOUR_MODE_LEN} for four_mode data, "
                f"got {resolved['seq_len']}"
            )
        for name in ("n_groups", "group_size"):
            if resolved[name] is not None:
                raise ValueError(f"setting {name!r} does not apply to four_mode data")
        defaults = {"seq_len": vdata.FOUR_MODE_LEN, "prefix_len": 1}
    for name, default in defaults.items():
        if resolved[name] is None:
            resolved[name] = default
    if resolved["prefix_len"] >= resolved["seq_len"]:
        raise ValueError(
            f"setting 'prefix_len' must be < seq_len = {resolved['seq_len']}, "
            f"got {resolved['prefix_len']}"
        )
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    counts = (resolved["n_train"], resolved["n_val"], resolved["n_test"])
    outputs = []
    group_files = []

    if lorenz:
        cfg = vdata.LorenzConfig(seq_len=resolved["seq_len"], prefix_len=resolved["prefix_len"])
        sim = vdata.simulate_lorenz(
            cfg, rng, counts, n_groups=resolved["n_groups"], group_size=resolved["group_size"]
        )
        splits = {"train": sim.train, "val": sim.val, "test": sim.test}
        for gi, group in enumerate(sim.groups):
            name = f"group_{gi:02d}.csv"
            vdata.save_csv(group, os.path.join(out_dir, name))
            group_files.append(name)
    else:
        train_ds, val_ds, test_ds = vdata.generate_four_mode(
            counts, rng, prefix_len=resolved["prefix_len"]
        )
        splits = {"train": train_ds, "val": val_ds, "test": test_ds}

    files = {}
    for split, ds in splits.items():
        name = f"{split}.csv"
        vdata.save_csv(ds, os.path.join(out_dir, name))
        files[split] = name
        outputs.append(name)
    some = splits["train"]
    manifest = {
        "generator": resolved["gen"],
        "seed": args.seed,
        "d_x": some.d_x,
        "seq_len": some.seq_len,
        "prefix_len": some.prefix_len,
        "counts": {k: len(v) for k, v in splits.items()},
        "files": files,
        "groups": group_files,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    outputs += group_files + ["manifest.json"]
    _write_run_record(out_dir, "simulate", resolved, outputs)
    print(f"simulate: wrote {len(outputs)} file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_SETTINGS = {
    "data": (str, None, None),
    "d_z": (int, 6, AT_LEAST_1),
    "d_h": (int, 32, AT_LEAST_1),
    "k": (int, None, AT_LEAST_1),  # sca: 2 d_z + 1; monte_carlo: 1
    "kappa": (float, 0.5, None),
    "sampler": (str, "sca", SAMPLER_MODES),
    "weighting": (str, "delta", WEIGHTING_MODES),
    "omega1": (float, 1.0, None),
    "omega2": (float, 1.0, None),
    "lr": (float, 1e-3, None),
    "epochs": (int, 20, AT_LEAST_1),
    "batch_size": (int, 64, AT_LEAST_1),
    "patience": (int, 10, AT_LEAST_1),
    "val_forecasts": (int, 100, AT_LEAST_1),
}


def cmd_train(args):
    worker_count()  # a bad VDM_THREADS fails before any file is read
    resolved = _resolve(args, TRAIN_SETTINGS)
    if resolved["data"] is None:
        raise ValueError("train: --data <manifest> is required")
    manifest, base = _load_manifest(resolved["data"], "train")
    if resolved["k"] is None:
        resolved["k"] = 2 * resolved["d_z"] + 1 if resolved["sampler"] == "sca" else 1
    # the model settings are checked before either CSV is parsed
    config = ModelConfig(
        d_x=manifest["d_x"],
        d_z=resolved["d_z"],
        d_h=resolved["d_h"],
        k=resolved["k"],
        kappa=resolved["kappa"],
        weighting_mode=resolved["weighting"],
        sampler_mode=resolved["sampler"],
        omega1=resolved["omega1"],
        omega2=resolved["omega2"],
        lr=resolved["lr"],
    )
    files = manifest["files"]
    train_ds = _load_csv(manifest, base, files["train"])
    val_ds = _load_csv(manifest, base, files["val"]) if "val" in files else None
    if val_ds is not None and len(val_ds) == 0:  # --n-val 0: train with no validation
        val_ds = None
    rng = np.random.default_rng(args.seed)
    result = train(
        train_ds,
        config,
        rng,
        val_dataset=val_ds,
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        patience=resolved["patience"],
        val_forecasts=resolved["val_forecasts"],
        verbose=args.verbose,
    )
    result.checkpoint.provenance["manifest_sha256"] = sha256_file(resolved["data"])
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.vdm")
    save_checkpoint(result.checkpoint, ckpt_path)

    columns = ["total", "elbo", "pred", "adv", "val_nll"]
    history = result.history
    block = ([str(r["epoch"]) for r in history], [[r[k] for k in columns] for r in history])
    vdata.write_csv(os.path.join(out_dir, "metrics.csv"), ["epoch"] + columns, [block])
    _write_run_record(out_dir, "train", resolved, ["checkpoint.vdm", "metrics.csv"])
    if result.aborted:
        print("train: aborted on divergence; last good checkpoint written", file=sys.stderr)
        return 1
    print(f"train: checkpoint written to {ckpt_path} ({len(result.history)} epoch(s))")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVALUATE_SETTINGS = {
    "data": (str, None, None),
    "checkpoint": (str, None, None),
    "n_forecasts": (int, 1000, AT_LEAST_1),
    "w_forecasts": (int, 10, AT_LEAST_1),
    "nll_reduction": (str, "mean", ("mean", "sum")),
    "limit": (int, None, AT_LEAST_1),
}


def cmd_evaluate(args):
    worker_count()  # a bad VDM_THREADS fails before any file is read
    resolved = _resolve(args, EVALUATE_SETTINGS)
    manifest, base, ckpt, model, test_ds = _load_scoring_inputs("evaluate", resolved, "test")
    ckpt_id = sha256_file(resolved["checkpoint"])[:12]
    groups = []  # each normalized as it loads: its raw copy dies at the rebinding
    for rel in manifest.get("groups", []):
        group = _load_csv(manifest, base, rel)
        if len(group) == 0:
            raise ValueError(f"evaluate: group file {rel!r} holds no sequences")
        group = vdata.Dataset(ckpt.normalize(group.data), group.prefix_len)
        groups.append(group)
    rng = np.random.default_rng(args.seed)
    scaled = ckpt.normalize(test_ds.data)

    rows = []
    ms = dataset_multi_step_nll(
        model,
        scaled,
        test_ds.prefix_len,
        resolved["n_forecasts"],
        rng,
        reduction=resolved["nll_reduction"],
    )
    rows.append(["multi_step_nll", repr(ms), "", len(test_ds), args.seed, ckpt_id])
    os_nll = one_step_nll(model, scaled, test_ds.prefix_len, rng)
    rows.append(["one_step_nll", repr(os_nll), "", len(test_ds), args.seed, ckpt_id])
    note = None
    if groups:
        wmean, wstderr = w_distance_protocol(
            model, groups, rng, forecasts_per_truth=resolved["w_forecasts"]
        )
        rows.append(["w_distance", repr(wmean), repr(wstderr), len(groups), args.seed, ckpt_id])
    else:
        note = "w_distance omitted: no groups in dataset manifest"

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    # reprs, ints, "" and a hex id: no field needs quoting
    header = ["metric", "value", "stderr", "n", "seed", "checkpoint_id"]
    text = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    atomic_write_text(os.path.join(out_dir, "metrics_report.csv"), text)
    resolved["note"] = note
    _write_run_record(out_dir, "evaluate", resolved, ["metrics_report.csv"])
    for row in rows:
        print(f"{row[0]}: {row[1]}" + (f" +- {row[2]}" if row[2] else ""))
    if note:
        print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

FORECAST_SETTINGS = {
    "data": (str, None, None),
    "checkpoint": (str, None, None),
    "horizon": (int, None, AT_LEAST_1),  # the split's seq_len - prefix_len
    "n": (int, 1000, AT_LEAST_1),
    "limit": (int, None, AT_LEAST_1),
    "split": (str, "test", ("train", "val", "test")),
    "export_prior": (bool, False, None),
    "prior_draws": (int, 1000, AT_LEAST_1),
}


def cmd_forecast(args):
    resolved = _resolve(args, FORECAST_SETTINGS)
    _, _, ckpt, model, ds = _load_scoring_inputs("forecast", resolved, resolved["split"])
    horizon = resolved["horizon"]
    if horizon is None:
        horizon = ds.seq_len - ds.prefix_len
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    scaled = ckpt.normalize(ds.data)
    n = resolved["n"]

    # forecast one chunk at a time and write one block per trajectory, so
    # neither the forecasts nor their text are ever held whole
    steps = range(ds.prefix_len, ds.prefix_len + horizon)
    keys = [f"{j},{t}" for j in range(n) for t in steps]

    def blocks():
        for rows, chunk_rng in _chunk_plan(len(ds), n, rng):
            fc = forecast_dataset(model, scaled[rows], ds.prefix_len, n, horizon, chunk_rng)
            for i, traj in zip(range(rows.start, rows.stop), ckpt.denormalize(fc)):
                yield [f"{i},{key}" for key in keys], traj.reshape(-1, ds.d_x)

    header = ["seq_id", "forecast_id", "t"] + [f"x{d}" for d in range(ds.d_x)]
    vdata.write_csv(os.path.join(out_dir, "forecasts.csv"), header, blocks())
    outputs = ["forecasts.csv"]

    if resolved["export_prior"]:
        for i in range(len(ds)):
            prefix = scaled[i : i + 1, : ds.prefix_len]
            draws = export_predictive_prior(model, prefix, resolved["prior_draws"], rng)
            name = f"prior_{i}.csv"
            header = ["step"] + [f"z{d}" for d in range(ckpt.config.d_z)]
            blocks = (([str(step)] * len(arr), arr) for step, arr in enumerate(draws))
            vdata.write_csv(os.path.join(out_dir, name), header, blocks)
            outputs.append(name)

    _write_run_record(out_dir, "forecast", resolved, outputs)
    print(f"forecast: wrote {len(outputs)} file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="vdm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, settings, text in (
        ("simulate", cmd_simulate, SIMULATE_SETTINGS, "generate synthetic datasets"),
        ("train", cmd_train, TRAIN_SETTINGS, "train a model on a dataset manifest"),
        ("evaluate", cmd_evaluate, EVALUATE_SETTINGS, "score a checkpoint on a dataset"),
        ("forecast", cmd_forecast, FORECAST_SETTINGS, "sample continuations from a checkpoint"),
    ):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--config", help="JSON config file mirroring the run-config fields")
        sub.add_argument("--seed", type=int, required=True, help="rng seed (mandatory)")
        sub.add_argument("--out", required=True, help="output directory")
        for key, (kind, _, allowed) in settings.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_const", const=True)
            else:
                # a bad choice is a usage error; range bounds are checked by _resolve
                sub.add_argument(flag, type=kind, choices=allowed if kind is str else None)
        sub.set_defaults(func=func)
    subs.choices["train"].add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"vdm {args.command}: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
