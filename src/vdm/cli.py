"""Command-line surface: simulate, train, evaluate, forecast.

Shared flags: --config <json file> (key/value text mirroring the run-config
field names), --seed <int> (mandatory), --out <dir>.  Every command writes a
run_record.json with the fully resolved configuration.  Exit codes: 0
success, 2 usage error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import data as vdata
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import (
    dataset_multi_step_nll,
    forecast_dataset,
    one_step_nll,
    w_distance_protocol,
)
from .inference import export_predictive_prior, filter_sequence
from .nets import ModelConfig
from .objective import train
from .util import atomic_write_text, sha256_file

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


def _resolve(args, defaults):
    """defaults < config file < explicit CLI flags."""
    resolved = dict(defaults)
    resolved.update(_load_config_file(args.config))
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
    unknown = set(resolved) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    if split not in manifest["files"]:
        raise ValueError(f"{path}: manifest lists no {split!r} file")
    base = os.path.dirname(os.path.abspath(path))
    return manifest, base


def _load_split(manifest, base, split):
    rel = manifest["files"][split]
    return vdata.load_csv(
        os.path.join(base, rel),
        manifest["d_x"],
        manifest["seq_len"],
        manifest["prefix_len"],
    )


def _load_groups(manifest, base):
    groups = []
    for rel in manifest.get("groups", []):
        groups.append(
            vdata.load_csv(
                os.path.join(base, rel),
                manifest["d_x"],
                manifest["seq_len"],
                manifest["prefix_len"],
            )
        )
    return groups


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "gen": "lorenz",
    "n_train": 5000,
    "n_val": 200,
    "n_test": 800,
    "seq_len": None,   # lorenz: 100; four_mode: fixed at 4
    "prefix_len": None,  # lorenz: 10; four_mode: 1
    "n_groups": 10,
    "group_size": 100,
}


def cmd_simulate(args):
    resolved = _resolve(args, SIMULATE_DEFAULTS)
    resolved["seed"] = args.seed
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    counts = (resolved["n_train"], resolved["n_val"], resolved["n_test"])
    outputs = []
    group_files = []

    if resolved["gen"] == "lorenz":
        resolved["seq_len"] = resolved["seq_len"] or 100
        resolved["prefix_len"] = resolved["prefix_len"] or 10
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
        resolved["seq_len"] = vdata.FOUR_MODE_LEN
        resolved["prefix_len"] = resolved["prefix_len"] or 1
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

TRAIN_DEFAULTS = {
    "data": None,
    "d_z": 6,
    "d_h": 32,
    "k": None,
    "kappa": 0.5,
    "sampler": "sca",
    "weighting": "delta",
    "omega1": 1.0,
    "omega2": 1.0,
    "lr": 1e-3,
    "epochs": 20,
    "batch_size": 64,
    "patience": 10,
    "val_forecasts": 100,
    "normalize": True,
    "nll_reduction": "mean",
}


def cmd_train(args):
    resolved = _resolve(args, TRAIN_DEFAULTS)
    resolved["seed"] = args.seed
    if resolved["data"] is None:
        raise ValueError("train: --data <manifest> is required")
    manifest, base = _load_manifest(resolved["data"], "train")
    train_ds = _load_split(manifest, base, "train")
    val_ds = _load_split(manifest, base, "val") if "val" in manifest["files"] else None
    if resolved["k"] is None:
        resolved["k"] = 2 * resolved["d_z"] + 1 if resolved["sampler"] == "sca" else 1
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
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
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
        normalize=resolved["normalize"],
        nll_reduction=resolved["nll_reduction"],
        verbose=args.verbose,
    )
    result.checkpoint.provenance["manifest_sha256"] = sha256_file(resolved["data"])
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

EVALUATE_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "n_forecasts": 1000,
    "w_forecasts": 10,
    "nll_reduction": "mean",
    "limit": None,
}


def cmd_evaluate(args):
    resolved = _resolve(args, EVALUATE_DEFAULTS)
    resolved["seed"] = args.seed
    if resolved["data"] is None or resolved["checkpoint"] is None:
        raise ValueError("evaluate: --data and --checkpoint are required")
    manifest, base = _load_manifest(resolved["data"], "test")
    ckpt = load_checkpoint(resolved["checkpoint"])
    if manifest["d_x"] != ckpt.config.d_x:
        raise ValueError(
            f"evaluate: dataset d_x={manifest['d_x']} does not match checkpoint d_x={ckpt.config.d_x}"
        )
    ckpt_id = sha256_file(resolved["checkpoint"])[:12]
    model = ckpt.build_model()
    test_ds = _load_split(manifest, base, "test")
    if resolved["limit"]:
        test_ds = test_ds.subset(np.arange(min(resolved["limit"], len(test_ds))))
    groups = _load_groups(manifest, base)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
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
    os_nll = one_step_nll(model, scaled, rng, prefix_len=test_ds.prefix_len)
    rows.append(["one_step_nll", repr(os_nll), "", len(test_ds), args.seed, ckpt_id])
    note = None
    if groups:
        scaled_groups = [vdata.Dataset(ckpt.normalize(g.data), g.prefix_len) for g in groups]
        wmean, wstderr = w_distance_protocol(
            model, scaled_groups, rng, forecasts_per_truth=resolved["w_forecasts"]
        )
        rows.append(["w_distance", repr(wmean), repr(wstderr), len(groups), args.seed, ckpt_id])
    else:
        note = "w_distance omitted: no groups in dataset manifest"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value", "stderr", "n", "seed", "checkpoint_id"])
    writer.writerows(rows)
    atomic_write_text(os.path.join(out_dir, "metrics_report.csv"), buf.getvalue())
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

FORECAST_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "horizon": None,
    "n": 1000,
    "limit": None,
    "split": "test",
    "export_prior": False,
    "prior_draws": 1000,
}


def cmd_forecast(args):
    resolved = _resolve(args, FORECAST_DEFAULTS)
    resolved["seed"] = args.seed
    if resolved["data"] is None or resolved["checkpoint"] is None:
        raise ValueError("forecast: --data and --checkpoint are required")
    manifest, base = _load_manifest(resolved["data"], resolved["split"])
    ckpt = load_checkpoint(resolved["checkpoint"])
    if manifest["d_x"] != ckpt.config.d_x:
        raise ValueError(
            f"forecast: dataset d_x={manifest['d_x']} does not match checkpoint d_x={ckpt.config.d_x}"
        )
    model = ckpt.build_model()
    ds = _load_split(manifest, base, resolved["split"])
    if resolved["limit"]:
        ds = ds.subset(np.arange(min(resolved["limit"], len(ds))))
    horizon = resolved["horizon"]
    if horizon is None:
        horizon = ds.seq_len - ds.prefix_len
    if horizon <= 0:
        raise ValueError("forecast: horizon must be positive")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    scaled = ckpt.normalize(ds.data)
    fc = forecast_dataset(model, scaled, ds.prefix_len, resolved["n"], horizon, rng)
    fc = ckpt.denormalize(fc)

    # one block per trajectory bounds the text held at once
    steps = range(ds.prefix_len, ds.prefix_len + horizon)
    keys = [f"{j},{t}" for j in range(fc.shape[1]) for t in steps]
    header = ["seq_id", "forecast_id", "t"] + [f"x{d}" for d in range(ds.d_x)]
    blocks = (([f"{i},{key}" for key in keys], fc[i].reshape(-1, ds.d_x)) for i in range(len(fc)))
    vdata.write_csv(os.path.join(out_dir, "forecasts.csv"), header, blocks)
    outputs = ["forecasts.csv"]

    if resolved["export_prior"]:
        for i in range(len(ds)):
            _, beliefs = filter_sequence(model, scaled[i, : ds.prefix_len], rng)
            draws = export_predictive_prior(model, beliefs, resolved["prior_draws"], rng)
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

def _add_shared(sub):
    sub.add_argument("--config", help="JSON config file mirroring the run-config fields")
    sub.add_argument("--seed", type=int, required=True, help="rng seed (mandatory)")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="vdm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="generate synthetic datasets")
    _add_shared(p_sim)
    p_sim.add_argument("--gen", choices=["lorenz", "four_mode"], default=None)
    p_sim.add_argument("--n-train", dest="n_train", type=int)
    p_sim.add_argument("--n-val", dest="n_val", type=int)
    p_sim.add_argument("--n-test", dest="n_test", type=int)
    p_sim.add_argument("--seq-len", dest="seq_len", type=int)
    p_sim.add_argument("--prefix-len", dest="prefix_len", type=int)
    p_sim.add_argument("--n-groups", dest="n_groups", type=int)
    p_sim.add_argument("--group-size", dest="group_size", type=int)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = subs.add_parser("train", help="train a model on a dataset manifest")
    _add_shared(p_train)
    p_train.add_argument("--data", help="dataset manifest path")
    p_train.add_argument("--d-z", dest="d_z", type=int)
    p_train.add_argument("--d-h", dest="d_h", type=int)
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--kappa", type=float)
    p_train.add_argument("--sampler", choices=["sca", "monte_carlo"])
    p_train.add_argument("--weighting", choices=["delta", "categorical"])
    p_train.add_argument("--omega1", type=float)
    p_train.add_argument("--omega2", type=float)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--patience", type=int)
    p_train.add_argument("--val-forecasts", dest="val_forecasts", type=int)
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_shared(p_eval)
    p_eval.add_argument("--data")
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--n-forecasts", dest="n_forecasts", type=int)
    p_eval.add_argument("--w-forecasts", dest="w_forecasts", type=int)
    p_eval.add_argument("--nll-reduction", dest="nll_reduction", choices=["mean", "sum"])
    p_eval.add_argument("--limit", type=int)
    p_eval.set_defaults(func=cmd_evaluate)

    p_fc = subs.add_parser("forecast", help="sample continuations from a checkpoint")
    _add_shared(p_fc)
    p_fc.add_argument("--data")
    p_fc.add_argument("--checkpoint")
    p_fc.add_argument("--horizon", type=int)
    p_fc.add_argument("--n", type=int)
    p_fc.add_argument("--limit", type=int)
    p_fc.add_argument("--split", choices=["train", "val", "test"])
    p_fc.add_argument("--export-prior", dest="export_prior", action="store_const", const=True)
    p_fc.add_argument("--prior-draws", dest="prior_draws", type=int)
    p_fc.set_defaults(func=cmd_forecast)
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
