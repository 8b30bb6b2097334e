"""Benchmark for the vdm package: three closed-loop CLI workloads.

    python3 perfbench/run.py --workload train_lorenz --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload first sets up its inputs from ``--seed`` (a fresh
``vdm simulate`` and, for the scoring workloads, a short ``vdm train`` for
the checkpoint), then issues its timed ``vdm`` command again and again, each
time in a fresh process and only after the previous one returned, until
``--seconds`` have passed.  Every command's outputs are checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import has_ancestor, layer_self_times, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = tuple(m["name"] for m in BENCHMARK["end_to_end"])
# units of every metric: BENCHMARK.json's, plus those printed only as text lines
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
UNITS.update(train_samples_per_s="1/s", evaluate_s="s", forecast_s="s", failed_frac="1")

SETUP_REPEATS = 3
# Timed commands per run, whatever --seconds says.  Two let the byte-identity
# check compare repeats; one training epoch (about 17 s on 2 cores) is left
# alone so that 22 runs of each workload fit the benchmark's time budget.
MIN_COMMANDS = {"train_lorenz": 1, "evaluate_lorenz": 2, "forecast_export": 2}
MIN_TRACED_STEPS = 100  # objective.step_ms_p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 170
LAYERS = ("autodiff", "optim", "objective", "nets", "sampling", "inference",
          "evaluation", "data", "checkpoint", "cli", "util")
NETS = ("encode_initial", "transition_prior", "emit", "infer_component", "gru_advance", "disc")

# The model of every workload: Lorenz desk scale, cubature sampling (k = 2 d_z + 1).
MODEL = ["--d-z", "6", "--d-h", "32", "--k", "13"]

LORENZ_TRAIN = dict(n_train=1000, n_val=100, n_test=0, seq_len=30, prefix_len=10,
                    n_groups=0, group_size=1, batch_size=32, val_forecasts=100)
# The scoring workloads' checkpoint comes from one step on a small seq_len-30
# set: scoring time does not depend on how well the model is trained, and a
# step on the 100-step data would add about 2 s to each set-up.
LORENZ_SCORE = dict(n_train=1, n_val=0, n_test=800, seq_len=100, prefix_len=10,
                    n_groups=10, group_size=100,
                    fit=dict(LORENZ_TRAIN, n_train=32, n_val=8, val_forecasts=10))
TINY_SCORE = dict(n_train=1, n_val=0, n_test=6, seq_len=6, prefix_len=2, n_groups=2,
                  group_size=4, fit=dict(n_train=4, n_val=2, n_test=0, seq_len=3, prefix_len=1,
                                         n_groups=0, group_size=1, batch_size=4,
                                         val_forecasts=3))
SIZES = {
    "full": {
        "train_lorenz": LORENZ_TRAIN,
        "evaluate_lorenz": dict(LORENZ_SCORE, limit=32, n_forecasts=200, w_forecasts=10),
        "forecast_export": dict(LORENZ_SCORE, limit=16, n=100, prior_draws=1000),
    },
    # small enough that every workload finishes in seconds; train keeps
    # MIN_TRACED_STEPS steps in one epoch so the traced run needs one command
    "tiny": {
        "train_lorenz": dict(n_train=100, n_val=4, n_test=0, seq_len=3, prefix_len=1,
                             n_groups=0, group_size=1, batch_size=1, val_forecasts=4),
        "evaluate_lorenz": dict(TINY_SCORE, limit=4, n_forecasts=5, w_forecasts=2),
        "forecast_export": dict(TINY_SCORE, limit=2, n=3, prior_draws=7),
    },
}

# Outputs of the full-size workloads at REFERENCE_SEED, as (value, tolerance).
# The tolerances are about five times the change seen when only the random
# stream changes (evaluate --seed 0..3 on the same data and checkpoint moved
# the three metrics by at most 0.002, 0.0015 and 0.01; train --seed 0..2 on
# the same data moved val_nll by 0.015), so a change of stream or of
# summation order passes and a change of the model does not.
REFERENCE_SEED = 0
REFERENCE = {
    "train_lorenz": {"val_nll": (1.9526728684940315, 0.05)},
    "evaluate_lorenz": {"multi_step_nll": (2.1847369157278687, 0.01),
                        "one_step_nll": (5.1431549862788755, 0.01),
                        "w_distance": (25.031844593001473, 0.05)},
}
# Outputs of the full-size workloads at any seed, as (low, high).  Every seed
# draws its data and its model's initial weights from the same distributions,
# so the outputs stay in a band: each range is the band seen over seeds
# 0..39 (STEADINESS.md), widened on each side by its own width and rounded
# outwards.  A wrong output that stays finite but leaves the band fails at
# any seed; a subtler one fails at REFERENCE_SEED.
ACCEPTED = {
    "train_lorenz": {"val_nll": (1.54, 2.26)},
    "evaluate_lorenz": {"multi_step_nll": (1.35, 3.02),
                        "one_step_nll": (2.75, 7.35),
                        "w_distance": (17.6, 31.9)},
}


class CheckFailed(Exception):
    """A command's outputs are missing, malformed or wrong."""


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def simulate_argv(data_dir, seed, s):
    return ["simulate", "--gen", "lorenz", "--seed", str(seed), "--out", str(data_dir),
            "--n-train", str(s["n_train"]), "--n-val", str(s["n_val"]),
            "--n-test", str(s["n_test"]), "--seq-len", str(s["seq_len"]),
            "--prefix-len", str(s["prefix_len"]), "--n-groups", str(s["n_groups"]),
            "--group-size", str(s["group_size"])]


def train_argv(data_dir, out_dir, seed, s):
    return ["train", "--data", str(data_dir / "manifest.json"), "--seed", str(seed),
            "--out", str(out_dir), *MODEL, "--epochs", "1",
            "--batch-size", str(s["batch_size"]), "--val-forecasts", str(s["val_forecasts"])]


def setup_argvs(data_dir, seed, s):
    argvs = [simulate_argv(data_dir, seed, s)]
    if "fit" in s:
        argvs += [simulate_argv(data_dir / "fit", seed, s["fit"]),
                  train_argv(data_dir / "fit", data_dir / "model", seed, s["fit"])]
    return argvs


def command_argv(workload, data_dir, out_dir, seed, s):
    if workload == "train_lorenz":
        return train_argv(data_dir, out_dir, seed, s)
    shared = ["--data", str(data_dir / "manifest.json"),
              "--checkpoint", str(data_dir / "model" / "checkpoint.vdm"),
              "--seed", str(seed), "--out", str(out_dir), "--limit", str(s["limit"])]
    if workload == "evaluate_lorenz":
        return ["evaluate", *shared, "--n-forecasts", str(s["n_forecasts"]),
                "--w-forecasts", str(s["w_forecasts"])]
    return ["forecast", *shared, "--n", str(s["n"]), "--export-prior",
            "--prior-draws", str(s["prior_draws"])]


# ---------------------------------------------------------------------------
# output checks; each returns a digest that repeats must reproduce and the
# scalar outputs that check_values compares
# ---------------------------------------------------------------------------

def _read_csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines]


def _finite_floats(fields, what):
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise CheckFailed(f"{what}: non-numeric field in {fields}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what}: non-finite value in {fields}")
    return values


def check_values(workload, outputs, scale, seed):
    """Full-size outputs against the accepted range and, at REFERENCE_SEED,
    against the reference."""
    if scale != "full":
        return
    for name, value in outputs.items():
        low, high = ACCEPTED[workload][name]
        if not low <= value <= high:
            raise CheckFailed(f"{name} = {value!r}, outside the accepted [{low!r}, {high!r}]")
        if seed == REFERENCE_SEED:
            expected, tol = REFERENCE[workload][name]
            if abs(value - expected) > tol:
                raise CheckFailed(f"{name} = {value!r}, reference {expected!r} +- {tol!r}")


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_train(out_dir, s):
    rows = _read_csv_rows(out_dir / "metrics.csv")
    if len(rows) != 2 or rows[0] != ["epoch", "total", "elbo", "pred", "adv", "val_nll"]:
        raise CheckFailed(f"metrics.csv: expected a header and one epoch, got {len(rows)} lines")
    values = _finite_floats(rows[1][1:], "metrics.csv")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from vdm.checkpoint import load_checkpoint

    ckpt_path = out_dir / "checkpoint.vdm"
    try:
        ckpt = load_checkpoint(ckpt_path)
    except (ValueError, OSError, KeyError) as err:
        raise CheckFailed(f"checkpoint.vdm does not reload: {err}") from None
    if (ckpt.config.d_z, ckpt.config.d_h, ckpt.config.k) != (6, 32, 13):
        raise CheckFailed(f"checkpoint config {ckpt.config} is not the trained one")
    return _digest([out_dir / "metrics.csv", ckpt_path]), {"val_nll": values[4]}


def check_evaluate(out_dir, s):
    rows = _read_csv_rows(out_dir / "metrics_report.csv")
    names = [row[0] for row in rows[1:]]
    if names != ["multi_step_nll", "one_step_nll", "w_distance"]:
        raise CheckFailed(f"metrics_report.csv: expected three metric rows, got {names}")
    outputs = {}
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise CheckFailed(f"metrics_report.csv: {row[0]} row has {len(row)} fields")
        outputs[row[0]] = _finite_floats(row[1:2], row[0])[0]
        if row[2]:
            _finite_floats(row[2:3], row[0] + " stderr")
    return _digest([out_dir / "metrics_report.csv"]), outputs


def _check_csv_block(path, header, n_rows):
    """Row count, field count and finiteness of a CSV written with repr(float)."""
    text = path.read_text()
    lines = text.count("\n")
    if not text.startswith(",".join(header) + "\n") or lines != n_rows + 1:
        raise CheckFailed(f"{path.name}: expected {n_rows} rows under {header}, got {lines - 1}")
    if text.count(",") != (n_rows + 1) * (len(header) - 1):
        raise CheckFailed(f"{path.name}: rows do not all have {len(header)} fields")
    if "nan" in text or "inf" in text:
        raise CheckFailed(f"{path.name}: non-finite value")


def check_forecast(out_dir, s):
    horizon = s["seq_len"] - s["prefix_len"]
    fc = out_dir / "forecasts.csv"
    _check_csv_block(fc, ["seq_id", "forecast_id", "t", "x0", "x1", "x2"],
                     s["limit"] * s["n"] * horizon)
    priors = sorted(out_dir.glob("prior_*.csv"))
    if len(priors) != s["limit"]:
        raise CheckFailed(f"expected {s['limit']} prior files, got {len(priors)}")
    for path in priors:
        _check_csv_block(path, ["step"] + [f"z{d}" for d in range(6)],
                         s["prefix_len"] * s["prior_draws"])
    return _digest([fc, *priors]), {}


CHECKS = {"train_lorenz": check_train, "evaluate_lorenz": check_evaluate,
          "forecast_export": check_forecast}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("VDM_THREADS", None)  # the package default: one worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(work, tag, argvs, trace, run_id):
    """Run vdm commands in one fresh worker process; returns (result, wall s)."""
    plan_path = work / f"{tag}.plan.json"
    result_path = work / f"{tag}.result.json"
    plan_path.write_text(json.dumps({"commands": argvs, "trace": trace, "run": run_id}))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), str(plan_path), str(result_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    for cmd in result["commands"]:
        if cmd["rc"] != 0:
            sys.stderr.write(f"{tag}: vdm {cmd['argv'][0]} exited {cmd['rc']}\n"
                             f"{proc.stderr[-2000:]}\n")
    return result, wall


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run
# ---------------------------------------------------------------------------

def _train_steps(spans):
    """Wall time of each training step: from a total_loss call to the end of
    the last Adam update before the next total_loss call."""
    order = sorted(range(len(spans)), key=lambda i: spans[i]["start"])
    steps, current = [], None
    for i in order:
        span = spans[i]
        if span["name"] == "objective.total_loss":
            if current is not None:
                steps.append(current[1] - current[0])
            current = [span["start"], span["end"]]
        elif span["name"] == "optim.adam_step" and current is not None:
            current[1] = max(current[1], span["end"])
    if current is not None:
        steps.append(current[1] - current[0])
    return steps


def layer_metrics(traced, setup_spans, untraced_s):
    """Per-layer metrics from traced commands; ms figures are per command.

    ``traced`` is a list of (spans, wall seconds) for each traced command.
    """
    n_cmd = len(traced)
    dur = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    self_by_name = defaultdict(float)
    step_ms, records = [], []
    validate = remainder = wall_total = forecast_rows = 0.0
    n_spans = 0
    for spans, wall in traced:
        per_layer, rest = layer_self_times(spans, wall)
        if abs(sum(per_layer.values()) + rest - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError("traced spans do not nest: self times do not sum to wall time")
        for layer, value in per_layer.items():
            layer_self[layer] += value
        remainder += rest
        wall_total += wall
        n_spans += len(spans)
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name = span["name"]
            dur[name] += span["end"] - span["start"]
            calls[name] += 1
            self_by_name[name] += own
            for key in ("rows", "bytes", "row_steps"):
                if key in span:
                    counts[f"{name}.{key}"] += span[key]
            if name == "autodiff.backward":
                records.append(span["records"])
            if name == "evaluation.forecast_dataset":
                forecast_rows = max(forecast_rows, span["rows"])
            if name == "evaluation.multi_step_nll" and has_ancestor(spans, i, "objective.train"):
                validate += span["end"] - span["start"]
        step_ms += [1e3 * s for s in _train_steps(spans)]

    steps = len(step_ms)

    def per_cmd_ms(name):
        return 1e3 * dur[name] / n_cmd

    def per_step_ms(value_s):
        return 1e3 * value_s / steps if steps else 0.0

    def pct(q):
        if not steps:
            return 0.0
        value = percentile(step_ms, q)
        if value is None:
            raise RuntimeError(f"p{q} of {steps} steps has fewer than ten samples beyond it")
        return value

    gen_s = dur["inference.generate"]
    m = {
        "autodiff.tape_records_per_step": statistics.fmean(records) if records else 0.0,
        "autodiff.backward_ms_per_step": per_step_ms(dur["autodiff.backward"]),
        "autodiff.backward_sweeps_per_step": calls["autodiff.backward"] / steps if steps else 0.0,
        "optim.adam_ms_per_step": per_step_ms(dur["optim.adam_step"]),
        "objective.total_loss_ms_per_step": per_step_ms(self_by_name["objective.total_loss"]),
        "objective.step_ms_p50": pct(50),
        "objective.step_ms_p90": pct(90),
        "objective.validate_ms": 1e3 * validate / n_cmd,
    }
    for net in NETS:
        m[f"nets.{net}.ms"] = per_cmd_ms(f"nets.{net}")
        m[f"nets.{net}.rows"] = counts[f"nets.{net}.rows"] / n_cmd
    m.update({
        "sampling.latent_sample_batch_ms": per_cmd_ms("sampling.latent_sample_batch"),
        "inference.belief_step_ms": 1e3 * self_by_name["inference.belief_step"] / n_cmd,
        "inference.generate_ms": per_cmd_ms("inference.generate"),
        "inference.generate_row_steps_per_s":
            counts["inference.generate.row_steps"] / gen_s if gen_s else 0.0,
        "inference.filter_sequence_ms": per_cmd_ms("inference.filter_sequence"),
        "inference.one_step_predictive_ms": per_cmd_ms("inference.one_step_predictive"),
        "inference.export_predictive_prior_ms": per_cmd_ms("inference.export_predictive_prior"),
        "evaluation.forecast_dataset_ms": per_cmd_ms("evaluation.forecast_dataset"),
        "evaluation.forecast_rows": forecast_rows,
        "evaluation.multi_step_nll_ms": per_cmd_ms("evaluation.multi_step_nll"),
        "evaluation.one_step_nll_ms": per_cmd_ms("evaluation.one_step_nll"),
        "evaluation.w_distance_ms": per_cmd_ms("evaluation.w_distance"),
        "evaluation.wasserstein_ms": per_cmd_ms("evaluation.wasserstein"),
        "evaluation.wasserstein_calls": calls["evaluation.wasserstein"] / n_cmd,
        "data.load_csv_ms": per_cmd_ms("data.load_csv"),
        "data.load_csv_rows": counts["data.load_csv.rows"] / n_cmd,
        "checkpoint.load_ms": per_cmd_ms("checkpoint.load"),
        "checkpoint.save_ms": per_cmd_ms("checkpoint.save"),
        "checkpoint.bytes": counts["checkpoint.save.bytes"] / n_cmd,
        "cli.self_ms": 1e3 * layer_self["cli"] / n_cmd,
        "util.atomic_write_ms": per_cmd_ms("util.atomic_write"),
        "util.bytes_written": counts["util.atomic_write.bytes"] / n_cmd,
    })
    setup_dur = defaultdict(float)
    for span in setup_spans:
        setup_dur[span["name"]] += span["end"] - span["start"]
    m["data.simulate_ms"] = 1e3 * setup_dur["data.simulate"]
    m["data.save_csv_ms"] = 1e3 * setup_dur["data.save_csv"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / n_cmd
    m["trace.wall_ms"] = 1e3 * wall_total / n_cmd
    m["trace.remainder_ms"] = 1e3 * remainder / n_cmd
    m["trace.untraced_ms"] = 1e3 * untraced_s
    m["trace.overhead_ms"] = m["trace.wall_ms"] - m["trace.untraced_ms"]
    m["trace.spans_per_command"] = n_spans / n_cmd
    return m


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "VDM_THREADS": "unset",
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
    }


def run_benchmark(workload, seed, seconds, trace, scale="full"):
    """Set up, run the timed commands, check them; returns (summary, metrics)."""
    s = SIZES[scale][workload]
    work = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, scale, s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()


def _run(workload, seed, seconds, trace, scale, s, work):
    setup_s, setup_spans = [], []
    for i in range(1 if trace else SETUP_REPEATS):
        data_dir = work / f"data{i}"
        result, wall = run_child(work, f"setup{i}", setup_argvs(data_dir, seed, s),
                                 trace, "setup")
        if any(cmd["rc"] != 0 for cmd in result["commands"]):
            raise RuntimeError(f"set-up of {workload} failed")
        setup_s.append(wall)
        print(f"setup {i} {wall!r} s")
        setup_spans = result["spans"]
    print(f"vdm worker threads {result['vdm_threads']}")
    data_dir = work / "data0"

    check = CHECKS[workload]
    attempted = failed = 0
    first_digest = None
    times, rss, traced = [], [], []
    untraced_s = None
    steps = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            done = (traced and untraced_s is not None and elapsed >= seconds
                    and (steps >= MIN_TRACED_STEPS or workload != "train_lorenz"))
        else:
            done = attempted >= MIN_COMMANDS[workload] and elapsed >= seconds
        if done or (failed and elapsed >= seconds):
            break
        traced_cmd = trace and untraced_s is not None
        out_dir = work / f"out{attempted}"
        result, _ = run_child(work, f"cmd{attempted}",
                              [command_argv(workload, data_dir, out_dir, seed, s)],
                              traced_cmd, f"cmd{attempted}")
        attempted += 1
        cmd = result["commands"][0]
        try:
            if cmd["rc"] != 0:
                raise CheckFailed(f"exit code {cmd['rc']}")
            digest, outputs = check(out_dir, s)
            check_values(workload, outputs, scale, seed)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                raise CheckFailed("outputs differ from the first repeat of this invocation")
        except (CheckFailed, OSError) as err:
            failed += 1
            sys.stderr.write(f"{workload}: command {attempted - 1} failed its check: {err}\n")
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        for name, value in outputs.items():
            print(f"output {name} {value!r}")
        wall = cmd["end"] - cmd["start"]
        print(f"command {attempted - 1} {'traced ' if traced_cmd else ''}{wall!r} s "
              f"cpu {cmd['cpu_s']!r} s peak_rss {result['maxrss_kb'] / 1024.0!r} MB")
        if traced_cmd:
            if result["missing_targets"]:
                sys.stderr.write(f"not traced: {', '.join(result['missing_targets'])}\n")
            traced.append((result["spans"], wall))
            steps += sum(1 for sp in result["spans"] if sp["name"] == "objective.total_loss")
        elif trace:
            untraced_s = wall
        else:
            times.append(wall)
            rss.append(result["maxrss_kb"] / 1024.0)

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        if not traced or untraced_s is None:
            raise RuntimeError("no traced command passed its checks")
        print(f"traced commands {len(traced)}, training steps {steps}")
        return summary, layer_metrics(traced, setup_spans, untraced_s)
    if not times:
        raise RuntimeError("no timed command passed its checks")
    command_s = statistics.median(times)
    named = {
        "train_lorenz": ("train_samples_per_s", s["n_train"] / command_s),
        "evaluate_lorenz": ("evaluate_s", command_s),
        "forecast_export": ("forecast_s", command_s),
    }[workload]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "command_s": command_s,
        "peak_rss_mb": statistics.median(rss),
        named[0]: named[1],
        "failed_frac": failed / attempted,
    }
    return summary, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vdm" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no vdm sources under {SRC}; run from a source checkout\n")
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {WHY[args.workload]}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    summary, metrics = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in metrics.items():
        print(f"{'layer' if args.trace else 'metric'} {name} {value!r} {UNITS[name]}")
    names = metrics if args.trace else END_TO_END
    out = {name: {"value": metrics[name], "unit": UNITS[name]} for name in names}
    print(f"commands attempted {summary['attempted']} failed {summary['failed']}")
    print(json.dumps({**summary, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
