"""Child process of the benchmark: run ``vdm`` commands through ``vdm.cli.main``.

    python3 perfbench/worker.py <src dir> <plan.json> <result.json>

The plan holds a list of ``vdm`` argument lists and a ``trace`` flag.  Each
command's wall time covers only the ``vdm.cli.main`` call; the import is
done first.  With tracing on, wrappers installed on the attributes that
callers look up record one span per call of a public ``vdm`` function.
The result file gets per-command exit codes and times, the process's peak
RSS, and the spans.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from spans import SpanRecorder


def _rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _written(path):
    return {"bytes": os.path.getsize(path)}


def _targets(vdm):
    """(owner, attribute, span name, counters) for every wrapped call site.

    Each wrapper goes on the attribute the caller actually looks up: a
    module that did ``from .x import f`` calls its own binding of ``f``.
    """
    cli, objective, inference, evaluation = vdm.cli, vdm.objective, vdm.inference, vdm.evaluation
    data, checkpoint = vdm.data, vdm.checkpoint
    model_cls = vdm.nets.VdmModel

    def net_rows(args, kwargs, result):
        return {"rows": _rows(args[1])}

    targets = [
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
        (cli, "cmd_forecast", "cli.forecast", None),
        (cli, "train", "objective.train", None),
        (objective, "total_loss", "objective.total_loss", None),
        (objective, "backward", "autodiff.backward",
         lambda a, k, r: {"records": len(a[0].records)}),
        (objective, "adam_step", "optim.adam_step", None),
        (objective, "belief_init", "inference.belief_init", None),
        (objective, "belief_step", "inference.belief_step", None),
        (inference, "belief_init", "inference.belief_init", None),
        (inference, "belief_step", "inference.belief_step", None),
        (inference, "latent_sample_batch", "sampling.latent_sample_batch", None),
        (evaluation, "filter_sequence", "inference.filter_sequence", None),
        (cli, "filter_sequence", "inference.filter_sequence", None),
        (evaluation, "generate", "inference.generate",
         lambda a, k, r: {"row_steps": a[1].batch * a[2]}),
        (evaluation, "one_step_predictive", "inference.one_step_predictive", None),
        (cli, "export_predictive_prior", "inference.export_predictive_prior", None),
        (evaluation, "forecast_dataset", "evaluation.forecast_dataset",
         lambda a, k, r: {"rows": len(a[1]) * a[3]}),
        (cli, "forecast_dataset", "evaluation.forecast_dataset",
         lambda a, k, r: {"rows": len(a[1]) * a[3]}),
        (evaluation, "dataset_multi_step_nll", "evaluation.multi_step_nll", None),
        (cli, "dataset_multi_step_nll", "evaluation.multi_step_nll", None),
        (cli, "one_step_nll", "evaluation.one_step_nll", None),
        (cli, "w_distance_protocol", "evaluation.w_distance", None),
        (evaluation, "wasserstein", "evaluation.wasserstein", None),
        (data, "load_csv", "data.load_csv",
         lambda a, k, r: {"rows": r.data.shape[0] * r.data.shape[1]}),
        (data, "simulate_lorenz", "data.simulate", None),
        (data, "save_csv", "data.save_csv", None),
        (cli, "load_checkpoint", "checkpoint.load", None),
        (cli, "save_checkpoint", "checkpoint.save", lambda a, k, r: _written(a[1])),
        (checkpoint.Checkpoint, "build_model", "checkpoint.build_model", None),
        (cli, "atomic_write_text", "util.atomic_write", lambda a, k, r: _written(a[0])),
        (data, "atomic_write_text", "util.atomic_write", lambda a, k, r: _written(a[0])),
        (checkpoint, "atomic_write_bytes", "util.atomic_write", lambda a, k, r: _written(a[0])),
        (cli, "sha256_file", "util.sha256_file", None),
    ]
    for method in ("encode_initial", "transition_prior", "emit", "infer_component",
                   "gru_advance"):
        targets.append((model_cls, method, f"nets.{method}", net_rows))
    targets.append((model_cls, "disc_step", "nets.disc", net_rows))
    targets.append((model_cls, "discriminate", "nets.disc", net_rows))
    return targets


def install_tracing(recorder, vdm):
    """Wrap every target; returns the names of targets that do not exist."""
    missing = []
    for owner, attr, name, counters in _targets(vdm):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, recorder.wrap(name, fn, counters))
    return missing


def main(src_dir, plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, src_dir)
    import vdm
    import vdm.cli
    import vdm.util

    if not os.path.abspath(vdm.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"worker: imported vdm from {vdm.__file__}, not from {src_dir}")

    recorder = SpanRecorder(plan["run"]) if plan["trace"] else None
    missing = install_tracing(recorder, vdm) if recorder else []
    commands = []
    for argv in plan["commands"]:
        cpu_start = time.process_time()
        start = time.perf_counter()
        error = None
        try:
            rc = vdm.cli.main(argv)
        except SystemExit as err:  # argparse rejected the arguments
            rc = err.code
        except Exception:  # recorded and reported as a failed command
            rc = 1
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        end = time.perf_counter()
        commands.append({"argv": argv, "rc": rc, "error": error, "start": start, "end": end,
                         "cpu_s": time.process_time() - cpu_start})
    result = {
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "vdm_threads": vdm.util.worker_count(),
        "spans": recorder.spans if recorder else [],
        "missing_targets": missing,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
