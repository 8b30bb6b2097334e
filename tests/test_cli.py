"""Command-line surface: determinism, exit codes, file contracts."""
import csv
import io
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

import vdm.cli
import vdm.objective
from vdm.cli import build_parser, main
from vdm.data import load_csv

from helpers import rerendered_csv, traced_peak


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def simulate_four_mode(out, seed=7, n=(40, 10, 10)):
    rc = main(
        [
            "simulate", "--gen", "four_mode", "--seed", str(seed), "--out", str(out),
            "--n-train", str(n[0]), "--n-val", str(n[1]), "--n-test", str(n[2]),
        ]
    )
    assert rc == 0
    return os.path.join(str(out), "manifest.json")


def train_tiny(data_manifest, out, seed=3, extra=()):
    rc = main(
        [
            "train", "--data", data_manifest, "--seed", str(seed), "--out", str(out),
            "--d-z", "2", "--d-h", "4", "--k", "5", "--epochs", "1",
            "--batch-size", "16", "--val-forecasts", "5", *extra,
        ]
    )
    return rc, os.path.join(str(out), "checkpoint.vdm")


def test_simulate_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    simulate_four_mode(a)
    simulate_four_mode(b)
    for name in ("train.csv", "val.csv", "test.csv", "manifest.json"):
        assert read(a / name) == read(b / name), name
    for name in ("train.csv", "val.csv", "test.csv"):
        assert read(a / name) == rerendered_csv(a / name, 2).encode(), name


def test_simulate_four_mode_counts_and_length(tmp_path):
    manifest_path = simulate_four_mode(tmp_path / "d", n=(1000, 5, 5))
    manifest = json.loads(read(manifest_path))
    assert manifest["counts"]["train"] == 1000
    assert manifest["seq_len"] == 4
    ds = load_csv(tmp_path / "d" / "train.csv", 2, 4, 1)
    assert len(ds) == 1000
    assert manifest["groups"] == []
    config = json.loads(read(tmp_path / "d" / "run_record.json"))["config"]
    assert (config["n_groups"], config["group_size"]) == (None, None)


def test_simulate_lorenz_outputs_groups(tmp_path):
    out = tmp_path / "lz"
    rc = main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out),
            "--n-train", "8", "--n-val", "2", "--n-test", "2", "--seq-len", "15",
            "--prefix-len", "5", "--n-groups", "2", "--group-size", "4",
        ]
    )
    assert rc == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["groups"] == ["group_00.csv", "group_01.csv"]
    assert manifest["d_x"] == 3
    for name in ["train.csv", "val.csv", "test.csv"] + manifest["groups"]:
        assert read(out / name) == rerendered_csv(out / name, 2).encode(), name
    record = json.loads(read(out / "run_record.json"))
    assert record["command"] == "simulate"
    assert record["config"]["seed"] == 5
    assert (record["config"]["n_groups"], record["config"]["group_size"]) == (2, 4)


def test_unknown_generator_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--gen", "brownian", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_seed_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--gen", "lorenz", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_train_deterministic_checkpoint_bytes(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    _, c1 = train_tiny(manifest, tmp_path / "r1")
    _, c2 = train_tiny(manifest, tmp_path / "r2")
    assert read(c1) == read(c2)
    metrics = tmp_path / "r1" / "metrics.csv"
    assert read(metrics).startswith(b"epoch,total,elbo,pred,adv,val_nll\n0,")
    assert read(metrics) == rerendered_csv(metrics, 1).encode()


def test_train_config_file_with_flag_override(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 1, "d_z": 2, "d_h": 4, "k": 5,
                                    "batch_size": 16, "data": manifest}))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_path), "--seed", "3", "--out", str(out),
               "--d-h", "8"])
    assert rc == 0
    record = json.loads(read(out / "run_record.json"))
    assert record["config"]["d_h"] == 8  # flag beats config file
    assert record["config"]["epochs"] == 1


def test_train_four_mode_flag_wiring(tmp_path):
    """The k=9, d_z=4 configuration with both regularizers disabled."""
    manifest = simulate_four_mode(tmp_path / "data")
    out = tmp_path / "run"
    rc = main(
        [
            "train", "--data", manifest, "--seed", "1", "--out", str(out),
            "--k", "9", "--d-z", "4", "--d-h", "8", "--omega1", "0",
            "--omega2", "0", "--epochs", "1",
        ]
    )
    assert rc == 0
    record = json.loads(read(out / "run_record.json"))
    assert (record["config"]["k"], record["config"]["d_z"]) == (9, 4)
    assert record["config"]["omega1"] == 0.0
    from vdm.checkpoint import load_checkpoint

    ckpt = load_checkpoint(out / "checkpoint.vdm")
    assert ckpt.config.k == 9
    assert ckpt.config.omega2 == 0.0


def test_train_unknown_config_key_fails(tmp_path, capsys):
    manifest = simulate_four_mode(tmp_path / "data")
    cfg_path = tmp_path / "cfg.json"
    # normalize and nll_reduction were config-only train settings; both are gone
    for body in ({"learning_late": 0.1}, {"normalize": False}, {"nll_reduction": "sum"}):
        cfg_path.write_text(json.dumps(body))
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--data", manifest,
                   "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: unknown config keys" in err and repr(next(iter(body))) in err
    assert not os.path.exists(tmp_path / "x")


SHARED_OPTIONS = ["-h", "--help", "--config", "--seed", "--out"]


@pytest.mark.parametrize(
    "command,options",
    [
        ("simulate", ["--gen", "--n-train", "--n-val", "--n-test", "--seq-len", "--prefix-len",
                      "--n-groups", "--group-size"]),
        ("train", ["--data", "--d-z", "--d-h", "--k", "--kappa", "--sampler", "--weighting",
                   "--omega1", "--omega2", "--lr", "--epochs", "--batch-size", "--patience",
                   "--val-forecasts", "--verbose"]),
        ("evaluate", ["--data", "--checkpoint", "--n-forecasts", "--w-forecasts",
                      "--nll-reduction", "--limit"]),
        ("forecast", ["--data", "--checkpoint", "--horizon", "--n", "--limit", "--split",
                      "--export-prior", "--prior-draws"]),
    ],
)
def test_subcommand_option_strings(command, options):
    subs = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    sub = subs.choices[command]
    assert [s for a in sub._actions for s in a.option_strings] == SHARED_OPTIONS + options


@pytest.mark.parametrize(
    "command,body",
    [
        ("simulate", {"gen": "Lorenz"}),
        ("simulate", {"n_train": "4"}),
        ("train", {"epochs": "1"}),
        ("forecast", {"export_prior": "false"}),
        ("evaluate", {"limit": 2.5}),
        ("forecast", {"limit": 0}),
        ("train", {"lr": None}),
    ],
)
def test_config_file_value_checked_like_a_flag(tmp_path, capsys, command, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
    assert rc == 1
    key = next(iter(body))
    assert f"vdm {command}: error: setting {key!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command,flag",
    [
        ("evaluate", "--limit=0"),
        ("forecast", "--limit=-1"),
        ("forecast", "--n=0"),
        ("forecast", "--prior-draws=0"),
        ("evaluate", "--n-forecasts=0"),
        ("evaluate", "--w-forecasts=0"),
        ("train", "--batch-size=0"),
        ("train", "--epochs=0"),
        ("train", "--patience=-3"),
        ("train", "--val-forecasts=0"),
        ("simulate", "--n-train=0"),
        ("simulate", "--group-size=0"),
    ],
)
def test_count_below_one_fails(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    rc = main([command, flag, "--seed", "1", "--out", str(out)])
    assert rc == 1
    key = flag[2:flag.index("=")].replace("-", "_")
    assert f"vdm {command}: error: setting {key!r} must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seq-len", "0"], "setting 'seq_len' must be >= 1, got 0"),
        (["--prefix-len", "0"], "setting 'prefix_len' must be >= 1, got 0"),
        (["--gen", "four_mode", "--seq-len", "50"],
         "setting 'seq_len' is fixed at 4 for four_mode data, got 50"),
        (["--gen", "four_mode", "--prefix-len", "5"],
         "setting 'prefix_len' must be < seq_len = 4, got 5"),
        (["--seq-len", "5", "--prefix-len", "9"],
         "setting 'prefix_len' must be < seq_len = 5, got 9"),
        (["--n-val", "-2"], "setting 'n_val' must be >= 0, got -2"),
        (["--n-test", "-1"], "setting 'n_test' must be >= 0, got -1"),
        (["--n-groups", "-1"], "setting 'n_groups' must be >= 0, got -1"),
        (["--gen", "four_mode", "--n-groups", "3"],
         "setting 'n_groups' does not apply to four_mode data"),
        (["--gen", "four_mode", "--group-size", "7"],
         "setting 'group_size' does not apply to four_mode data"),
    ],
    ids=["seq_len_0", "prefix_len_0", "four_mode_seq_len_50", "four_mode_prefix_len_5",
         "prefix_len_9_over_seq_len_5", "n_val_-2", "n_test_-1", "n_groups_-1",
         "four_mode_n_groups", "four_mode_group_size"],
)
def test_simulate_length_checked(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    rc = main(
        [
            "simulate", "--seed", "1", "--out", str(out), "--n-train", "2",
            "--n-val", "1", "--n-test", "1", *flags,
        ]
    )
    assert rc == 1
    assert f"vdm simulate: error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags",
    [["--seq-len", "6", "--prefix-len", "6"], ["--gen", "four_mode", "--prefix-len", "4"]],
    ids=["lorenz", "four_mode"],
)
def test_simulate_prefix_filling_the_sequence_fails_before_out(tmp_path, flags):
    out = tmp_path / "out"
    rc = main(
        [
            "simulate", "--seed", "1", "--out", str(out), "--n-train", "2",
            "--n-val", "1", "--n-test", "1", *flags,
        ]
    )
    assert rc == 1
    assert not os.path.exists(out)


def test_train_without_a_validation_continuation_fails_before_training(tmp_path, monkeypatch):
    manifest = simulate_four_mode(tmp_path / "data")
    with open(manifest) as fh:
        body = json.load(fh)
    body["prefix_len"] = body["seq_len"]
    with open(manifest, "w") as fh:
        json.dump(body, fh)
    calls = []
    monkeypatch.setattr(vdm.objective, "total_loss", lambda *a: calls.append(a))
    rc, _ = train_tiny(manifest, tmp_path / "run")
    assert rc == 1
    assert not os.path.exists(tmp_path / "run")
    assert calls == []


def test_train_on_an_empty_validation_split_runs_unvalidated(tmp_path):
    """``simulate --n-val 0`` lists a header-only val.csv; train runs as with
    no val file, and the val_nll column reads nan."""
    manifest = simulate_four_mode(tmp_path / "data", n=(40, 0, 10))
    rc, _ = train_tiny(manifest, tmp_path / "run")
    assert rc == 0
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["val_nll"] == "nan"


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        manifest = simulate_four_mode(tmp_path / "data")
        rc, ckpt = train_tiny(manifest, tmp_path / "run")
    finally:
        os.umask(old)
    assert rc == 0
    for path in (tmp_path / "data" / "train.csv", manifest, ckpt,
                 tmp_path / "run" / "metrics.csv", tmp_path / "run" / "run_record.json"):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


def test_evaluate_without_groups_omits_w_distance(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "11",
            "--out", str(out), "--n-forecasts", "10", "--limit", "5",
        ]
    )
    assert rc == 0
    with open(out / "metrics_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    metrics = {r["metric"] for r in rows}
    assert metrics == {"multi_step_nll", "one_step_nll"}
    record = json.loads(read(out / "run_record.json"))
    assert "omitted" in record["config"]["note"]
    for r in rows:
        assert r["checkpoint_id"]
        assert r["seed"] == "11"


def evaluate_lorenz_with_groups(tmp_path):
    """Run ``vdm evaluate`` on a small Lorenz set with groups; returns its --out."""
    out_data = tmp_path / "lz"
    main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out_data),
            "--n-train", "8", "--n-val", "2", "--n-test", "4", "--seq-len", "12",
            "--prefix-len", "4", "--n-groups", "2", "--group-size", "4",
        ]
    )
    manifest = os.path.join(str(out_data), "manifest.json")
    rc, ckpt = train_tiny(manifest, tmp_path / "run")
    assert rc == 0
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
            "--out", str(out), "--n-forecasts", "5", "--w-forecasts", "2",
        ]
    )
    assert rc == 0
    return out


def test_evaluate_with_groups_reports_w_distance(tmp_path):
    out = evaluate_lorenz_with_groups(tmp_path)
    with open(out / "metrics_report.csv") as fh:
        rows = {r["metric"]: r for r in csv.DictReader(fh)}
    assert "w_distance" in rows
    assert float(rows["w_distance"]["value"]) > 0
    assert rows["w_distance"]["stderr"] != ""


def test_metrics_report_is_what_csv_writer_renders(tmp_path):
    """The joined-fields writer gives the bytes ``csv.writer`` gives for the
    same fields: none of them needs quoting, the empty stderr included."""
    path = evaluate_lorenz_with_groups(tmp_path) / "metrics_report.csv"
    with open(path, newline="") as fh:
        fields = list(csv.reader(fh))
    assert fields[1][2] == fields[2][2] == ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(fields)
    assert read(path).decode() == buf.getvalue()


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
def test_scoring_an_empty_split_fails_before_out(tmp_path, capsys, command):
    """A header-only test.csv (``--n-test 0``) is named in the error, and no
    --out directory is left behind."""
    manifest = simulate_four_mode(tmp_path / "data", n=(40, 10, 0))
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    out = tmp_path / "out"
    rc = main([command, "--data", manifest, "--checkpoint", ckpt, "--seed", "1",
               "--out", str(out)])
    assert rc == 1
    assert (f"vdm {command}: error: {command}: the 'test' split holds no sequences"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_evaluate_an_empty_group_file_fails_before_out(tmp_path, capsys):
    out_data = tmp_path / "lz"
    main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out_data),
            "--n-train", "8", "--n-val", "2", "--n-test", "4", "--seq-len", "12",
            "--prefix-len", "4", "--n-groups", "2", "--group-size", "4",
        ]
    )
    group = out_data / "group_01.csv"
    group.write_text(group.read_text().splitlines()[0] + "\n")
    manifest = os.path.join(str(out_data), "manifest.json")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    out = tmp_path / "eval"
    rc = main(["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
               "--out", str(out), "--n-forecasts", "5"])
    assert rc == 1
    assert ("vdm evaluate: error: evaluate: group file 'group_01.csv' holds no sequences"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_evaluate_enters_the_protocol_with_one_copy_of_the_groups(tmp_path, monkeypatch):
    """Each group is normalized as it loads, so no raw copy is alive beside
    the normalized groups: the traced bytes on entering the protocol stay
    below 1.5 times the groups' bytes (over twice them with the raw groups)."""
    out_data = tmp_path / "lz"
    main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out_data),
            "--n-train", "8", "--n-val", "2", "--n-test", "2", "--seq-len", "100",
            "--prefix-len", "10", "--n-groups", "10", "--group-size", "100",
        ]
    )
    manifest = os.path.join(str(out_data), "manifest.json")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    seen = []

    def entry(model, groups, rng, forecasts_per_truth):
        seen.append((tracemalloc.get_traced_memory()[0], sum(g.data.nbytes for g in groups)))
        return 1.0, 0.0

    monkeypatch.setattr(vdm.cli, "w_distance_protocol", entry)
    with traced_peak():
        rc = main(["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
                   "--out", str(tmp_path / "eval"), "--n-forecasts", "5"])
    assert rc == 0
    ((held, group_bytes),) = seen
    assert group_bytes == 10 * 100 * 100 * 3 * 8  # the paper protocol's shape
    assert held < 1.5 * group_bytes, (held, group_bytes)


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_bad_vdm_threads_fails_before_out(tmp_path, capsys, monkeypatch, command):
    """VDM_THREADS is checked before any file is read, even by an evaluate
    that has no groups to fan out or a train whose validation comes last."""
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    monkeypatch.setenv("VDM_THREADS", "four")
    out = tmp_path / "out"
    if command == "evaluate":
        rc = main(["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "1",
                   "--out", str(out), "--n-forecasts", "5"])
    else:
        rc, _ = train_tiny(manifest, out)
    assert rc == 1
    assert f"vdm {command}: error: VDM_THREADS must be an integer >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "train", "evaluate", "forecast"])
def test_negative_seed_fails_before_out(tmp_path, capsys, command):
    """--seed is checked like a setting before any file is read or written;
    -1 used to fail at the rng, after simulate had made --out and the others
    had parsed every CSV, with numpy's message naming no setting."""
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    out = tmp_path / "out"
    inputs = {"simulate": [], "train": ["--data", manifest],
              "evaluate": ["--data", manifest, "--checkpoint", ckpt],
              "forecast": ["--data", manifest, "--checkpoint", ckpt]}[command]
    rc = main([command, *inputs, "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert f"vdm {command}: error: setting 'seed' must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_scoring_bytes_identical_at_any_thread_count(tmp_path, monkeypatch):
    """Each chunk of forecasts and each group has its own stream, so
    metrics_report.csv and forecasts.csv keep their bytes when the chunks
    run on two threads.  600 forecasts a trajectory put one trajectory in
    each chunk: 4 chunks to score, 3 to write."""
    out_data = tmp_path / "lz"
    main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out_data),
            "--n-train", "8", "--n-val", "2", "--n-test", "4", "--seq-len", "12",
            "--prefix-len", "4", "--n-groups", "2", "--group-size", "4",
        ]
    )
    manifest = os.path.join(str(out_data), "manifest.json")
    rc, ckpt = train_tiny(manifest, tmp_path / "run")
    assert rc == 0
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("VDM_THREADS", threads)
        ev, fc = tmp_path / f"eval{threads}", tmp_path / f"fc{threads}"
        assert main(["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
                     "--out", str(ev), "--n-forecasts", "600", "--w-forecasts", "2"]) == 0
        assert main(["forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
                     "--out", str(fc), "--n", "600", "--limit", "3"]) == 0
        outputs[threads] = (read(ev / "metrics_report.csv"), read(fc / "forecasts.csv"))
    assert outputs["1"] == outputs["2"]
    assert b"w_distance" in outputs["1"][0]
    assert outputs["1"][1].count(b"\n") == 1 + 3 * 600 * 8


def test_evaluate_dimension_mismatch_fails(tmp_path):
    four = simulate_four_mode(tmp_path / "data4")
    _, ckpt = train_tiny(four, tmp_path / "run")
    out_data = tmp_path / "lz"
    main(
        [
            "simulate", "--gen", "lorenz", "--seed", "5", "--out", str(out_data),
            "--n-train", "4", "--n-val", "2", "--n-test", "2", "--seq-len", "12",
            "--n-groups", "0",
        ]
    )
    rc = main(
        [
            "evaluate", "--data", os.path.join(str(out_data), "manifest.json"),
            "--checkpoint", ckpt, "--seed", "1", "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1


def test_evaluate_failure_leaves_no_output_directory(tmp_path, capsys):
    """A manifest whose prefix fills the whole sequence leaves nothing to
    score; evaluate fails before it creates --out."""
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    with open(manifest) as fh:
        body = json.load(fh)
    body["prefix_len"] = body["seq_len"]
    with open(manifest, "w") as fh:
        json.dump(body, fh)
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "1",
            "--out", str(out), "--n-forecasts", "5",
        ]
    )
    assert rc == 1
    assert "dataset_multi_step_nll: no continuation to score" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_evaluate_truncated_checkpoint_fails_cleanly(tmp_path, capsys):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(blob[:15])
    rc = main(
        [
            "evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "1",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    assert f"vdm evaluate: error: {ckpt}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,missing",
    [
        ({}, "'d_x'"),
        ({"d_x": 2, "seq_len": 4, "prefix_len": 1}, "'files'"),
        ({"d_x": 2, "seq_len": 4, "prefix_len": 1, "files": {"train": "train.csv"}}, "'test'"),
        ({"d_x": "2", "seq_len": 4, "prefix_len": 1, "files": {"test": "test.csv"}}, "'d_x'"),
        (
            {"d_x": 2, "seq_len": 4, "prefix_len": 1, "files": {"test": "test.csv"}, "groups": 5},
            "'groups'",
        ),
        # an entry that is not a path string once ended in a TypeError traceback
        ({"d_x": 2, "seq_len": 4, "prefix_len": 1, "files": {"test": 7}}, "'files'['test']"),
        (
            {"d_x": 2, "seq_len": 4, "prefix_len": 1, "files": {"test": "test.csv"}, "groups": [3]},
            "'groups'[0]",
        ),
    ],
)
def test_evaluate_malformed_manifest_fails_cleanly(tmp_path, capsys, body, missing):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    rc = main(
        [
            "evaluate", "--data", str(bad), "--checkpoint", ckpt, "--seed", "1",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"vdm evaluate: error: {bad}" in err and missing in err


def test_forecast_deterministic_and_shaped(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    outs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        rc = main(
            [
                "forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "9",
                "--out", str(out), "--n", "3", "--limit", "2", "--horizon", "3",
            ]
        )
        assert rc == 0
        outs.append(read(out / "forecasts.csv"))
    assert outs[0] == outs[1]
    with open(tmp_path / "f1" / "forecasts.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"seq_id", "forecast_id", "t", "x0", "x1"}
    # trajectories x forecasts x horizon; the continuation starts after the prefix
    assert [(r["seq_id"], r["forecast_id"], r["t"]) for r in rows] == [
        (str(i), str(j), str(1 + t)) for i in range(2) for j in range(3) for t in range(3)
    ]
    assert outs[0] == rerendered_csv(tmp_path / "f1" / "forecasts.csv", 3).encode()


def test_forecast_prior_export(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    out = tmp_path / "fc"
    rc = main(
        [
            "forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "9",
            "--out", str(out), "--n", "2", "--limit", "1", "--export-prior",
            "--prior-draws", "5",
        ]
    )
    assert rc == 0
    with open(out / "prior_0.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # prefix has one step
    assert set(rows[0]) == {"step", "z0", "z1"}
    assert read(out / "prior_0.csv") == rerendered_csv(out / "prior_0.csv", 1).encode()


@pytest.mark.parametrize("horizon", ["-2", "0"])
def test_forecast_invalid_horizon_fails(tmp_path, capsys, horizon):
    manifest = simulate_four_mode(tmp_path / "data")
    _, ckpt = train_tiny(manifest, tmp_path / "run")
    rc = main(
        [
            "forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "9",
            "--out", str(tmp_path / "x"), "--horizon", horizon,
        ]
    )
    assert rc == 1
    # the bound is checked before any file is opened: a missing manifest and
    # checkpoint go unread
    missing = tmp_path / "missing"
    capsys.readouterr()
    rc = main(
        [
            "forecast", "--data", str(missing / "manifest.json"),
            "--checkpoint", str(missing / "checkpoint.vdm"), "--seed", "9",
            "--out", str(tmp_path / "x"), "--horizon", horizon,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"vdm forecast: error: setting 'horizon' must be >= 1, got {horizon}" in err
    assert "missing" not in err
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("setting", ["d_z", "d_h", "k"])
def test_train_model_size_checked_before_any_file(tmp_path, capsys, setting):
    missing = tmp_path / "missing" / "manifest.json"
    out = tmp_path / "out"
    rc = main(["train", "--data", str(missing), "--seed", "1", "--out", str(out),
               "--" + setting.replace("_", "-"), "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"vdm train: error: setting {setting!r} must be >= 1, got 0" in err
    assert "missing" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags, setting", [
    (["--lr", "0"], "lr"),
    (["--lr", "nan"], "lr"),
    (["--kappa", "-1"], "kappa"),
    (["--omega1", "-1"], "omega1"),
    (["--sampler", "sca", "--k", "5"], "k = 2*d_z+1"),
], ids=["lr", "lr_nan", "kappa", "omega1", "sca_k"])
def test_train_model_settings_checked_before_the_csvs(tmp_path, capsys, flags, setting):
    """The manifest alone gives d_x, so the model settings fail before a
    listed CSV is opened: here neither exists."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "d_x": 2, "seq_len": 20, "prefix_len": 5,
        "files": {"train": "train.csv", "val": "val.csv"},
    }))
    out = tmp_path / "out"
    rc = main(["train", "--data", str(manifest), "--seed", "1", "--out", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("vdm train: error: ModelConfig: ") and setting in err
    assert "train.csv" not in err
    assert not os.path.exists(out)


def test_train_divergence_in_validation_writes_the_last_good_checkpoint(tmp_path, capsys):
    """An absurd learning rate leaves the parameters non-finite after the
    epoch's one batch, so the validation forecasts fail: train reports
    divergence, exits 1 and writes the last good checkpoint."""
    manifest = simulate_four_mode(tmp_path / "data")
    extra = ("--lr", "1e308", "--omega2", "0", "--batch-size", "64")
    with np.errstate(over="ignore", invalid="ignore"):
        rc, ckpt = train_tiny(manifest, tmp_path / "run", extra=extra)
    assert rc == 1
    assert "train: aborted on divergence; last good checkpoint written" in capsys.readouterr().err
    from vdm.checkpoint import load_checkpoint

    for arr in load_checkpoint(ckpt).model_arrays.values():
        assert np.all(np.isfinite(arr))


def test_run_records_written_for_all_commands(tmp_path):
    manifest = simulate_four_mode(tmp_path / "data")
    assert os.path.exists(tmp_path / "data" / "run_record.json")
    rc, ckpt = train_tiny(manifest, tmp_path / "run")
    assert os.path.exists(tmp_path / "run" / "run_record.json")
    main(
        [
            "evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "1",
            "--out", str(tmp_path / "ev"), "--n-forecasts", "3", "--limit", "2",
        ]
    )
    record = json.loads(read(tmp_path / "ev" / "run_record.json"))
    assert record["config"]["n_forecasts"] == 3
    assert record["config"]["seed"] == 1
