"""Argument checks that no other test reaches: each raises a ValueError with
its message before anything is written."""
import numpy as np
import pytest

import vdm.autodiff as ad
from vdm.cli import build_parser
from vdm.data import Dataset, LorenzConfig, generate_four_mode, simulate_lorenz
from vdm.evaluation import one_step_nll
from vdm.inference import select_branch
from vdm.nets import ModelConfig
from vdm.objective import train


def _cli(argv, tmp):
    """Run one CLI command's function, so its error propagates with its type."""
    args = build_parser().parse_args([*argv, "--seed", "0", "--out", str(tmp / "out")])
    return args.func(args)


def _text_file(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


def _mlp3_weights(d_in, d_out):
    shapes = [(d_in, 4), (4,), (4, 4), (4,), (4, d_out), (d_out,)]
    return [ad.Tensor(np.zeros(shape)) for shape in shapes]


ARGUMENT_CHECKS = {
    "select_branch mode": (
        lambda tmp: select_branch(np.zeros((2, 3)), "soft"),
        "select_branch: unknown mode 'soft'"),
    "ModelConfig sampler_mode": (
        lambda tmp: ModelConfig(d_x=2, d_z=2, d_h=4, k=5, sampler_mode="grid"),
        "ModelConfig: unknown sampler_mode 'grid'"),
    "one_step_nll continuation": (
        lambda tmp: one_step_nll(None, np.zeros((2, 3, 2)), 3, None),
        "one_step_nll: no continuation to score"),
    "train empty set": (
        lambda tmp: train(Dataset(np.zeros((0, 4, 2)), 1), ModelConfig(d_x=2, d_z=2, d_h=4, k=5),
                          np.random.default_rng(0)),
        "train: the training set holds no sequences"),
    "Dataset rank": (
        lambda tmp: Dataset(np.zeros((2, 3)), 1),
        "Dataset: expected (N, T, d_x), got (2, 3)"),
    "simulate_lorenz counts": (
        lambda tmp: simulate_lorenz(LorenzConfig(), np.random.default_rng(0), (0, 1, 1),
                                    n_groups=1, group_size=1),
        "simulate_lorenz: counts must be positive"),
    "generate_four_mode counts": (
        lambda tmp: generate_four_mode((0, 1, 1), np.random.default_rng(0)),
        "generate_four_mode: counts must be positive"),
    "gaussian_mlp raw width": (
        lambda tmp: ad.gaussian_mlp([ad.Tensor(np.zeros((2, 3)))], _mlp3_weights(3, 6), 2, 5.0),
        "gaussian_mlp: expected 4 raw outputs, got 6"),
    "gaussian_mlp rank": (
        lambda tmp: ad.gaussian_mlp([ad.Tensor(np.zeros(3))], _mlp3_weights(3, 4), 2, 5.0),
        "gaussian_mlp: expected (B, d) inputs, got shapes [(3,)]"),
    "gru_cell rank": (
        lambda tmp: ad.gru_cell(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((1, 4))),
                                *[ad.Tensor(np.zeros(shape)) for shape in [(7, 4), (4,)] * 3]),
        "gru_cell: expected (B, d) inputs, got (3,) and (1, 4)"),
    "cli config file": (
        lambda tmp: _cli(["train", "--config", _text_file(tmp, "cfg.json", "[1]")], tmp),
        "{tmp}/cfg.json: config file must hold a key/value object"),
    "cli manifest": (
        lambda tmp: _cli(["train", "--data", _text_file(tmp, "manifest.json", "[]")], tmp),
        "{tmp}/manifest.json: manifest must hold a key/value object"),
    "cli evaluate inputs": (
        lambda tmp: _cli(["evaluate"], tmp),
        "evaluate: --data and --checkpoint are required"),
    "cli train data": (
        lambda tmp: _cli(["train"], tmp),
        "train: --data <manifest> is required"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_CHECKS))
def test_argument_checks_raise_value_errors(case, tmp_path):
    call, message = ARGUMENT_CHECKS[case]
    with pytest.raises(ValueError) as err:
        call(tmp_path)
    assert type(err.value) is ValueError
    assert str(err.value) == message.format(tmp=tmp_path)
    assert not (tmp_path / "out").exists()
