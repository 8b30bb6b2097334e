"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

The two training criteria run small but real experiments (a few minutes
combined); everything else is sub-second numerics.  Values measured in
normalized (training-statistics) units where a checkpoint is involved.
"""
import functools
import itertools
import time

import numpy as np
import pytest

from vdm.autodiff import Tape, Tensor, backward
from vdm.cli import main as cli_main
from vdm.data import (
    LORENZ_BETA,
    LORENZ_DT,
    LORENZ_RHO,
    LORENZ_SIGMA,
    Dataset,
    LorenzConfig,
    generate_four_mode,
    rk4_step,
    simulate_lorenz,
)
from vdm.evaluation import (
    dataset_multi_step_nll,
    forecast_dataset,
    multi_step_nll,
    one_step_nll,
    w_distance_protocol,
    wasserstein,
)
from vdm.inference import sigma_points
from vdm.nets import ModelConfig, VdmModel
from vdm.objective import total_loss, train

from helpers import (
    add,
    drop_grads,
    entry_grads,
    finite_diff_entries,
    frozen_branch_selection,
    reduce_sum,
    rel_error,
    sample_entries,
    square,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number} PASS - {description} ({time.time() - start:.1f}s)")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. cubature moment matching
# ---------------------------------------------------------------------------

@criterion(1, "cubature moment matching, d in 1..8, kappa=0.5, tol 1e-12")
def test_criterion_1_cubature_moments():
    start = time.time()
    for d in range(1, 9):
        xi, gamma = sigma_points(d, 0.5)
        assert abs(gamma.sum() - 1.0) < 1e-12
        assert np.abs(gamma @ xi).max() < 1e-12
        second = np.einsum("i,ij,ik->jk", gamma, xi, xi)
        assert np.abs(second - np.eye(d)).max() < 1e-12
    assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------

@criterion(2, "gradients match central finite differences (20 seeds, tol 1e-4)")
def test_criterion_2_gradient_suite():
    start = time.time()
    for seed in range(20):
        model = VdmModel.initialize(
            ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(seed)
        )
        rng = np.random.default_rng(1000 + seed)

        # every network, through a combined smooth loss
        x = rng.uniform(-1.5, 1.5, size=(2, 2))
        z = rng.uniform(-1.5, 1.5, size=(2, 2))
        h = rng.uniform(-1.5, 1.5, size=(2, 4))

        def nets_loss():
            enc = model.encode_initial(Tensor(x))
            tra = model.transition_prior(Tensor(h))
            s = model.gru_advance(Tensor(z), Tensor(h))
            em = model.emit(Tensor(z), s)
            inf = model.infer_component(s, Tensor(x))
            disc = model.discriminate(Tensor(h), Tensor(x))
            parts = [enc.mean, enc.std, tra.mean, tra.std, em.mean, em.std,
                     inf.mean, inf.std, disc]
            out = reduce_sum(square(parts[0]))
            for p in parts[1:]:
                out = add(out, reduce_sum(square(p)))
            return out

        drop_grads(model.params, model.disc)
        with Tape() as tape:
            backward(tape, nets_loss())

        def nets_value():
            with Tape.pause():
                return float(nets_loss().value)

        for store in (model.params, model.disc):
            entries = sample_entries(store, 2, rng)
            fd = finite_diff_entries(store, nets_value, entries, eps=1e-6)
            assert rel_error(entry_grads(store, entries), fd) < 1e-4

        # full objective on a T=3 batch, branches and noise frozen
        batch = rng.uniform(-1.5, 1.5, size=(2, 3, 2))
        probe = total_loss(model, batch, np.random.default_rng(seed))
        frozen = probe.step_branches

        def objective_value():
            with Tape.pause():
                bd = total_loss(model, batch, np.random.default_rng(seed))
            return bd.total

        drop_grads(model.params)
        with frozen_branch_selection(frozen):
            with Tape() as tape:
                bd = total_loss(model, batch, np.random.default_rng(seed))
                backward(tape, bd.total_node)
            entries = sample_entries(model.params, 1, rng)
            fd = finite_diff_entries(model.params, objective_value, entries, eps=1e-6)
        assert rel_error(entry_grads(model.params, entries), fd) < 1e-4
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 3. Wasserstein oracle
# ---------------------------------------------------------------------------

@criterion(3, "assignment solver equals brute force; symmetry and triangle hold")
def test_criterion_3_wasserstein_oracle():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        p, q = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        best = min(
            np.mean([np.linalg.norm(p[i] - q[perm[i]]) for i in range(n)])
            for perm in itertools.permutations(range(n))
        )
        assert abs(wasserstein(p, q) - best) < 1e-9
    for _ in range(100):
        n = int(rng.integers(2, 8))
        p, q, r = (rng.normal(size=(n, 3)) for _ in range(3))
        assert abs(wasserstein(p, q) - wasserstein(q, p)) < 1e-12
        assert wasserstein(p, r) <= wasserstein(p, q) + wasserstein(q, r) + 1e-9
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 4. evidence-bound check
# ---------------------------------------------------------------------------

def _quadrature_log_evidence(model, x1, x2, n1=801, n2=801):
    """Independent trapezoid oracle for log p(x2 | x1) on the tiny model,
    with z1 distributed as the initial-observation belief."""
    enc = model.encode_initial(np.array([[x1]]))
    mu1, sd1 = float(enc.mean.value[0, 0]), float(enc.std.value[0, 0])
    z1 = np.linspace(mu1 - 8 * sd1, mu1 + 8 * sd1, n1)
    q1 = np.exp(-0.5 * ((z1 - mu1) / sd1) ** 2) / (sd1 * np.sqrt(2 * np.pi))
    h1 = model.gru_advance(Tensor(z1[:, None]), Tensor(np.zeros((n1, 2)))).value
    prior = model.transition_prior(Tensor(h1))
    mu0, sd0 = prior.mean.value[:, 0], prior.std.value[:, 0]
    t = np.linspace(-8.0, 8.0, n2)
    inner = np.empty(n1)
    for i in range(n1):
        z2 = mu0[i] + sd0[i] * t
        em = model.emit(Tensor(z2[:, None]), Tensor(np.tile(h1[i], (n2, 1))))
        mx, sx = em.mean.value[:, 0], em.std.value[:, 0]
        px = np.exp(-0.5 * ((x2 - mx) / sx) ** 2) / (sx * np.sqrt(2 * np.pi))
        pz = np.exp(-0.5 * ((z2 - mu0[i]) / sd0[i]) ** 2) / (sd0[i] * np.sqrt(2 * np.pi))
        inner[i] = np.trapezoid(px * pz, z2)
    return float(np.log(np.trapezoid(q1 * inner, z1)))


@criterion(4, "per-step bound stays below quadrature log evidence + 3 SE")
def test_criterion_4_evidence_bound():
    start = time.time()
    x1, x2 = 0.4, -0.3
    for sampler, k in (("monte_carlo", 1), ("monte_carlo", 3), ("sca", 3)):
        cfg = ModelConfig(d_x=1, d_z=1, d_h=2, k=k, sampler_mode=sampler)
        model = VdmModel.initialize(cfg, np.random.default_rng(2))
        evidence = _quadrature_log_evidence(model, x1, x2)
        batch = np.array([[[x1], [x2]]])
        vals = np.empty(1000)
        for seed in range(1000):
            vals[seed] = total_loss(model, batch, np.random.default_rng(seed)).elbo
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert vals.mean() <= evidence + 3.0 * se, (sampler, k, vals.mean(), evidence, se)
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 5. four-mode multi-modality and sample-count ordering
# ---------------------------------------------------------------------------

@pytest.mark.slow
@criterion(5, "four-mode: k=9 covers all four headings and beats k=1 NLL")
def test_criterion_5_four_mode_multimodality():
    start = time.time()
    train_ds, val_ds, test_ds = generate_four_mode((5000, 200, 200), np.random.default_rng(1234))
    nlls = {}
    quadrant_masses = None
    for name, cfg in (
        ("k9", ModelConfig(d_x=2, d_z=4, d_h=16, k=9)),
        ("k1", ModelConfig(d_x=2, d_z=4, d_h=16, k=1, sampler_mode="monte_carlo")),
    ):
        result = train(
            train_ds, cfg, np.random.default_rng(0), val_dataset=val_ds,
            epochs=15, batch_size=64, val_forecasts=50,
        )
        ckpt = result.checkpoint
        model = ckpt.build_model()
        scaled_test = ckpt.normalize(test_ds.data)
        nlls[name] = dataset_multi_step_nll(
            model, scaled_test, test_ds.prefix_len, 1000, np.random.default_rng(77)
        )
        if name == "k9":
            fc = forecast_dataset(model, scaled_test[:1], 1, 1000, 3, np.random.default_rng(5))
            final = ckpt.denormalize(fc)[0, :, -1, :]
            quadrant = (final[:, 0] > 0).astype(int) * 2 + (final[:, 1] > 0).astype(int)
            quadrant_masses = np.bincount(quadrant, minlength=4) / 1000.0

    assert quadrant_masses is not None
    assert np.all(quadrant_masses >= 0.05), quadrant_masses
    # ordering assertion only; absolute values depend on generator details
    assert nlls["k9"] < nlls["k1"], nlls
    assert time.time() - start < 15 * 60


# ---------------------------------------------------------------------------
# 6. Lorenz desk-scale smoke
# ---------------------------------------------------------------------------

@pytest.mark.slow
@criterion(6, "Lorenz: training at least halves multi-step NLL and W-distance; one-step NLL < 0")
def test_criterion_6_lorenz_desk_scale():
    start = time.time()
    lorenz_cfg = LorenzConfig(seq_len=30, prefix_len=10)
    sim = simulate_lorenz(
        lorenz_cfg, np.random.default_rng(42), counts=(1000, 100, 50),
        n_groups=5, group_size=40,
    )
    # k=13 variant trained with the bound + predictive regularizer
    model_cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13, omega2=0.0)
    untrained = train(sim.train, model_cfg, np.random.default_rng(7), epochs=0)
    trained = train(
        sim.train, model_cfg, np.random.default_rng(7), val_dataset=sim.val,
        epochs=10, batch_size=32, val_forecasts=30,
    )

    def score(result):
        ckpt = result.checkpoint
        model = ckpt.build_model()
        scaled = ckpt.normalize(sim.test.data)
        # sum reduction: horizon-scaled errors, no small-error floor compression
        nll = dataset_multi_step_nll(
            model, scaled, 10, 100, np.random.default_rng(3), reduction="sum"
        )
        one_step = one_step_nll(model, scaled, 10, np.random.default_rng(4))
        groups = [Dataset(ckpt.normalize(g.data), g.prefix_len) for g in sim.groups]
        w_mean, _ = w_distance_protocol(model, groups, np.random.default_rng(5))
        return nll, one_step, w_mean

    nll_0, one_step_0, w_0 = score(untrained)
    nll_1, one_step_1, w_1 = score(trained)
    # full-scale reference magnitudes (documented, not asserted here): 24.46 / -1.81 / 7.28
    assert nll_1 < 0.5 * nll_0, (nll_1, nll_0)
    assert w_1 < 0.5 * w_0, (w_1, w_0)
    assert one_step_1 < 0.0, one_step_1
    assert time.time() - start < 30 * 60


# ---------------------------------------------------------------------------
# 7. sample-NLL oracle
# ---------------------------------------------------------------------------

@criterion(7, "sample NLL matches direct formula evaluation to 1e-9")
def test_criterion_7_nll_oracle():
    truth = np.array([[0.3, -0.7], [1.0, 0.2], [0.0, 0.0]])
    (perfect,) = multi_step_nll(truth[None], truth[None, None])
    assert abs(perfect - HALF_LOG_2PI) < 1e-9
    assert abs(perfect - 0.918939) < 5e-7

    rng = np.random.default_rng(11)
    for _ in range(20):
        n, horizon, d = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        gt = rng.normal(size=(horizon, d))
        fc = rng.normal(size=(n, horizon, d))
        errs = np.mean((fc - gt) ** 2, axis=(1, 2))
        direct = -np.log(np.mean(np.exp(-errs / 2.0) / np.sqrt(2 * np.pi)))
        (got,) = multi_step_nll(gt[None], fc[None])
        assert abs(got - direct) < 1e-9


# ---------------------------------------------------------------------------
# 8. determinism and persistence
# ---------------------------------------------------------------------------

@criterion(8, "fixed-seed simulate/train/forecast byte-identical; checkpoint bit-exact")
def test_criterion_8_determinism(tmp_path):
    def run_all(tag):
        base = tmp_path / tag
        data = base / "data"
        cli_main(["simulate", "--gen", "four_mode", "--seed", "5", "--out", str(data),
                  "--n-train", "60", "--n-val", "10", "--n-test", "10"])
        run = base / "run"
        cli_main(["train", "--data", str(data / "manifest.json"), "--seed", "3",
                  "--out", str(run), "--d-z", "2", "--d-h", "4", "--k", "5",
                  "--epochs", "1", "--batch-size", "16", "--val-forecasts", "5"])
        fc = base / "fc"
        cli_main(["forecast", "--data", str(data / "manifest.json"), "--checkpoint",
                  str(run / "checkpoint.vdm"), "--seed", "9", "--out", str(fc),
                  "--n", "4", "--limit", "3"])
        return {
            "train.csv": (data / "train.csv").read_bytes(),
            "manifest.json": (data / "manifest.json").read_bytes(),
            "checkpoint.vdm": (run / "checkpoint.vdm").read_bytes(),
            "metrics.csv": (run / "metrics.csv").read_bytes(),
            "forecasts.csv": (fc / "forecasts.csv").read_bytes(),
        }

    a, b = run_all("a"), run_all("b")
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical-seed runs"

    # checkpoint round trip is bit-exact
    from vdm.checkpoint import load_checkpoint, save_checkpoint

    ckpt_path = tmp_path / "a" / "run" / "checkpoint.vdm"
    ckpt = load_checkpoint(ckpt_path)
    again = tmp_path / "roundtrip.vdm"
    save_checkpoint(ckpt, again)
    assert ckpt_path.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# 9. RK4 oracle
# ---------------------------------------------------------------------------

@criterion(9, "RK4 equals independent evaluation to 1e-12; observed order >= 4")
def test_criterion_9_rk4_oracle():
    sigma, rho, beta = LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA

    def oracle(state, dt):
        def field(s):
            x, y, z = s
            return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

        k1 = field(state)
        k2 = field(state + dt * k1 / 2)
        k3 = field(state + dt * k2 / 2)
        k4 = field(state + dt * k3)
        return state + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6

    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform(-20, 20, size=3)
        got = rk4_step(state, LORENZ_DT)
        want = oracle(state, LORENZ_DT)
        assert np.abs(got - want).max() < 1e-12

    # Richardson: defect against two half steps scales as h^(order+1)
    for _ in range(5):
        state = rng.uniform(-15, 15, size=3)

        def defect(h):
            one = rk4_step(state, h)
            two = rk4_step(rk4_step(state, h / 2), h / 2)
            return np.linalg.norm(one - two)

        observed = np.log2(defect(0.02) / defect(0.01)) - 1.0
        assert observed >= 4.0 - 0.25
