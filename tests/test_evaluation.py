"""Metrics: frozen NLL values, assignment solver vs factorial enumeration,
grouped W-distance protocol."""
import ast
import itertools
import math

import numpy as np
import pytest

from vdm import evaluation, inference
from vdm.data import Dataset, generate_four_mode
from vdm.evaluation import (
    FORECAST_ROWS,
    _chunk_plan,
    dataset_multi_step_nll,
    multi_step_nll,
    one_step_nll,
    w_distance_protocol,
    wasserstein,
)
from vdm.nets import ModelConfig, VdmModel

from helpers import (
    four_mode_law,
    fresh_python,
    multi_step_nll_limit,
    sample_four_mode_law,
    traced_peak,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def brute_force_wasserstein(p, q):
    """Factorial enumeration over all matchings; oracle for n <= 6."""
    n = len(p)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.linalg.norm(p[i] - q[perm[i]]) for i in range(n)])
        best = min(best, cost)
    return best


# ---------------------------------------------------------------------------
# sample NLL
# ---------------------------------------------------------------------------

def one_nll(truth, forecasts, reduction="mean"):
    """The NLL of one (horizon, d_x) truth against its (n, horizon, d_x) forecasts."""
    (value,) = multi_step_nll(truth[None], forecasts[None], reduction)
    return value


def per_trajectory_nll(truth, forecasts, reduction):
    """multi_step_nll for one trajectory, as it was computed one trajectory at
    a time; the reference for the batched form."""
    diff = forecasts - truth[None]
    sq = diff * diff
    err = sq.mean(axis=(1, 2)) if reduction == "mean" else sq.sum(axis=(1, 2))
    m = (-err / 2.0).max()
    lse = m + np.log(np.exp(-err / 2.0 - m).sum())
    return 0.5 * np.log(2.0 * np.pi) + np.log(err.shape[0]) - lse


def test_perfect_single_forecast_value():
    truth = np.array([[0.4, -0.2], [1.0, 0.0]])
    np.testing.assert_allclose(one_nll(truth, truth[None]), HALF_LOG_2PI, rtol=1e-12)


def test_duplicating_forecasts_leaves_value_unchanged():
    rng = np.random.default_rng(0)
    truth = rng.normal(size=(5, 2))
    fc = rng.normal(size=(7, 5, 2))
    a = one_nll(truth, fc)
    b = one_nll(truth, np.concatenate([fc, fc]))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_two_forecast_hand_value():
    """n=2 with squared errors {0, 8} on one step of one dim:
    -log(0.5 * (2 pi)^{-1/2} * (1 + e^{-4})) = 1.5939357858..."""
    truth = np.zeros((1, 1))
    fc = np.array([[[0.0]], [[np.sqrt(8.0)]]])
    got = one_nll(truth, fc)
    want = -np.log(0.5 / np.sqrt(2 * np.pi) * (1.0 + np.exp(-4.0)))
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(got, 1.5939358, atol=5e-8)


def test_reductions_agree_on_single_cell():
    truth = np.zeros((1, 1))
    fc = np.array([[[1.3]]])
    a = one_nll(truth, fc, reduction="mean")
    b = one_nll(truth, fc, reduction="sum")
    np.testing.assert_allclose(a, b, rtol=1e-15)


def test_forecast_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="match"):
        multi_step_nll(np.zeros((1, 4, 2)), np.zeros((1, 3, 5, 2)))
    with pytest.raises(ValueError, match="match"):
        multi_step_nll(np.zeros((2, 4, 2)), np.zeros((3, 5, 4, 2)))
    with pytest.raises(ValueError, match="match"):
        multi_step_nll(np.zeros((4, 2)), np.zeros((5, 4, 2)))


def test_nll_leaves_its_forecasts_unchanged():
    """The chunk scorer squares its errors in place of its own forecasts; the
    public function gives the same values and leaves the caller's array be."""
    rng = np.random.default_rng(4)
    truths = rng.normal(size=(3, 4, 2))
    fc = rng.normal(size=(3, 5, 4, 2))
    kept = fc.copy()
    got = multi_step_nll(truths, fc)
    np.testing.assert_array_equal(fc, kept)
    np.testing.assert_array_equal(
        evaluation._multi_step_nll(truths, fc, "mean"), got)
    assert not np.array_equal(fc, kept)


def test_nll_rejects_an_empty_forecast_axis():
    """numpy used to fail on the empty maximum, without naming the scorer."""
    with pytest.raises(ValueError, match=r"^multi_step_nll: no forecasts to score$"):
        multi_step_nll(np.zeros((2, 4, 2)), np.zeros((2, 0, 4, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["truths", "forecasts"])
def test_nll_rejects_non_finite_inputs(where, value):
    """An all-NaN forecast used to give nan for every truth."""
    arrays = {"truths": np.zeros((3, 4, 2)), "forecasts": np.zeros((3, 5, 4, 2))}
    if where == "forecasts":
        arrays[where][...] = value
    else:
        arrays[where][1, 2, 0] = value
    with pytest.raises(ValueError, match=r"^multi_step_nll: non-finite truths or forecasts$"):
        multi_step_nll(arrays["truths"], arrays["forecasts"])


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    truth = rng.normal(size=(4, 3))
    fc = rng.normal(size=(9, 4, 3))
    a = one_nll(truth, fc)
    b = one_nll(truth, fc[rng.permutation(9)])
    np.testing.assert_allclose(a, b, rtol=1e-12)


@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_nll_of_exact_draws_meets_its_closed_form_limit(reduction):
    """The estimator oracle: on n = 1,000 draws per truth from the exact
    four-mode law, ``multi_step_nll`` minus its first-order bias, half the
    kernel's relative variance over n, lies within four Monte Carlo standard
    errors of the n -> infinity limit: per truth, and for the mean over the
    200 truths that a dataset score reports.  Limit and variance are closed
    form (``helpers.multi_step_nll_limit``)."""
    n = 1000
    _, _, test = generate_four_mode((1, 0, 200), np.random.default_rng(5))
    x0, truths = test.data[:, 0], test.data[:, 1:]
    forecasts = sample_four_mode_law(x0, truths.shape[1], n, np.random.default_rng(7))
    limit, rel_var = multi_step_nll_limit(truths, *four_mode_law(x0, truths.shape[1]), reduction)
    error = multi_step_nll(truths, forecasts, reduction) - rel_var / (2 * n) - limit
    assert np.all(np.abs(error) <= 4.0 * np.sqrt(rel_var / n))
    assert abs(error.mean()) <= 4.0 * np.sqrt(rel_var.sum() / n) / len(truths)


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("n_traj,n,horizon,d_x", [(1, 1, 1, 1), (3, 7, 5, 2),
                                                  (10, 100, 90, 3), (4, 1000, 3, 2)])
def test_batched_nll_bit_identical_to_per_trajectory(n_traj, n, horizon, d_x, reduction):
    rng = np.random.default_rng(n_traj + n)
    truths = rng.normal(size=(n_traj, horizon, d_x))
    fc = truths[:, None] + rng.normal(scale=2.0, size=(n_traj, n, horizon, d_x))
    want = [per_trajectory_nll(t, f, reduction) for t, f in zip(truths, fc)]
    np.testing.assert_array_equal(multi_step_nll(truths, fc, reduction), want)


@pytest.mark.parametrize("n_traj,n_forecasts", [(0, 5), (1, 1), (7, 200), (32, 200),
                                                (5, 1024), (3, 1500), (10, 100), (2049, 1)])
def test_chunk_plan_covers_each_trajectory_once_in_order(n_traj, n_forecasts):
    plan = _chunk_plan(n_traj, n_forecasts, np.random.default_rng(3))
    rows = [list(range(n_traj))[part] for part, _ in plan]
    assert [i for part in rows for i in part] == list(range(n_traj))
    size = max(1, FORECAST_ROWS // n_forecasts)
    assert [len(part) for part in rows[:-1]] == [size] * (len(rows) - 1)
    assert all(0 < len(part) * n_forecasts <= max(FORECAST_ROWS, n_forecasts) for part in rows)
    # one child stream per chunk, the same as spawning them from the seed
    children = np.random.default_rng(3).spawn(len(plan))
    assert len(plan) == len(children)
    for (_, got), want in zip(plan, children):
        assert got.integers(2**62, size=4).tolist() == want.integers(2**62, size=4).tolist()


def test_multi_step_nll_rejects_an_empty_dataset():
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    with pytest.raises(ValueError, match="dataset_multi_step_nll: no trajectories to score"):
        dataset_multi_step_nll(model, np.zeros((0, 6, 2)), 2, 5, np.random.default_rng(1))


@pytest.mark.parametrize("prefix_len", [0, -3])
def test_multi_step_nll_rejects_a_prefix_below_one(prefix_len):
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(3, 6, 2))
    with pytest.raises(ValueError, match="dataset_multi_step_nll: prefix_len"):
        dataset_multi_step_nll(model, data, prefix_len, 5, np.random.default_rng(2))


@pytest.mark.parametrize("prefix_len", [-3, 0, 9])
def test_forecast_dataset_rejects_a_prefix_outside_the_sequence(prefix_len):
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(3, 6, 2))
    with pytest.raises(ValueError, match=r"^forecast_dataset: prefix_len"):
        evaluation.forecast_dataset(model, data, prefix_len, 2, 4, np.random.default_rng(2))


@pytest.mark.parametrize("n_forecasts", [0, -1])
def test_forecasting_rejects_fewer_than_one_forecast(n_forecasts):
    """Without the checks, 0 divided by zero in the chunk plan and
    ``forecast_dataset`` returned an empty (N, 0, H, d_x) array."""
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(3, 6, 2))
    with pytest.raises(ValueError, match=r"^dataset_multi_step_nll: n_forecasts must be >= 1"):
        dataset_multi_step_nll(model, data, 2, n_forecasts, np.random.default_rng(2))
    with pytest.raises(ValueError, match=r"^forecast_dataset: n_forecasts must be >= 1"):
        evaluation.forecast_dataset(model, data, 2, n_forecasts, 4, np.random.default_rng(2))


def test_unknown_reduction_rejected_before_forecasting(monkeypatch):
    """``dataset_multi_step_nll`` checks ``reduction`` with its other
    arguments, before it filters and forecasts a chunk."""
    def forecast_dataset(*args):
        raise AssertionError("forecast before the reduction was checked")

    monkeypatch.setattr(evaluation, "forecast_dataset", forecast_dataset)
    data = np.random.default_rng(1).normal(size=(3, 6, 2))
    with pytest.raises(ValueError, match=r"^dataset_multi_step_nll: unknown reduction 'median'$"):
        dataset_multi_step_nll(None, data, 2, 5, np.random.default_rng(2), reduction="median")
    with pytest.raises(ValueError, match=r"^multi_step_nll: unknown reduction 'median'$"):
        multi_step_nll(data[:, 2:], np.zeros((3, 5, 4, 2)), reduction="median")


@pytest.mark.parametrize("cell", [(0, 3, 0), (2, 5, 1)])
def test_scoring_rejects_a_non_finite_continuation(cell):
    """A NaN in the scored continuation, which the multi-step NLL never
    filters and the one-step NLL filters up to its last step, raises instead
    of returning nan."""
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(3, 6, 2))
    data[cell] = np.nan
    with pytest.raises(ValueError, match="^dataset_multi_step_nll: non-finite observation"):
        dataset_multi_step_nll(model, data, 2, 5, np.random.default_rng(2))
    scorer = "one_step_predictive" if cell[1] == 5 else "belief_step"
    with pytest.raises(ValueError, match=f"^{scorer}: non-finite observation"):
        one_step_nll(model, data, 2, np.random.default_rng(2))


def test_multi_step_nll_peak_memory_flat_in_trajectory_count():
    """Each chunk of about FORECAST_ROWS rows is scored and dropped before the
    next, so the allocation peak at N = 128 stays within 10% of N = 32 (with
    the whole batch tiled at once it grew fourfold)."""
    cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(cfg, np.random.default_rng(0))
    peaks = []
    for n_traj in (32, 128):
        data = np.random.default_rng(1).normal(size=(n_traj, 100, 3))
        with traced_peak() as peak:
            nll = dataset_multi_step_nll(model, data, 10, 200, np.random.default_rng(2))
        assert math.isfinite(nll)
        peaks.append(peak.bytes)
    assert peaks[1] <= 1.1 * peaks[0], peaks


# ---------------------------------------------------------------------------
# one-step NLL
# ---------------------------------------------------------------------------

def test_one_step_nll_calibrated_unit_gaussian():
    """Zero-weight nets give a N(0, I) predictive; truth at the mean scores
    the textbook value per dimension."""
    cfg = ModelConfig(d_x=1, d_z=2, d_h=4, k=5)
    model = VdmModel.initialize(cfg, np.random.default_rng(0))
    for store in (model.params, model.disc):
        for t in store.values():
            t.value[...] = 0.0
    ds = Dataset(np.zeros((3, 4, 1)), prefix_len=1)
    got = one_step_nll(model, ds.data, ds.prefix_len, np.random.default_rng(1))
    np.testing.assert_allclose(got, HALF_LOG_2PI, rtol=1e-12)


def test_one_step_nll_k1_gaussian_predictive():
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=1, sampler_mode="monte_carlo")
    model = VdmModel.initialize(cfg, np.random.default_rng(2))
    ds = Dataset(np.random.default_rng(3).normal(size=(4, 5, 2)), prefix_len=2)
    val = one_step_nll(model, ds.data, ds.prefix_len, np.random.default_rng(4))
    assert math.isfinite(val)


def test_one_step_nll_deterministic():
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5)
    model = VdmModel.initialize(cfg, np.random.default_rng(5))
    ds = Dataset(np.random.default_rng(6).normal(size=(3, 6, 2)), prefix_len=2)
    a = one_step_nll(model, ds.data, ds.prefix_len, np.random.default_rng(7))
    b = one_step_nll(model, ds.data, ds.prefix_len, np.random.default_rng(7))
    assert a == b


def test_one_step_nll_skips_the_unread_last_filtering_step(monkeypatch):
    """At T = 12 and prefix_len 10 the beliefs after observations 10 and 11
    predict the two scored steps.  The belief after the last observation is
    never read, so its filtering step is not run: 10 belief steps, not 11,
    and the score of filtering all 12 observations."""
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5)
    model = VdmModel.initialize(cfg, np.random.default_rng(5))
    data = np.random.default_rng(6).normal(size=(3, 12, 2))
    calls = []
    real_step = inference.belief_step

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(inference, "belief_step", counted)
        got = one_step_nll(model, data, 10, np.random.default_rng(7))
    assert len(calls) == 10
    rng = np.random.default_rng(7)
    beliefs = [inference.belief_init(model, data[:, 0])]
    for t in range(1, 12):
        beliefs.append(inference.belief_step(model, beliefs[-1], data[:, t], rng)[0])
    want = np.mean(
        [
            -inference.one_step_predictive(model, beliefs[t - 1], data[:, t])
            for t in (10, 11)
        ]
    )
    assert got == float(want)


def test_one_step_nll_peak_memory_flat_in_sequence_length():
    """Each step is scored as the filter reaches it and no belief is kept
    after, so the allocation peak at T = 120 stays within 10% of T = 30
    (keeping every step's belief it grew about twofold)."""
    cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(cfg, np.random.default_rng(0))
    peaks = []
    for t_len in (30, 120):
        data = np.random.default_rng(1).normal(size=(64, t_len, 3))
        with traced_peak() as peak:
            nll = one_step_nll(model, data, 10, np.random.default_rng(2))
        assert math.isfinite(nll)
        peaks.append(peak.bytes)
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("prefix_len", [0, -3])
def test_one_step_nll_rejects_a_prefix_below_one(prefix_len):
    """Step 0 has no belief before it; without the check, step 0 was scored
    from the belief after the last observation."""
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(5))
    data = np.random.default_rng(6).normal(size=(3, 6, 2))
    with pytest.raises(ValueError, match="one_step_nll: prefix_len"):
        one_step_nll(model, data, prefix_len, np.random.default_rng(7))


def test_one_step_nll_rejects_an_empty_dataset():
    """It returned nan with a numpy RuntimeWarning."""
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(5))
    with pytest.raises(ValueError, match="one_step_nll: no trajectories to score"):
        one_step_nll(model, np.zeros((0, 6, 2)), 2, np.random.default_rng(7))


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------

def test_identical_sets_zero():
    p = np.random.default_rng(2).normal(size=(8, 3))
    assert wasserstein(p, p.copy()) == 0.0


def test_one_dimensional_hand_instance():
    p = np.array([[0.0], [1.0]])
    q = np.array([[0.0], [3.0]])
    np.testing.assert_allclose(wasserstein(p, q), 1.0, rtol=1e-15)


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        p = rng.normal(size=(n, d))
        q = rng.normal(size=(n, d))
        got = wasserstein(p, q)
        want = brute_force_wasserstein(p, q)
        assert abs(got - want) < 1e-9


def test_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.normal(size=(6, 2))
        q = rng.normal(size=(6, 2))
        assert abs(wasserstein(p, q) - wasserstein(q, p)) < 1e-12


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        p, q, r = (rng.normal(size=(n, 3)) for _ in range(3))
        assert wasserstein(p, r) <= wasserstein(p, q) + wasserstein(q, r) + 1e-9


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="matching"):
        wasserstein(np.zeros((3, 2)), np.zeros((4, 2)))


def test_empty_sets_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        wasserstein(np.zeros((0, 2)), np.zeros((0, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["p", "q"])
def test_non_finite_sets_rejected(side, value):
    sets = {"p": np.zeros((3, 2)), "q": np.ones((3, 2))}
    sets[side][1, 0] = value
    with pytest.raises(ValueError, match="^wasserstein: .*finite"):
        wasserstein(sets["p"], sets["q"])


def test_assignment_matches_scipy_on_tie_heavy_integer_costs():
    """Costs in {0, 1, 2, 3} tie often, so the optimum is rarely unique: each
    solution is a permutation whose total is scipy's optimal total."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(21)
    for n in range(1, 9):
        cost = rng.integers(0, 4, size=(800, n, n)).astype(np.float64)
        for c, col in zip(cost, evaluation._assign(cost)):
            assert sorted(col) == list(range(n))
            rows, cols = linear_sum_assignment(c)
            assert c[np.arange(n), col].sum() == c[rows, cols].sum()


def test_w_distance_shaped_sets_match_scipy():
    """100 forecasts against 100 truths of 270 values each, the shape of a
    Lorenz group's sets: scipy's assignment on scipy's cost matrix, and the
    distance within 1e-12 of scipy's."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(22)
    for _ in range(3):
        truths = rng.normal(size=(100, 270)) * 8.0
        forecasts = truths[rng.permutation(100)] + rng.normal(size=(100, 270)) * 6.0
        cost = cdist(forecasts, truths)
        rows, cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(evaluation._assign(cost[None])[0], cols)
        want = cost[rows, cols].mean()
        assert abs(wasserstein(forecasts, truths) - want) <= 1e-12 * want


def test_a_problem_solved_alone_or_in_a_batch_gives_the_same_bytes():
    rng = np.random.default_rng(23)
    cost = rng.random((40, 30, 30))
    cost[::3] = np.round(3.0 * cost[::3])  # tie-heavy problems among the others
    batch_cols = evaluation._assign(cost)
    batch_means = evaluation._mean_matched_costs(cost, "test")
    for b in range(len(cost)):
        assert evaluation._assign(cost[b:b + 1]).tobytes() == batch_cols[b].tobytes()
        alone = evaluation._mean_matched_costs(cost[b:b + 1], "test")
        assert alone.tobytes() == batch_means[b:b + 1].tobytes()


def row_wise_costs(sets, truths):
    """out[b, i, k] = ||sets[b, i] - truths[k]|| from the differences, one row
    at a time: the reference for the expansion and its guard."""
    out = np.empty(sets.shape[:2] + (len(truths),))
    for b, i in np.ndindex(*sets.shape[:2]):
        diff = truths - sets[b, i]
        out[b, i] = np.einsum("kd,kd->k", diff, diff)
    return np.sqrt(out)


def costs(sets, truths):
    return evaluation._distances(sets, truths, np.empty(sets.shape[:2] + (len(truths),)))


def test_identical_points_cost_exactly_zero():
    """Far from the origin, |p|^2 + |q|^2 - 2 p.q alone leaves a rounding
    residue; the guard recomputes those entries, so the diagonal is 0."""
    p = 1e3 + np.random.default_rng(24).normal(size=(30, 270))
    sets = np.stack([p, p[::-1]])
    cost = costs(sets, p)
    assert (np.diagonal(cost[0]) == 0.0).all()
    assert (np.diagonal(cost[1][::-1]) == 0.0).all()
    np.testing.assert_allclose(cost, row_wise_costs(sets, p), rtol=1e-12)


def test_near_coincident_points_take_the_row_wise_path():
    rng = np.random.default_rng(25)
    p = 50.0 + rng.normal(size=(20, 270))
    q = p + 1e-6 * rng.normal(size=p.shape)
    plain = np.sqrt(np.maximum(
        (p * p).sum(1)[:, None] + (q * q).sum(1) - 2.0 * p @ q.T, 0.0))
    want = row_wise_costs(p[None], q)[0]
    assert np.max(np.abs(np.diagonal(plain) - np.diagonal(want)) / np.diagonal(want)) > 1e-3
    got = costs(p[None], q)[0]
    assert np.diagonal(got).tobytes() == np.diagonal(want).tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_costs_either_side_of_the_guard_match_row_wise():
    """Pairs whose d^2 / (|p|^2 + |q|^2) runs from tau / 10^4 to 10 tau, with
    tau = 2e12 (D + 3) 2^-53 as the guard states, score within 1e-12 of the
    row-wise costs on both sides."""
    rng = np.random.default_rng(26)
    d = 270
    tau = 2e12 * (d + 3) * 2.0**-53
    ratio = tau * np.logspace(-4.0, 1.0, 31)
    p = 5.0 * rng.normal(size=(31, d))
    step = rng.normal(size=p.shape)
    step -= ((step * p).sum(1) / (p * p).sum(1))[:, None] * p  # orthogonal to p
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    # |q|^2 = |p|^2 + t^2, so d^2 / (|p|^2 + |q|^2) = t^2 / (2 |p|^2 + t^2)
    q = p + np.sqrt(2.0 * ratio * (p * p).sum(1) / (1.0 - ratio))[:, None] * step
    made = ((q - p) ** 2).sum(1) / ((p * p).sum(1) + (q * q).sum(1))
    assert made.min() < tau < made.max()
    np.testing.assert_allclose(costs(p[None], q), row_wise_costs(p[None], q), rtol=1e-12)


def test_w_shaped_costs_match_row_wise():
    """Ten sets of 100 forecasts against 100 truths of 270 values, the shape
    of a Lorenz group's sets."""
    rng = np.random.default_rng(27)
    truths = rng.normal(size=(100, 270)) * 8.0
    sets = truths[rng.permutation(100)] + rng.normal(size=(10, 100, 270)) * 6.0
    np.testing.assert_allclose(costs(sets, truths), row_wise_costs(sets, truths), rtol=1e-12)


def test_the_solve_holds_no_temporary_the_size_of_its_costs():
    """The cost batch is the only array of its size: the column reduction and
    the finiteness check make no (B, n, n) copy."""
    cost = np.random.default_rng(28).random((100, 100, 100))
    evaluation._mean_matched_costs(cost, "test")  # first-call allocations stay out
    with traced_peak() as peak:
        evaluation._mean_matched_costs(cost, "test")
    assert peak.bytes <= 0.25 * cost.nbytes, peak.bytes / cost.nbytes


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_cost_is_rejected(value):
    cost = np.random.default_rng(29).random((3, 4, 4))
    cost[1, 2, 3] = value
    with pytest.raises(ValueError, match="^test: non-finite distance"):
        evaluation._mean_matched_costs(cost, "test")


# ---------------------------------------------------------------------------
# grouped protocol
# ---------------------------------------------------------------------------

def _toy_groups(rng, n_groups=3, n=6, t_len=5, d_x=2, prefix_len=2):
    return [
        Dataset(rng.normal(size=(n, t_len, d_x)), prefix_len=prefix_len)
        for _ in range(n_groups)
    ]


def test_replay_oracle_scores_zero(monkeypatch):
    rng = np.random.default_rng(8)
    groups = _toy_groups(rng)

    def replay(model, data, prefix_len, n_forecasts, horizon, grp_rng):
        truth = data[:, prefix_len:]
        return np.repeat(truth[:, None], n_forecasts, axis=1)

    monkeypatch.setattr(evaluation, "forecast_dataset", replay)
    mean, stderr = w_distance_protocol(None, groups, np.random.default_rng(9))
    assert mean == 0.0
    assert stderr == 0.0


def test_constant_model_matches_direct_evaluation(monkeypatch):
    """Constant forecasts score exactly the mean distance to the truths."""
    rng = np.random.default_rng(10)
    groups = _toy_groups(rng, n_groups=2)
    const = np.full(groups[0].data[:, 2:].shape[1:], 0.7)

    def constant(model, data, prefix_len, n_forecasts, horizon, grp_rng):
        n = data.shape[0]
        return np.broadcast_to(const, (n, n_forecasts) + const.shape).copy()

    monkeypatch.setattr(evaluation, "forecast_dataset", constant)
    mean, _ = w_distance_protocol(None, groups, np.random.default_rng(11))
    flat_const = const.reshape(-1)
    want = np.mean(
        [
            np.linalg.norm(g.data[:, 2:].reshape(len(g), -1) - flat_const, axis=1).mean()
            for g in groups
        ]
    )
    np.testing.assert_allclose(mean, want, rtol=1e-12)
    assert mean > 0.0


def test_protocol_with_real_model_deterministic():
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5)
    model = VdmModel.initialize(cfg, np.random.default_rng(12))
    groups = _toy_groups(np.random.default_rng(13), n_groups=2, n=4)
    a = w_distance_protocol(model, groups, np.random.default_rng(14), forecasts_per_truth=3)
    b = w_distance_protocol(model, groups, np.random.default_rng(14), forecasts_per_truth=3)
    assert a == b
    assert a[0] > 0.0


def test_protocol_groups_of_different_sizes_score_as_single_pairs(monkeypatch):
    """Unequal groups are solved in separate batches; each set scores what
    ``wasserstein`` gives it alone, bit for bit."""
    rng = np.random.default_rng(15)
    groups = [Dataset(rng.normal(size=(n, 5, 2)), prefix_len=2) for n in (4, 6, 6, 3)]

    def shifted(model, data, prefix_len, n_forecasts, horizon, grp_rng):
        truth = data[:, prefix_len:]
        return np.stack([truth[::-1] + 0.1 * j for j in range(n_forecasts)], axis=1)

    monkeypatch.setattr(evaluation, "forecast_dataset", shifted)
    mean, _ = w_distance_protocol(None, groups, np.random.default_rng(16), 2)
    per_group = []
    for g in groups:
        fc, truths = shifted(None, g.data, 2, 2, 3, None), g.data[:, 2:].reshape(len(g), -1)
        per_group.append(np.mean([wasserstein(fc[:, j].reshape(len(g), -1), truths)
                                  for j in range(2)]))
    assert mean == float(np.mean(per_group))


def test_protocol_slabs_leave_the_score_unchanged(monkeypatch):
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(12))
    groups = _toy_groups(np.random.default_rng(13), n_groups=5, n=4)
    whole = w_distance_protocol(model, groups, np.random.default_rng(14), 3)
    monkeypatch.setattr(evaluation, "SOLVE_ENTRIES", 2 * 3 * 4 * 4)  # two groups a slab
    assert w_distance_protocol(model, groups, np.random.default_rng(14), 3) == whole


def test_protocol_solves_the_lorenz_shape_as_five_batches_of_20(monkeypatch):
    """At the Lorenz protocol's shape (10 groups of 100 truths, 10 forecasts
    per truth) the solve sees five batches of 20 problems, the protocol's
    allocation peak stays under 4 MiB (7.6 MiB with batches of 50), and the
    score is the one a single batch of 100 gives, bit for bit.  The cost
    shape does not depend on the model or the horizon, so both are tiny."""
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(12))
    groups = _toy_groups(np.random.default_rng(13), n_groups=10, n=100, t_len=3)
    batches, assign = [], evaluation._assign

    def record(cost):
        batches.append(cost.shape)
        return assign(cost)

    monkeypatch.setattr(evaluation, "_assign", record)
    with traced_peak() as peak:
        fifth = w_distance_protocol(model, groups, np.random.default_rng(14), 10)
    assert batches == [(20, 100, 100)] * 5
    assert peak.bytes < 4 * 2**20, peak.bytes
    monkeypatch.setattr(evaluation, "SOLVE_ENTRIES", 1 << 20)
    assert w_distance_protocol(model, groups, np.random.default_rng(14), 10) == fifth
    assert batches[5:] == [(100, 100, 100)]


def test_protocol_group_streams_are_spawned_in_group_order(monkeypatch):
    """Group i forecasts from the i-th child of ``rng``, however the groups
    fall into slabs."""
    groups = _toy_groups(np.random.default_rng(13), n_groups=5, n=4)
    seen = []

    def record(model, data, prefix_len, n_forecasts, horizon, grp_rng):
        seen.append(grp_rng.integers(2**62))
        return np.zeros((len(data), n_forecasts, horizon, data.shape[2]))

    monkeypatch.setattr(evaluation, "forecast_dataset", record)
    monkeypatch.setattr(evaluation, "SOLVE_ENTRIES", 2 * 3 * 4 * 4)  # two groups a slab
    w_distance_protocol(None, groups, np.random.default_rng(14), 3)
    assert seen == [child.integers(2**62) for child in np.random.default_rng(14).spawn(5)]


def test_protocol_peak_memory_flat_in_group_count(monkeypatch):
    """Groups are forecast and solved a slab at a time, so the allocation
    peak at 16 groups stays within 10% of 4 groups.  An untraced warm-up
    larger than either run first fills the interpreter's free lists, whose
    parked objects tracemalloc would otherwise count in the larger run only,
    so the result does not depend on what ran before."""
    monkeypatch.setattr(evaluation, "SOLVE_ENTRIES", 2 * 5 * 40 * 40)  # two groups a slab
    model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(0))
    warm_up = _toy_groups(np.random.default_rng(3), n_groups=32, n=40, t_len=12)
    w_distance_protocol(model, warm_up, np.random.default_rng(4), 5)
    peaks = []
    for n_groups in (4, 16):
        groups = _toy_groups(np.random.default_rng(1), n_groups=n_groups, n=40, t_len=12)
        with traced_peak() as peak:
            mean, _ = w_distance_protocol(model, groups, np.random.default_rng(2), 5)
        assert math.isfinite(mean)
        peaks.append(peak.bytes)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_protocol_rejects_a_non_finite_distance(monkeypatch):
    def diverged(model, data, prefix_len, n_forecasts, horizon, grp_rng):
        return np.full((len(data), n_forecasts, horizon, data.shape[2]), np.inf)

    monkeypatch.setattr(evaluation, "forecast_dataset", diverged)
    with pytest.raises(ValueError, match="^w_distance_protocol: non-finite"):
        w_distance_protocol(None, _toy_groups(np.random.default_rng(17)), np.random.default_rng(0))


def test_protocol_rejects_an_empty_group():
    groups = _toy_groups(np.random.default_rng(18)) + [Dataset(np.zeros((0, 5, 2)), 2)]
    with pytest.raises(ValueError, match="no trajectories"):
        w_distance_protocol(None, groups, np.random.default_rng(0))


def test_protocol_rejects_a_group_without_a_continuation(monkeypatch):
    """A group whose prefix fills its sequences is rejected by the protocol
    before any forecast; the error used to come from ``generate``."""
    def forecast_dataset(*args):
        raise AssertionError("forecast before the groups were checked")

    monkeypatch.setattr(evaluation, "forecast_dataset", forecast_dataset)
    groups = _toy_groups(np.random.default_rng(19)) + [Dataset(np.zeros((6, 5, 2)), 5)]
    with pytest.raises(ValueError, match="^w_distance_protocol: a group has no continuation"):
        w_distance_protocol(None, groups, np.random.default_rng(0))


def test_protocol_rejects_no_groups():
    with pytest.raises(ValueError, match="no groups"):
        w_distance_protocol(None, [], np.random.default_rng(0))


@pytest.mark.parametrize("forecasts_per_truth", [0, -1])
def test_protocol_rejects_fewer_than_one_forecast(forecasts_per_truth):
    groups = _toy_groups(np.random.default_rng(13), n_groups=2, n=4)
    with pytest.raises(ValueError, match="forecasts_per_truth"):
        w_distance_protocol(None, groups, np.random.default_rng(0), forecasts_per_truth)


FIRST_SCORE_ON_TWO_THREADS = r"""
import os
import sys

import numpy as np

from vdm.data import Dataset
from vdm.evaluation import w_distance_protocol
from vdm.nets import ModelConfig, VdmModel

sys.setswitchinterval(1e-6)  # switch threads often while both workers forecast
model = VdmModel.initialize(ModelConfig(d_x=2, d_z=2, d_h=4, k=5), np.random.default_rng(12))
rng = np.random.default_rng(13)
groups = [Dataset(rng.normal(size=(6, 5, 2)), prefix_len=2) for _ in range(4)]
scores = []
for threads in ("2", "1"):
    os.environ["VDM_THREADS"] = threads
    scores.append(w_distance_protocol(model, groups, np.random.default_rng(14), 3))
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(repr(scores))
"""


def test_first_scoring_on_two_threads_matches_one_thread():
    """At VDM_THREADS=2 two workers forecast groups and fill their cost
    matrices at once in a fresh process; the scores still equal the
    one-thread run's."""
    proc = fresh_python(FIRST_SCORE_ON_TWO_THREADS)
    assert proc.returncode == 0, proc.stderr
    two, one = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert two == one
    assert two[0] > 0.0 and two[1] > 0.0
