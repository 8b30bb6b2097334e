"""Simulators and ingestion: RK4 against an independent oracle, noise
recovery, four-mode geometry, CSV round trips and writer bytes, prefix
grouping."""
import csv
import logging
import tracemalloc
import warnings

import numpy as np
import pytest

from vdm.data import (
    FOUR_MODE_HEADINGS,
    LORENZ_NOISE_CHOL,
    LORENZ_OBS_NOISE_STD,
    Dataset,
    LorenzConfig,
    _parse_rows,
    generate_four_mode,
    group_by_prefix,
    load_csv,
    rk4_step,
    save_csv,
    simulate_lorenz,
    simulate_lorenz_paths,
    write_csv,
)

from helpers import row_reader_csv, row_writer_csv, traced_peak

SIGMA, RHO, BETA = 10.0, 28.0, 8.0 / 3.0


def reference_rk4(state, dt):
    """Independently written RK4: per-component field functions, scalar math."""

    def fx(x, y, z):
        return SIGMA * (y - x)

    def fy(x, y, z):
        return x * (RHO - z) - y

    def fz(x, y, z):
        return x * y - BETA * z

    x, y, z = state
    k1 = (fx(x, y, z), fy(x, y, z), fz(x, y, z))
    s1 = (x + dt / 2 * k1[0], y + dt / 2 * k1[1], z + dt / 2 * k1[2])
    k2 = (fx(*s1), fy(*s1), fz(*s1))
    s2 = (x + dt / 2 * k2[0], y + dt / 2 * k2[1], z + dt / 2 * k2[2])
    k3 = (fx(*s2), fy(*s2), fz(*s2))
    s3 = (x + dt * k3[0], y + dt * k3[1], z + dt * k3[2])
    k4 = (fx(*s3), fy(*s3), fz(*s3))
    return np.array(
        [
            x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            z + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        ]
    )


def test_rk4_origin_fixed_point():
    cfg = LorenzConfig()
    np.testing.assert_array_equal(rk4_step(np.zeros(3), cfg), np.zeros(3))


def test_rk4_matches_independent_oracle():
    cfg = LorenzConfig()
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform(-20, 20, size=3)
        got = rk4_step(state, cfg)
        want = reference_rk4(state, cfg.dt)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_rk4_observed_convergence_order_at_least_four():
    """Richardson: D(h) = step(h) - step(h/2) o step(h/2) scales like h^5."""
    rng = np.random.default_rng(1)
    orders = []
    for _ in range(5):
        state = rng.uniform(-15, 15, size=3)

        def defect(h):
            big = rk4_step(state, LorenzConfig(dt=h))
            half_cfg = LorenzConfig(dt=h / 2)
            halves = rk4_step(rk4_step(state, half_cfg), half_cfg)
            return np.linalg.norm(big - halves)

        d1, d2 = defect(0.02), defect(0.01)
        orders.append(np.log2(d1 / d2))
    # local defect order p+1 for a method of order p
    assert min(orders) >= 5.0 - 0.2
    assert min(orders) - 1.0 >= 4.0 - 0.2


def test_simulation_bit_reproducible():
    cfg = LorenzConfig(seq_len=12)
    a, _ = simulate_lorenz_paths(5, cfg, np.random.default_rng(7))
    b, _ = simulate_lorenz_paths(5, cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_noise_free_simulation_is_rk4_orbit():
    cfg = LorenzConfig(seq_len=20)
    init = np.array([1.0, 1.0, 20.0])
    obs, latents = simulate_lorenz_paths(
        1, cfg, np.random.default_rng(0), init_states=init, process_noise=False, obs_noise=False
    )
    np.testing.assert_array_equal(obs, latents)
    state = init.copy()
    for t in range(1, 20):
        state = rk4_step(state, cfg)
        np.testing.assert_allclose(latents[0, t], state, rtol=1e-12)


def test_default_split_sizes():
    cfg = LorenzConfig(seq_len=5, prefix_len=2)
    sim = simulate_lorenz(cfg, np.random.default_rng(3), n_groups=2, group_size=4)
    assert (len(sim.train), len(sim.val), len(sim.test)) == (5000, 200, 800)
    assert len(sim.groups) == 2
    assert all(len(g) == 4 for g in sim.groups)


def test_groups_share_initial_condition():
    cfg = LorenzConfig(seq_len=8, prefix_len=2)
    sim = simulate_lorenz(
        cfg, np.random.default_rng(5), counts=(10, 2, 2), n_groups=3, group_size=50
    )
    for group in sim.groups:
        first = group.data[:, 0, :]
        # same initial latent, so first-observation spread is observation noise only
        assert np.all(first.std(axis=0) < 2.0 * LORENZ_OBS_NOISE_STD)
    anchors = np.array([g.data[:, 0, :].mean(axis=0) for g in sim.groups])
    assert np.linalg.norm(anchors[0] - anchors[1]) > 1.0


def test_observation_noise_recovery():
    """obs - latent recovers noise std within 5% of [0.6, 0.4, 0.8] over 1e5 steps."""
    cfg = LorenzConfig(seq_len=100)
    obs, latents = simulate_lorenz_paths(1000, cfg, np.random.default_rng(11))
    noise = (obs - latents).reshape(-1, 3)
    assert noise.shape[0] == 10**5
    got = noise.std(axis=0)
    np.testing.assert_allclose(got, LORENZ_OBS_NOISE_STD, rtol=0.05)


def test_process_noise_recovery():
    """Without observation noise, latent - rk4(previous latent) is the process
    noise, an equal mixture of N(+-e_y, L L^T): over 1e5 steps its mean is 0
    and its covariance L L^T + diag(0, 1, 0), the e_y means adding variance 1."""
    cfg = LorenzConfig(seq_len=101)
    _, latents = simulate_lorenz_paths(1000, cfg, np.random.default_rng(11), obs_noise=False)
    noise = (latents[:, 1:] - rk4_step(latents[:, :-1], cfg)).reshape(-1, 3)
    assert noise.shape[0] == 10**5
    want = LORENZ_NOISE_CHOL @ LORENZ_NOISE_CHOL.T + np.diag([0.0, 1.0, 0.0])
    np.testing.assert_allclose(np.cov(noise.T), want, rtol=0, atol=5e-3)
    np.testing.assert_allclose(noise.mean(axis=0), 0.0, rtol=0, atol=0.02)


# ---------------------------------------------------------------------------
# four-mode toy
# ---------------------------------------------------------------------------

def four_mode_labels(ds):
    """Each trajectory's heading index, from the signs of its total
    displacement: 3 steps of 0.5 along a diagonal against noise std 0.05
    leave no sign in doubt."""
    disp = ds.data[:, -1] - ds.data[:, 0]
    return 2 * (disp[:, 0] < 0) + (disp[:, 1] < 0)


def test_four_mode_zero_noise_gives_four_straight_lines():
    ds, _, _ = generate_four_mode((64, 1, 1), np.random.default_rng(2), noise_std=0.0)
    flat = ds.data.reshape(64, -1)
    assert len(np.unique(flat, axis=0)) == 4
    steps = np.diff(ds.data, axis=1)
    lengths = np.linalg.norm(steps, axis=2)
    np.testing.assert_allclose(lengths, 0.5, rtol=1e-12)
    headings = FOUR_MODE_HEADINGS[four_mode_labels(ds)]
    np.testing.assert_allclose(steps, 0.5 * np.repeat(headings[:, None], 3, axis=1), rtol=1e-12)


def test_four_mode_label_distribution_uniform():
    n = 10**4
    ds, _, _ = generate_four_mode((n, 1, 1), np.random.default_rng(3))
    counts = np.bincount(four_mode_labels(ds), minlength=4)
    # binomial 4-sigma band around n/4
    band = 4 * np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < band)


def test_four_mode_length_and_prefix():
    train_ds, val_ds, test_ds = generate_four_mode((10, 5, 5), np.random.default_rng(4))
    for ds in (train_ds, val_ds, test_ds):
        assert ds.seq_len == 4
        assert ds.prefix_len == 1
        assert ds.d_x == 2


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(4, 30, 2)), prefix_len=10)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path, d_x=2, seq_len=30, prefix_len=10)
    np.testing.assert_array_equal(back.data, ds.data)
    assert back.prefix_len == 10


def test_csv_single_sequence_taxi_slicing(tmp_path):
    ds = Dataset(np.random.default_rng(7).normal(size=(1, 30, 2)), prefix_len=10)
    path = tmp_path / "one.csv"
    save_csv(ds, path)
    back = load_csv(path, d_x=2, seq_len=30, prefix_len=10)
    assert len(back) == 1
    assert back.data[0, : back.prefix_len].shape == (10, 2)
    assert back.data[0, back.prefix_len :].shape == (20, 2)


def test_csv_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    ds = load_csv(path, d_x=2, seq_len=10, prefix_len=2)
    assert len(ds) == 0


def test_csv_short_sequence_skipped_with_log(tmp_path, caplog):
    ds = Dataset(np.zeros((2, 5, 1)), prefix_len=1)
    path = tmp_path / "mixed.csv"
    save_csv(ds, path)
    with open(path, "a") as fh:
        fh.write("short,0,1.0\nshort,1,2.0\n")
    with caplog.at_level(logging.WARNING):
        back = load_csv(path, d_x=1, seq_len=5, prefix_len=1)
    assert len(back) == 2
    assert "skipped 1" in caplog.text


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("seq_id,t,x0\na,0,1.0\na,1,not_a_number\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


def test_csv_nonfinite_rejected_with_row(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("seq_id,t,x0\na,0,1.0\na,1,nan\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


@pytest.mark.parametrize(
    "bad_row,message",
    [
        ("a,1,inf", "non-finite value at row 3"),
        ("a,1,-inf", "non-finite value at row 3"),
        ("a,1.5,2.0", "malformed row 3: non-numeric field"),
    ],
)
def test_csv_infinite_value_or_non_integer_step_names_row(tmp_path, bad_row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"seq_id,t,x0\na,0,1.0\n{bad_row}\n")
    with pytest.raises(ValueError, match=message):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


def test_csv_interleaved_sequences_keep_first_appearance_order(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("seq_id,t,x0\nb,0,1.0\na,0,3.0\nb,1,2.0\na,1,4.0\n")
    ds = load_csv(path, d_x=1, seq_len=2, prefix_len=1)
    np.testing.assert_array_equal(ds.data[..., 0], [[1.0, 2.0], [3.0, 4.0]])


def test_csv_long_sequence_truncated_to_seq_len(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("seq_id,t,x0\na,0,1.0\na,1,2.0\na,5,3.0\n")
    ds = load_csv(path, d_x=1, seq_len=2, prefix_len=1)
    np.testing.assert_array_equal(ds.data, [[[1.0], [2.0]]])


def test_csv_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"seq_id,t,x0,x1\r\na,0,1.0,-2.5\r\na,1,0.25,1e-05\r\n")
    ds = load_csv(path, d_x=2, seq_len=2, prefix_len=1)
    np.testing.assert_array_equal(ds.data, [[[1.0, -2.5], [0.25, 1e-05]]])


def _random_trajectory_csv(path, rng, d_x, seq_len, newline):
    """A trajectory CSV whose sequences interleave, with short and over-long
    sequences, step gaps, quoted ids holding commas and ids longer than 32
    characters that share their first 32."""
    ids = [f"s{i}" for i in range(6)] + ['q,"1"', "x" * 40 + "a", "x" * 40 + "b"]
    queue = []
    for seq_id in ids:
        length = int(rng.integers(1, 2 * seq_len + 1))
        steps = np.cumsum(rng.integers(1, 4, size=length)) - 1
        values = rng.normal(size=(length, d_x)) * 10.0 ** rng.integers(-8, 9, size=(length, d_x))
        queue.append([(seq_id, t, v) for t, v in zip(steps.tolist(), values.tolist())])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(["seq_id", "t"] + [f"x{i}" for i in range(d_x)])
        while any(queue):
            seq = queue[int(rng.choice([i for i, q in enumerate(queue) if q]))]
            seq_id, t, v = seq.pop(0)
            writer.writerow([seq_id, t] + [repr(x) for x in v])


@pytest.mark.parametrize("seed", range(6))
def test_csv_load_matches_row_reader(tmp_path, caplog, seed):
    rng = np.random.default_rng(seed)
    d_x, seq_len = int(rng.integers(1, 4)), int(rng.integers(2, 9))
    path = tmp_path / "random.csv"
    _random_trajectory_csv(path, rng, d_x, seq_len, "\r\n" if seed % 2 else "\n")
    want, skipped = row_reader_csv(path, d_x, seq_len)
    with caplog.at_level(logging.WARNING):
        got = load_csv(path, d_x=d_x, seq_len=seq_len, prefix_len=1).data
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    warned = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    want_warned = f"load_csv: skipped {skipped} sequence(s) shorter than {seq_len}"
    assert warned == ([want_warned] if skipped else [])


def test_csv_quoted_and_long_ids_stay_distinct(tmp_path):
    """A quoted id may hold a comma or a blank line; ids longer than 32
    characters are not cut."""
    path = tmp_path / "ids.csv"
    long_a, long_b = "x" * 40 + "a", "x" * 40 + "b"
    path.write_text(
        f'seq_id,t,x0\n"a,b",0,1.0\n{long_a},0,2.0\n{long_b},0,3.0\n"c\n\nd",0,4.0\n'
        f'"a,b",1,5.0\n{long_a},1,6.0\n{long_b},1,7.0\n"c\n\nd",1,8.0\n'
    )
    ds = load_csv(path, d_x=1, seq_len=2, prefix_len=1)
    want = [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]]
    np.testing.assert_array_equal(ds.data[..., 0], want)
    np.testing.assert_array_equal(ds.data, row_reader_csv(path, 1, 2)[0])


def test_csv_load_never_holds_the_text_and_the_rows_at_once(tmp_path):
    """The file text is dropped before parsing, so the traced peak of a
    multi-MB load stays below the text plus the parsed rows."""
    path = tmp_path / "big.csv"
    save_csv(Dataset(np.random.default_rng(0).normal(size=(400, 100, 3)) * 10.0, 1), path)
    text_bytes = len(path.read_text())
    load_csv(path, d_x=3, seq_len=100, prefix_len=1)  # untraced warm-up
    with traced_peak() as peak:
        with open(path) as fh:
            fh.readline()
            rows = _parse_rows(fh, 3)
        rows_bytes, _ = tracemalloc.get_traced_memory()
        del rows
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        load_csv(path, d_x=3, seq_len=100, prefix_len=1)
    assert text_bytes > 2**21
    grown = peak.bytes - base
    assert grown < text_bytes + rows_bytes, (grown, text_bytes, rows_bytes)


def test_csv_header_only_gives_empty_dataset_without_warning(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("seq_id,t,x0,x1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_csv(path, d_x=2, seq_len=3, prefix_len=1)
    assert ds.data.shape == (0, 3, 2)


@pytest.mark.parametrize(
    "body,message",
    [
        ("a,0,1.0\n\na,1,2.0\n", "malformed row 3: expected 3 fields"),
        ("\na,0,1.0\n", "malformed row 2: expected 3 fields"),
        ("a,0,1.0\na,1,2.0\n\n", "malformed row 4: expected 3 fields"),
        ("a,0,1.0\n  \n", "malformed row 3: expected 3 fields"),
        ("a,0,1.0\na,1,2.0,3.0\n", "malformed row 3: expected 3 fields"),
        ("a,0,1.0\na,1\n", "malformed row 3: expected 3 fields"),
        ("a,0,1.0\na,1.0,2.0\n", "malformed row 3: non-numeric field"),
        ("a,0,1.0\na,1,\n", "malformed row 3: non-numeric field"),
        ("a,0,nan\na,1,x\n", "non-finite value at row 2"),
        ("a,1,1.0\na,0,2.0\na,2,x\n", "sequence 'a': step index not ascending at row 3"),
        ("a,1,1.0\nb,0,inf\na,0,2.0\n", "non-finite value at row 3"),
        ("a,1,1.0\na,0,inf\n", "non-finite value at row 3"),
        ("a,1,1.0\nb,0,2.0\na,1,3.0\n\n", "sequence 'a': step index not ascending at row 4"),
    ],
)
def test_csv_row_errors_name_the_first_bad_row(tmp_path, body, message):
    """The first bad row in file order is reported, with the message and row
    number of the row-by-row reader."""
    path = tmp_path / "bad.csv"
    path.write_text("seq_id,t,x0\n" + body)
    with pytest.raises(ValueError) as want:
        row_reader_csv(path, 1, 2)
    with pytest.raises(ValueError) as got:
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)
    assert str(got.value) == str(want.value) == f"{path}: {message}"


@pytest.mark.parametrize("bad_row", ["a,1_0,2.0", "a,1,1_0.5", "a,99999999999999999999,2.0"])
def test_csv_numbers_follow_numpy_grammar(tmp_path, bad_row):
    """Digit separators and steps beyond 64 bits, which Python's int and
    float accept, are non-numeric fields."""
    path = tmp_path / "bad.csv"
    path.write_text(f"seq_id,t,x0\na,0,1.0\n{bad_row}\n")
    with pytest.raises(ValueError, match="malformed row 3: non-numeric field"):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


# Values whose shortest repr takes every form: signed zero, exponent
# notation in both directions, subnormal, largest finite, 17 digits.
AWKWARD_FLOATS = np.array(
    [
        [-0.0, 1e-05, 1e16],
        [5e-324, 1.7976931348623157e308, 0.1 + 0.2],
        [1 / 3, -2.0 / 7.0, 123456789.12345679],
        [0.0, -1e-300, 2.0**-1074 * 3],
    ]
)


@pytest.mark.parametrize("rows_per_block", [1, len(AWKWARD_FLOATS)])
def test_write_csv_bytes_match_row_writer(tmp_path, rows_per_block):
    keys = [f"{i},{i + 10}" for i in range(len(AWKWARD_FLOATS))]
    blocks = [
        (keys[s : s + rows_per_block], AWKWARD_FLOATS[s : s + rows_per_block])
        for s in range(0, len(AWKWARD_FLOATS), rows_per_block)
    ]
    path = tmp_path / "w.csv"
    header = ["seq_id", "t", "x0", "x1", "x2"]
    write_csv(path, header, blocks)
    want = row_writer_csv(header, zip((k.split(",") for k in keys), AWKWARD_FLOATS))
    assert path.read_bytes() == want.encode("utf-8")


def test_save_csv_bytes_match_row_writer(tmp_path):
    ds = Dataset(np.random.default_rng(9).normal(size=(3, 4, 2)) * 1e3, prefix_len=1)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    rows = [((i, t), ds.data[i, t]) for i in range(3) for t in range(4)]
    assert path.read_text() == row_writer_csv(["seq_id", "t", "x0", "x1"], rows)


@pytest.mark.parametrize("existing", [False, True])
def test_write_csv_failed_stream_leaves_no_file(tmp_path, existing):
    path = tmp_path / "out.csv"
    if existing:
        path.write_text("old\n")

    def blocks():
        yield ["0"], np.ones((1, 2))
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        write_csv(path, ["k", "a", "b"], blocks())
    if existing:
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    else:
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


def test_csv_out_of_order_steps_name_sequence(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("seq_id,t,x0\na,1,1.0\na,0,2.0\n")
    with pytest.raises(ValueError, match="'a'"):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


def test_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("id,t,x0\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path, d_x=1, seq_len=2, prefix_len=1)


def test_trajectory_invariants():
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[[np.nan, 0.0]]]), prefix_len=1)
    with pytest.raises(ValueError, match="prefix_len"):
        Dataset(np.zeros((1, 3, 2)), prefix_len=4)


# ---------------------------------------------------------------------------
# prefix grouping
# ---------------------------------------------------------------------------

def test_group_by_prefix_identical_prefixes_single_group():
    data = np.zeros((7, 6, 2))
    data[:, 3:] = np.random.default_rng(8).normal(size=(7, 3, 2))
    ds = Dataset(data, prefix_len=3)
    groups = group_by_prefix(ds, n_groups=1, group_size=5, radius=0.5)
    assert len(groups) == 1
    assert len(groups[0]) == 5


def test_group_by_prefix_radius_zero_singletons(caplog):
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(6, 4, 2)), prefix_len=2)
    with caplog.at_level(logging.WARNING):
        groups = group_by_prefix(ds, n_groups=3, group_size=2, radius=0.0)
    assert all(len(g) == 1 for g in groups)
    assert "undersized" in caplog.text


def test_group_by_prefix_small_dataset_rejected():
    ds = Dataset(np.zeros((3, 4, 2)), prefix_len=2)
    with pytest.raises(ValueError, match="smaller than group_size"):
        group_by_prefix(ds, n_groups=1, group_size=5, radius=1.0)


def test_group_by_prefix_groups_disjoint():
    rng = np.random.default_rng(10)
    centers = rng.normal(size=(3, 1, 2)) * 50
    data = np.concatenate([centers + 0.01 * rng.normal(size=(3, 8, 2)) for _ in range(4)])
    ds = Dataset(data.reshape(12, 8, 2), prefix_len=2)
    groups = group_by_prefix(ds, n_groups=3, group_size=4, radius=5.0)
    seen = []
    for g in groups:
        for row in g.data:
            seen.append(row.tobytes())
    assert len(seen) == len(set(seen))
