import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorokhod_kit import (
    RngSeed,
    TimeGrid,
    brownian_sample,
    skorokhod_map_1d_batch,
)
from skorokhod_kit.randomness import brownian_paths
from skorokhod_kit.reflect1d import (
    skorokhod_1d_diagnostics_batch,
    skorokhod_terminal_1d_batch,
)
from skorokhod_kit.stats import ks_test_two_sample


def map_one(f_values, x0):
    """(g, h) of one driver f from a start x0: the batch map on a batch of one."""
    g, h = skorokhod_map_1d_batch((x0 + np.asarray(f_values, dtype=np.float64))[None])
    return g[0], h[0]


def lindley_recursion(f_values, x0):
    """Independent construction: per-step clamp instead of a running minimum."""
    g = np.empty_like(f_values)
    h = np.empty_like(f_values)
    g[0] = x0
    h[0] = 0.0
    for k in range(1, len(f_values)):
        free = g[k - 1] + (f_values[k] - f_values[k - 1])
        g[k] = max(free, 0.0)
        h[k] = h[k - 1] + (g[k] - free)
    return g, h


def test_zero_driver_never_touches():
    g, h = map_one(np.zeros(4), 1.0)
    assert np.array_equal(g, np.ones(4))
    assert np.array_equal(h, np.zeros(4))


def test_hand_evaluated_example():
    # running-minimum formula evaluated by hand:
    # v = x0 + f = (0.2, -0.3, 0.5, -1.0)
    # min(v ^ 0) running = (0, -0.3, -0.3, -1.0) -> h = (0, 0.3, 0.3, 1.0)
    g, h = map_one([0.0, -0.5, 0.3, -1.2], 0.2)
    assert np.allclose(h, [0.0, 0.3, 0.3, 1.0], atol=1e-15)
    assert np.allclose(g, [0.2, 0.0, 0.8, 0.0], atol=1e-15)


def test_pure_drift_down_pins_at_zero():
    grid = TimeGrid.uniform(2.0, 8)
    g, h = map_one(-grid.times, 0.0)
    assert np.array_equal(g, np.zeros(9))
    assert np.array_equal(h, grid.times)


def test_preconditions():
    # a start below 0 is rejected, naming the first such row
    v = np.array([[0.0, 1.0], [0.5, -1.0], [-0.1, 2.0], [-3.0, 0.0]])
    with pytest.raises(ValueError, match=r"row 2 starts below 0: v\(0\) = -0.1"):
        skorokhod_map_1d_batch(v)
    with pytest.raises(ValueError, match="row 0 "):
        skorokhod_map_1d_batch(v[2:], out=(np.empty((2, 2)), np.empty((2, 2))))
    g, h = skorokhod_map_1d_batch(v[:2])  # a start at 0 and a later dip are fine
    assert np.array_equal(g, [[0.0, 1.0], [0.5, 0.0]]) and np.array_equal(h[:, -1], [0.0, 1.0])


def test_matches_independent_per_step_construction():
    # uniqueness in practice: a genuinely different construction satisfying the
    # same three conditions must produce the same pair (g, h)
    grid = TimeGrid.uniform(1.0, 400)
    B = brownian_sample(grid, 1, 0.0, RngSeed(17))
    g, h = map_one(B.scalar_values, 0.35)
    g2, h2 = lindley_recursion(B.scalar_values, 0.35)
    assert np.allclose(g, g2, atol=1e-12)
    assert np.allclose(h, h2, atol=1e-12)


def test_diagnostics_exact_properties():
    grid = TimeGrid.uniform(1.0, 2000)
    v = brownian_paths(RngSeed(4), 1, grid)[..., 0]
    diag = skorokhod_1d_diagnostics_batch(*skorokhod_map_1d_batch(v), v)
    assert diag["decomposition_max_abs"] == [0.0]
    assert diag["min_h_increment"] >= 0.0
    assert diag["h_start"] == [0.0]
    assert diag["complementarity_mass"] == [0.0]
    assert diag["min_g"] >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40),
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
)
def test_monotone_coupling(increments, x0, bump):
    # pointwise larger driver and start -> pointwise smaller pushing term
    values = np.concatenate(([0.0], np.cumsum(increments)))
    _, h_lo = map_one(values, x0)
    _, h_hi = map_one(values + np.linspace(0.0, bump, len(values)), x0 + bump)
    assert np.all(h_lo >= h_hi - 1e-12)


def test_restart_at_grid_time():
    # solving again from (t_k, g(t_k)) with the driver increments after t_k
    # reproduces the tail of the original solution
    grid = TimeGrid.uniform(1.0, 300)
    B = brownian_sample(grid, 1, 0.0, RngSeed(23)).scalar_values
    g, _ = map_one(B, 0.3)
    k = 120
    restarted, _ = map_one(B[k:] - B[k], float(g[k]))
    assert np.allclose(restarted, g[k:], atol=1e-12)


def test_rbm_zero_noise():
    g, h = map_one(np.zeros(6), 2.0)
    assert np.array_equal(g, np.full(6, 2.0))
    assert np.array_equal(h, np.zeros(6))


def test_rbm_negative_start_rejected():
    with pytest.raises(ValueError, match="row 0 starts below 0"):
        map_one(np.zeros(6), -1.0)


def test_rbm_terminal_mean_and_pushing_mean():
    # E X(1) = E phi(1) = sqrt(2/pi) for a start at 0
    target = np.sqrt(2.0 / np.pi)
    n_paths, n_steps, block = 4000, 2000, 500
    grid = TimeGrid.uniform(1.0, n_steps)
    xs = np.empty(n_paths)
    hs = np.empty(n_paths)
    for start in range(0, n_paths, block):
        v = brownian_paths(RngSeed(31), block, grid, first_stream=start)[..., 0]
        g, h = skorokhod_map_1d_batch(v)
        xs[start : start + block] = g[:, -1]
        hs[start : start + block] = h[:, -1]
    for sample in (xs, hs):
        se = sample.std(ddof=1) / np.sqrt(n_paths)
        assert abs(sample.mean() - target) <= 3.0 * se


def test_two_constructions_share_a_law():
    # terminal samples of |B| and of the reflection-map construction pass a
    # two-sample KS test
    n, n_steps = 4000, 1000
    grid = TimeGrid.uniform(1.0, n_steps)
    a = np.abs(brownian_paths(RngSeed(41), n, grid)[:, -1, 0])
    b = skorokhod_terminal_1d_batch(brownian_paths(RngSeed(42), n, grid)[..., 0])
    assert ks_test_two_sample(a, b, alpha=0.01).passed


def test_batch_map_rows_equal_map_of_brownian_sample():
    # exact, as the former in-experiment check asked: each batch row is the
    # map of brownian_sample on the row's stream as a batch of one
    grid = TimeGrid.uniform(1.0, 3000)
    v = brownian_paths(RngSeed(1001), 4, grid)[..., 0]
    g, h = skorokhod_map_1d_batch(v)
    diag = skorokhod_1d_diagnostics_batch(g, h, v)
    terminal = skorokhod_terminal_1d_batch(v)
    for i in range(4):
        B = brownian_sample(grid, 1, 0.0, RngSeed(1001, i))
        one = B.values[..., 0]
        g_one, h_one = skorokhod_map_1d_batch(one)
        assert np.max(np.abs(g_one[0] - g[i])) == 0.0
        assert np.max(np.abs(h_one[0] - h[i])) == 0.0
        assert terminal[i] == g_one[0, -1]
        diag_one = skorokhod_1d_diagnostics_batch(g_one, h_one, one)
        assert {k: float(x[0]) for k, x in diag_one.items()} == {
            k: float(x[i]) for k, x in diag.items()
        }


def test_terminal_batch_ignores_a_left_out_start():
    # v(0) = x0 >= 0 never lowers min(min v, 0), so it may be dropped
    v = brownian_paths(RngSeed(3), 6, TimeGrid.uniform(1.0, 500), x0=0.2)[..., 0]
    assert np.array_equal(skorokhod_terminal_1d_batch(v), skorokhod_terminal_1d_batch(v[:, 1:]))
    assert np.array_equal(skorokhod_terminal_1d_batch(v), skorokhod_map_1d_batch(v)[0][:, -1])


@pytest.mark.parametrize("pairing", ["g is v", "h is v", "g is h", "g overlaps h"])
def test_batch_map_rejects_out_arrays_that_share_memory(pairing):
    # out=(g, v) used to return g = 2h silently: [0, 0.4, 0.4, 2.0] here
    v = np.array([[0.5, -0.2, 0.3, -1.0]])
    buf = np.zeros((1, 5))
    out = {
        "g is v": (v, np.empty_like(v)),
        "h is v": (np.empty_like(v), v),
        "g is h": (buf[:, :4], buf[:, :4]),
        "g overlaps h": (buf[:, :4], buf[:, 1:]),
    }[pairing]
    with pytest.raises(ValueError, match="share memory"):
        skorokhod_map_1d_batch(v, out=out)
    g, h = skorokhod_map_1d_batch(v)
    assert g.tolist() == [[0.5, 0.0, 0.5, 0.0]] and h.tolist() == [[0.0, 0.2, 0.2, 1.0]]


def test_batch_map_and_diagnostics_write_into_given_buffers():
    # with out= and scratch= the results are those of fresh arrays, bit for
    # bit, also for a perturbed g whose defect and complementarity mass are
    # not 0; the buffers may hold anything beforehand
    v = brownian_paths(RngSeed(5), 7, TimeGrid.uniform(1.0, 400), x0=0.1)[..., 0]
    buf = np.full((3,) + v.shape, np.nan)
    g, h = skorokhod_map_1d_batch(v, out=(buf[0], buf[1]))
    assert np.shares_memory(g, buf[0]) and np.shares_memory(h, buf[1])
    fresh_g, fresh_h = skorokhod_map_1d_batch(v)
    assert g.tobytes() == fresh_g.tobytes() and h.tobytes() == fresh_h.tobytes()
    bent = g + 1e-3 * np.sin(np.arange(v.shape[1]))
    got = skorokhod_1d_diagnostics_batch(bent, h, v, scratch=buf[2])
    dh = np.diff(h, axis=-1)
    want = {
        "decomposition_max_abs": np.max(np.abs(bent - (v + h)), axis=-1),
        "min_h_increment": np.min(dh, axis=-1),
        "h_start": h[..., 0],
        "complementarity_mass": np.sum(dh * (bent[..., 1:] > 0.0), axis=-1),
        "min_g": np.min(bent, axis=-1),
    }
    assert np.count_nonzero(want["complementarity_mass"]) >= 5
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key
    assert all(
        got[key].tobytes() == val.tobytes()
        for key, val in skorokhod_1d_diagnostics_batch(bent, h, v).items()
    )
