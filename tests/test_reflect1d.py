import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from skorokhod_kit import (
    InitialLaw,
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    rbm_abs,
    rbm_from_skorokhod,
    reflected_density,
    skorokhod_map_1d,
)
from skorokhod_kit.randomness import brownian_paths
from skorokhod_kit.reflect1d import (
    skorokhod_1d_diagnostics,
    skorokhod_1d_diagnostics_batch,
    skorokhod_map_1d_batch,
    skorokhod_terminal_1d_batch,
)
from skorokhod_kit.stats import ks_test_two_sample


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
    grid = TimeGrid.uniform(3.0, 3)
    f = SampledPath.continuous(grid, np.zeros(4))
    sol = skorokhod_map_1d(f, 1.0)
    assert np.array_equal(sol.g.scalar_values, np.ones(4))
    assert np.array_equal(sol.h.scalar_values, np.zeros(4))


def test_hand_evaluated_example():
    # running-minimum formula evaluated by hand:
    # v = x0 + f = (0.2, -0.3, 0.5, -1.0)
    # min(v ^ 0) running = (0, -0.3, -0.3, -1.0) -> h = (0, 0.3, 0.3, 1.0)
    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    f = SampledPath.continuous(grid, np.array([0.0, -0.5, 0.3, -1.2]))
    sol = skorokhod_map_1d(f, 0.2)
    assert np.allclose(sol.h.scalar_values, [0.0, 0.3, 0.3, 1.0], atol=1e-15)
    assert np.allclose(sol.g.scalar_values, [0.2, 0.0, 0.8, 0.0], atol=1e-15)


def test_pure_drift_down_pins_at_zero():
    grid = TimeGrid.uniform(2.0, 8)
    f = SampledPath.continuous(grid, -grid.times)
    sol = skorokhod_map_1d(f, 0.0)
    assert np.array_equal(sol.g.scalar_values, np.zeros(9))
    assert np.array_equal(sol.h.scalar_values, grid.times)


def test_preconditions():
    grid = TimeGrid.uniform(1.0, 2)
    f = SampledPath.continuous(grid, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        skorokhod_map_1d(f, -0.1)
    f_bad = SampledPath.continuous(grid, [0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        skorokhod_map_1d(f_bad, 0.0)
    two_d = SampledPath.continuous(grid, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        skorokhod_map_1d(two_d, 0.0)


def test_matches_independent_per_step_construction():
    # uniqueness in practice: a genuinely different construction satisfying the
    # same three conditions must produce the same pair (g, h)
    grid = TimeGrid.uniform(1.0, 400)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(17))
    sol = skorokhod_map_1d(B, 0.35)
    g2, h2 = lindley_recursion(B.scalar_values, 0.35)
    assert np.allclose(sol.g.scalar_values, g2, atol=1e-12)
    assert np.allclose(sol.h.scalar_values, h2, atol=1e-12)


def test_diagnostics_exact_properties():
    grid = TimeGrid.uniform(1.0, 2000)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(4))
    sol = skorokhod_map_1d(B, 0.0)
    diag = skorokhod_1d_diagnostics(sol, B)
    assert diag["decomposition_max_abs"] == 0.0
    assert diag["min_h_increment"] >= 0.0
    assert diag["h_start"] == 0.0
    assert diag["complementarity_mass"] == 0.0
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
    grid = TimeGrid.uniform(1.0, len(values) - 1)
    f = SampledPath.continuous(grid, values)
    f_hi = SampledPath.continuous(grid, values + np.linspace(0.0, bump, len(values)))
    h_lo = skorokhod_map_1d(f, x0).h.scalar_values
    h_hi = skorokhod_map_1d(f_hi, x0 + bump).h.scalar_values
    assert np.all(h_lo >= h_hi - 1e-12)


def test_restart_at_grid_time():
    # solving again from (t_k, g(t_k)) with the driver increments after t_k
    # reproduces the tail of the original solution
    grid = TimeGrid.uniform(1.0, 300)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(23))
    sol = skorokhod_map_1d(B, 0.3)
    k = 120
    sub_grid = TimeGrid(grid.times[k:] - grid.times[k])
    f2 = SampledPath.continuous(sub_grid, B.scalar_values[k:] - B.scalar_values[k])
    restarted = skorokhod_map_1d(f2, float(sol.g.scalar_values[k]))
    assert np.allclose(restarted.g.scalar_values, sol.g.scalar_values[k:], atol=1e-12)


def test_rbm_zero_noise():
    grid = TimeGrid.uniform(1.0, 5)
    B = SampledPath.continuous(grid, np.zeros(6))
    sol = rbm_from_skorokhod(B, InitialLaw.point_mass(2.0))
    assert np.array_equal(sol.g.scalar_values, np.full(6, 2.0))
    assert np.array_equal(sol.h.scalar_values, np.zeros(6))


def test_rbm_negative_start_rejected():
    grid = TimeGrid.uniform(1.0, 5)
    B = SampledPath.continuous(grid, np.zeros(6))
    with pytest.raises(ValueError):
        rbm_from_skorokhod(B, InitialLaw.point_mass(-1.0))


def test_rbm_custom_law_needs_rng():
    grid = TimeGrid.uniform(1.0, 5)
    B = SampledPath.continuous(grid, np.zeros(6))
    law = InitialLaw.custom(lambda gen, d: gen.random(d))
    with pytest.raises(ValueError):
        rbm_from_skorokhod(B, law)
    sol = rbm_from_skorokhod(B, law, rng=RngSeed(3))
    assert sol.x0 >= 0.0


def test_rbm_terminal_mean_and_pushing_mean():
    # E X(1) = E phi(1) = sqrt(2/pi) for a start at 0
    target = np.sqrt(2.0 / np.pi)
    n_paths, n_steps = 4000, 2000
    grid = TimeGrid.uniform(1.0, n_steps)
    xs = np.empty(n_paths)
    hs = np.empty(n_paths)
    for i in range(n_paths):
        B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(31, i))
        sol = rbm_from_skorokhod(B, InitialLaw.point_mass(0.0))
        xs[i] = sol.g.scalar_values[-1]
        hs[i] = sol.h.scalar_values[-1]
    for sample in (xs, hs):
        se = sample.std(ddof=1) / np.sqrt(n_paths)
        assert abs(sample.mean() - target) <= 3.0 * se


def test_rbm_abs_values():
    grid = TimeGrid.uniform(1.0, 2)
    B = SampledPath.continuous(grid, [0.0, -1.0, 2.0])
    assert np.array_equal(rbm_abs(B).scalar_values, [0.0, 1.0, 2.0])
    pos = SampledPath.continuous(grid, [0.0, 1.0, 2.0])
    assert np.array_equal(rbm_abs(pos).scalar_values, pos.scalar_values)


def test_two_constructions_share_a_law():
    # terminal samples of |B| and of the reflection-map construction pass a
    # two-sample KS test
    n, n_steps = 4000, 1000
    grid = TimeGrid.uniform(1.0, n_steps)
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        B1 = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(41, i))
        a[i] = rbm_abs(B1).scalar_values[-1]
        B2 = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(42, i))
        b[i] = rbm_from_skorokhod(B2, InitialLaw.point_mass(0.0)).g.scalar_values[-1]
    assert ks_test_two_sample(a, b, alpha=0.01).passed


def test_reflected_density_values():
    assert reflected_density(1.0, 0.0, 0.0) == pytest.approx(2.0 / np.sqrt(2.0 * np.pi), abs=1e-12)
    # x = 0 collapses to the half-normal density
    for y in (0.1, 0.5, 1.7):
        half_normal = 2.0 * np.exp(-(y**2) / 2.0) / np.sqrt(2.0 * np.pi)
        assert reflected_density(1.0, 0.0, y) == pytest.approx(half_normal, rel=1e-12)


def test_reflected_density_normalizes():
    for t, x in ((0.5, 0.0), (1.0, 0.3), (2.0, 1.5)):
        total, err = quad(lambda y: reflected_density(t, x, y), 0.0, np.inf)
        assert err < 1e-8
        assert total == pytest.approx(1.0, abs=1e-8)


def test_reflected_density_domain_errors():
    with pytest.raises(ValueError):
        reflected_density(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        reflected_density(1.0, -0.1, 0.0)


def test_batch_map_rows_equal_map_of_brownian_sample():
    # exact, as the former in-experiment check asked: each batch row is the
    # library map of brownian_sample on the row's stream
    grid = TimeGrid.uniform(1.0, 3000)
    v = brownian_paths(RngSeed(1001), 4, grid)[..., 0]
    g, h = skorokhod_map_1d_batch(v)
    diag = skorokhod_1d_diagnostics_batch(g, h, v)
    terminal = skorokhod_terminal_1d_batch(v)
    for i in range(4):
        B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(1001, i))
        sol = skorokhod_map_1d(B, 0.0)
        assert np.max(np.abs(sol.g.scalar_values - g[i])) == 0.0
        assert np.max(np.abs(sol.h.scalar_values - h[i])) == 0.0
        assert terminal[i] == sol.g.scalar_values[-1]
        one = skorokhod_1d_diagnostics(sol, B)
        assert one == {key: float(val[i]) for key, val in diag.items()}


def test_terminal_batch_ignores_a_left_out_start():
    # v(0) = x0 >= 0 never lowers min(min v, 0), so it may be dropped
    v = brownian_paths(RngSeed(3), 6, TimeGrid.uniform(1.0, 500), x0=0.2)[..., 0]
    assert np.array_equal(skorokhod_terminal_1d_batch(v), skorokhod_terminal_1d_batch(v[:, 1:]))
    assert np.array_equal(skorokhod_terminal_1d_batch(v), skorokhod_map_1d_batch(v)[0][:, -1])


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
