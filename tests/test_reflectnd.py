from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from skorokhod_kit import (
    ConvexDomain,
    InitialLaw,
    PathKind,
    RefinementLimitError,
    RngSeed,
    SampledPath,
    TimeGrid,
    active_normal_cone,
    brownian_sample,
    check_condition_a,
    check_condition_b,
    half_line,
    halfplane,
    modulus_gap,
    orthant,
    skorokhod_map_1d,
    solve_skorokhod_continuous,
    solve_skorokhod_continuous_many,
    solve_skorokhod_step,
    strip,
    tanaka_inequality_gap,
    unit_disc,
)
from skorokhod_kit.config import load_domain_file
from skorokhod_kit.reflectnd import SkorokhodNdSolution, nd_solution_diagnostics

DOMAINS_DIR = Path(__file__).resolve().parents[1] / "configs" / "domains"


def step_path(times, values):
    return SampledPath.step(TimeGrid(np.asarray(times, dtype=np.float64)), values)


def brownian_step(domain_start, seed, stream=0, n_steps=256, d=2):
    grid = TimeGrid.uniform(1.0, n_steps)
    B = brownian_sample(grid, d, InitialLaw.point_mass(domain_start), RngSeed(seed, stream))
    return B.with_kind(PathKind.STEP)


# --- step construction ------------------------------------------------------


def test_interior_path_passes_through():
    w = step_path([0.0, 1.0, 2.0], [[0.3, 0.3], [0.5, 0.9], [0.1, 0.4]])
    sol = solve_skorokhod_step(w, orthant(2))
    assert np.array_equal(sol.X.values, w.values)
    assert np.array_equal(sol.phi.values[0], np.zeros((3, 2)))
    assert np.array_equal(sol.total_variation[0], np.zeros(3))
    assert np.all(np.isnan(sol.directions))


def test_halfplane_single_jump():
    w = step_path([0.0, 1.0], [[0.0, 1.0], [1.0, -1.0]])
    sol = solve_skorokhod_step(w, halfplane())
    assert np.allclose(sol.X.values[0, 1], [1.0, 0.0], atol=0.0)
    assert np.allclose(sol.phi.values[0, 1], [0.0, 1.0], atol=0.0)


def test_orthant_recursion_hand_run():
    # hand recursion: (1,1) -> candidate (-1,2) projects to (0,2),
    # then (0,2)+(0,-3) = (0,-1) projects to (0,0); phi ends at (1,1)
    w = step_path([0.0, 1.0, 2.0], [[1.0, 1.0], [-1.0, 2.0], [-1.0, -1.0]])
    sol = solve_skorokhod_step(w, orthant(2))
    assert np.allclose(sol.X.values, [[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]], atol=0.0)
    assert np.allclose(sol.phi.values[0, -1], [1.0, 1.0], atol=0.0)
    assert sol.total_variation[0, -1] == pytest.approx(2.0)


def test_step_solver_preconditions():
    w_outside = step_path([0.0, 1.0], [[-1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_skorokhod_step(w_outside, orthant(2))
    w_cont = w_outside.with_kind(PathKind.CONTINUOUS)
    with pytest.raises(ValueError):
        solve_skorokhod_step(w_cont, orthant(2))


def _solution_parts(n=5, d=2):
    grid = TimeGrid.uniform(1.0, n - 1)
    zeros = SampledPath.continuous(grid, np.zeros((n, d)))
    return grid, zeros, dict(X=zeros, total_variation=np.zeros(n), directions=np.zeros((n, d)))


def test_solution_accepts_a_driver_of_another_dimension():
    grid, zeros, parts = _solution_parts()
    driver = SampledPath.continuous(grid, np.zeros((5, 1)))
    sol = SkorokhodNdSolution(phi=zeros, driver=driver, **parts)
    assert sol.driver is driver


def test_solution_rejects_phi_off_the_grid_of_X():
    grid, zeros, parts = _solution_parts()
    other = TimeGrid.uniform(2.0, 4)
    with pytest.raises(ValueError, match="phi"):
        SkorokhodNdSolution(phi=SampledPath.continuous(other, np.zeros((5, 2))), **parts)


def test_solution_rejects_phi_of_another_shape():
    grid, zeros, parts = _solution_parts()
    with pytest.raises(ValueError, match="phi"):
        SkorokhodNdSolution(phi=SampledPath.continuous(grid, np.zeros((5, 3))), **parts)


def test_solution_rejects_driver_off_the_grid_of_X():
    grid, zeros, parts = _solution_parts()
    driver = SampledPath.continuous(TimeGrid.uniform(2.0, 4), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="driver"):
        SkorokhodNdSolution(phi=zeros, driver=driver, **parts)


def test_step_solution_invariants_on_brownian_drivers():
    domain = unit_disc()
    for i in range(20):
        w = brownian_step([0.0, 0.0], seed=51, stream=i)
        sol = solve_skorokhod_step(w, domain)
        diag = nd_solution_diagnostics(sol, w, domain)
        assert diag["decomposition_max_abs"] <= 1e-9
        assert diag["containment_worst_slack"] >= -1e-9
        assert diag["interior_pushing_mass"] == 0.0
        assert diag["max_angular_gap"] <= 1e-6
        assert diag["tv_increment_defect"] <= 1e-12  # running-sum roundoff only
        assert diag["phi_start_norm"] == 0.0


# --- inequality gaps --------------------------------------------------------


def naive_tanaka_gap(sol_a, sol_b):
    """Direct double-loop evaluation of the pairwise inequality slack."""
    u = (sol_a.X.values[0] - sol_a.phi.values[0]) - (sol_b.X.values[0] - sol_b.phi.values[0])
    delta = sol_a.phi.values[0] - sol_b.phi.values[0]
    D = sol_a.X.values[0] - sol_b.X.values[0]
    n = u.shape[0]
    worst = np.inf
    for t in range(n):
        integral = 0.0
        for j in range(1, t + 1):
            integral += (u[t] - u[j]) @ (delta[j] - delta[j - 1])
        rhs = u[t] @ u[t] + 2.0 * integral
        worst = min(worst, rhs - D[t] @ D[t])
    return worst


def naive_modulus_gap(sol, i, n):
    w = sol.X.values[0] - sol.phi.values[0]
    X = sol.X.values[0]
    phi = sol.phi.values[0]
    integral = 0.0
    for j in range(i + 1, n + 1):
        integral += (w[n] - w[j]) @ (phi[j] - phi[j - 1])
    rhs = np.sum((w[n] - w[i]) ** 2) + 2.0 * integral
    return rhs - np.sum((X[n] - X[i]) ** 2)


def test_tanaka_gap_identical_solutions_zero():
    w = brownian_step([0.0, 0.0], seed=52, n_steps=64)
    sol = solve_skorokhod_step(w, halfplane())
    assert tanaka_inequality_gap(sol, sol) == 0.0


def test_tanaka_gap_interior_shift_zero():
    dom = orthant(2)
    w1 = step_path([0.0, 1.0, 2.0], [[2.0, 2.0], [2.5, 2.1], [2.2, 2.8]])
    w2 = step_path([0.0, 1.0, 2.0], np.asarray(w1.values) + 0.5)
    s1 = solve_skorokhod_step(w1, dom)
    s2 = solve_skorokhod_step(w2, dom)
    assert tanaka_inequality_gap(s1, s2) == pytest.approx(0.0, abs=1e-12)


def test_tanaka_gap_matches_naive_sum_and_is_nonnegative():
    dom = halfplane()
    for i in range(0, 40, 2):
        a = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=53, stream=i, n_steps=48), dom)
        b = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=53, stream=i + 1, n_steps=48), dom)
        fast = tanaka_inequality_gap(a, b)
        assert fast == pytest.approx(naive_tanaka_gap(a, b), abs=1e-10)
        assert fast >= -1e-9


def test_tanaka_gap_grid_mismatch():
    a = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=54, n_steps=32), halfplane())
    b = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=54, n_steps=64), halfplane())
    with pytest.raises(ValueError):
        tanaka_inequality_gap(a, b)


def test_modulus_gap_degenerate_and_free_cases():
    w = brownian_step([0.0, 3.0], seed=55, n_steps=64)
    sol = solve_skorokhod_step(w, halfplane())
    t = float(w.grid.times[10])
    assert modulus_gap(sol, t, t) == 0.0
    # no pushing on high-start paths that stay interior: slack reduces to 0
    high = step_path([0.0, 1.0, 2.0], [[0.0, 5.0], [0.2, 5.5], [0.1, 4.9]])
    sol_high = solve_skorokhod_step(high, halfplane())
    assert modulus_gap(sol_high, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_modulus_gap_matches_naive_and_nonnegative():
    dom = unit_disc()
    for i in range(12):
        sol = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=56, stream=i, n_steps=48), dom)
        times = sol.X.grid.times
        for (a, b) in ((0, 48), (7, 31), (20, 21)):
            fast = modulus_gap(sol, float(times[a]), float(times[b]))
            assert fast == pytest.approx(naive_modulus_gap(sol, a, b), abs=1e-10)
            assert fast >= -1e-9


def test_modulus_gap_preconditions():
    sol = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=57, n_steps=16), halfplane())
    times = sol.X.grid.times
    with pytest.raises(ValueError):
        modulus_gap(sol, float(times[3]), float(times[1]))
    with pytest.raises(ValueError):
        modulus_gap(sol, 0.0, 0.123456789)  # not a grid time


# --- continuous inputs ------------------------------------------------------


def test_continuous_interior_converges_immediately():
    grid = TimeGrid.uniform(1.0, 32)
    w = SampledPath.continuous(grid, np.column_stack([np.sin(grid.times), 2.0 + np.cos(grid.times)]))
    sol = solve_skorokhod_continuous(w, halfplane())
    assert sol.refine_gaps == (0.0,)
    assert np.array_equal(sol.X.values, w.values)
    assert len(sol.X.grid) == 32 + 1


def test_continuous_matches_explicit_1d_map():
    grid = TimeGrid.uniform(1.0, 200)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.4), RngSeed(58))
    w = SampledPath.continuous(grid, B.values)
    sol = solve_skorokhod_continuous(w, half_line())
    fine = sol.X.grid
    w_fine = np.interp(fine.times, grid.times, w.scalar_values)
    f = SampledPath.continuous(fine, w_fine - w_fine[0])
    explicit = skorokhod_map_1d(f, float(w_fine[0]))
    assert np.allclose(sol.X.scalar_values, explicit.g.scalar_values, atol=1e-12)
    assert np.allclose(sol.phi.scalar_values, explicit.h.scalar_values, atol=1e-12)


def test_spiral_exits_disc_and_sticks_to_boundary():
    grid = TimeGrid.uniform(3.0, 512)
    t = grid.times
    w = SampledPath.continuous(grid, np.column_stack([(1.0 + t) * np.cos(t), (1.0 + t) * np.sin(t)]) * 0.5)
    sol = solve_skorokhod_continuous(w, unit_disc(), refine_tol=1e-3, max_levels=6)
    gaps = np.array(sol.refine_gaps)
    assert np.all(np.diff(gaps) < 0.0)
    radius_w = np.linalg.norm(w.values[0], axis=1)
    # once the input has left the disc for good, the solution rides the boundary
    exit_idx = np.argmax(radius_w > 1.0)
    stride = (len(sol.X.grid) - 1) // (len(grid) - 1)
    radius_x = np.linalg.norm(sol.X.values[0, ::stride], axis=1)
    assert np.all(radius_x[exit_idx + 5 :] >= 1.0 - 1e-6)
    assert np.all(radius_x <= 1.0 + 1e-9)


def test_refinement_limit_error_carries_gaps():
    grid = TimeGrid.uniform(1.0, 64)
    B = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(59))
    w = SampledPath.continuous(grid, B.values)
    with pytest.raises(RefinementLimitError) as err:
        solve_skorokhod_continuous(w, unit_disc(), refine_tol=1e-12, max_levels=2)
    assert len(err.value.gaps) == 2
    assert all(g > 1e-12 for g in err.value.gaps)


def test_dyadic_triadic_agreement():
    grid = TimeGrid.uniform(1.0, 64)
    B = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(60))
    w = SampledPath.continuous(grid, B.values)
    tol = 0.02
    dy = solve_skorokhod_continuous(w, unit_disc(), refine_tol=tol, max_levels=6, refine_factor=2)
    tr = solve_skorokhod_continuous(w, unit_disc(), refine_tol=tol, max_levels=4, refine_factor=3)
    sd = (len(dy.X.grid) - 1) // 64
    st_ = (len(tr.X.grid) - 1) // 64
    gap = np.max(np.linalg.norm(dy.X.values[0, ::sd] - tr.X.values[0, ::st_], axis=1))
    assert gap <= 2.0 * tol


def test_solution_jumps_shrink_under_refinement():
    # for a continuous input, the largest step of the reflected path decays
    # as the working grid refines
    from skorokhod_kit.reflectnd import _reflect_on_grid, _refine_linear

    grid = TimeGrid.uniform(1.0, 64)
    B = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(61))
    times, wv = grid.times.copy(), B.values[0].copy()
    max_jumps = []
    for _ in range(4):
        X = _reflect_on_grid(wv[None], unit_disc(), 1e-10, 10_000)[0][0]
        max_jumps.append(float(np.max(np.linalg.norm(np.diff(X, axis=0), axis=1))))
        times, wv = _refine_linear(times, wv, 2)
    assert all(max_jumps[i] > max_jumps[i + 1] for i in range(3))
    assert max_jumps[-1] < 0.5 * max_jumps[0]


# --- batched solvers ---------------------------------------------------------


def per_path_recursion(wv, domain):
    """The step recursion for one path with the scalar projection."""
    n, d = wv.shape
    X = np.empty_like(wv)
    phi = np.zeros_like(wv)
    tv = np.zeros(n)
    dirs = np.full((n, d), np.nan)
    X[0] = wv[0]
    acc = np.zeros(d)
    acc_tv = 0.0
    for k in range(1, n):
        free = wv[k] + acc
        landed = domain.project(free)
        X[k] = landed
        if not np.array_equal(landed, free):
            new_acc = landed - wv[k]
            dphi = new_acc - acc
            acc = new_acc
            norm = float(np.linalg.norm(dphi))
            acc_tv += norm
            if norm > 0.0:
                dirs[k] = dphi / norm
        phi[k] = acc
        tv[k] = acc_tv
    return X, phi, tv, dirs


MIXED_CASES = [
    (unit_disc(), [0.0, 0.0], [0.1, 0.1]),
    (orthant(2), [0.25, 0.25], [5.0, 5.0]),
    (strip(), [0.0, 0.5], [0.0, 0.5]),
]


def mixed_batch(domain, start, quiet_start, n_paths=9, n_steps=96):
    """Brownian drivers plus one driver that never leaves the interior (row 3)."""
    values = np.stack(
        [brownian_step(start, seed=70, stream=i, n_steps=n_steps).values[0] for i in range(n_paths)]
    )
    grid = TimeGrid.uniform(1.0, n_steps)
    wiggle = 1e-3 * np.column_stack([np.sin(grid.times), np.cos(grid.times) - 1.0])
    values[3] = np.asarray(quiet_start) + wiggle
    return SampledPath.step(grid, values)


@pytest.mark.parametrize("domain,start,quiet_start", MIXED_CASES, ids=["disc", "orthant", "strip"])
def test_step_many_matches_per_path_recursion(domain, start, quiet_start):
    w = mixed_batch(domain, start, quiet_start)
    sol = solve_skorokhod_step(w, domain)
    assert sol.X.n_paths == w.n_paths
    pushed = 0
    for i in range(w.n_paths):
        X, phi, tv, dirs = per_path_recursion(w.values[i], domain)
        assert np.array_equal(sol.X.values[i], X)
        assert np.array_equal(sol.phi.values[i], phi)
        np.testing.assert_array_max_ulp(sol.total_variation[i], tv, maxulp=4)
        assert np.array_equal(np.isnan(sol.directions[i]), np.isnan(dirs))
        finite = ~np.isnan(dirs)
        np.testing.assert_array_max_ulp(sol.directions[i][finite], dirs[finite], maxulp=4)
        pushed += int(sol.total_variation[i, -1] > 0.0)
    assert pushed >= 3
    quiet = sol[3]
    assert np.array_equal(quiet.phi.values, np.zeros_like(quiet.phi.values))
    assert np.all(quiet.total_variation == 0.0)
    assert np.all(np.isnan(quiet.directions))


@pytest.mark.parametrize("domain,start,quiet_start", MIXED_CASES, ids=["disc", "orthant", "strip"])
def test_step_many_rows_match_batches_of_one(domain, start, quiet_start):
    w = mixed_batch(domain, start, quiet_start)
    sol = solve_skorokhod_step(w, domain)
    for i in range(w.n_paths):
        row, solo = sol[i], solve_skorokhod_step(w[i], domain)
        assert np.array_equal(row.X.values, solo.X.values)
        assert np.array_equal(row.phi.values, solo.phi.values)
        assert np.array_equal(row.total_variation, solo.total_variation)
        assert np.array_equal(row.directions, solo.directions, equal_nan=True)


def test_step_many_names_the_driver_starting_outside():
    inside = [[1.0, 1.0], [0.5, -0.5]]
    outside = [[-1.0, 1.0], [0.0, 0.0]]
    w = step_path([0.0, 1.0], np.array([inside, inside, outside, outside]))
    with pytest.raises(ValueError, match="driver 2 "):
        solve_skorokhod_step(w, orthant(2))
    with pytest.raises(ValueError, match="driver 0 "):
        solve_skorokhod_step(w[3], orthant(2))


def test_many_solvers_input_validation():
    a = brownian_step([0.0, 0.0], seed=71, n_steps=16)
    with pytest.raises(ValueError, match="at least one path"):
        solve_skorokhod_step(SampledPath.step(a.grid, np.zeros((0, 17, 2))), unit_disc())
    with pytest.raises(ValueError):
        solve_skorokhod_continuous_many(a, unit_disc())  # step kind
    two = SampledPath.continuous(a.grid, np.concatenate([a.values, a.values]))
    with pytest.raises(ValueError, match="one driver, got 2"):
        solve_skorokhod_continuous(two, unit_disc())


def continuous_drivers(n, seed, start=(0.0, 0.0), n_steps=32):
    """Values (n, grid, 2) of Brownian drivers on streams 0..n-1, and their grid."""
    grid = TimeGrid.uniform(1.0, n_steps)
    law = InitialLaw.point_mass(list(start))
    values = np.stack([brownian_sample(grid, 2, law, RngSeed(seed, i)).values[0] for i in range(n)])
    return values, grid


def test_continuous_many_matches_solo_runs():
    values, grid = continuous_drivers(6, seed=72)
    # an input that stays inside converges at level 0 and leaves the batch first
    values[1] = 0.1 * np.column_stack([np.sin(grid.times), grid.times])
    w = SampledPath.continuous(grid, values)
    for kwargs in ({"refine_tol": 0.02}, {"refine_tol": 0.005, "refine_factor": 3}, {"max_levels": 9}):
        sols = solve_skorokhod_continuous_many(w, unit_disc(), **kwargs)
        assert len(sols) == w.n_paths
        levels = set()
        for i, sol in enumerate(sols):
            solo = solve_skorokhod_continuous(w[i], unit_disc(), **kwargs)
            assert sol.refine_gaps == solo.refine_gaps
            assert sol.tv_by_level == solo.tv_by_level
            assert sol.X.grid.same_as(solo.X.grid)
            assert np.array_equal(sol.X.values, solo.X.values)
            assert np.array_equal(sol.phi.values, solo.phi.values)
            levels.add(len(sol.tv_by_level))
        assert sols[1].refine_gaps == (0.0,)
        assert len(levels) >= 2  # drivers left the batch at different levels


def test_continuous_many_reports_first_failing_driver():
    values, grid = continuous_drivers(5, seed=73)
    values[0] = 0.1 * np.column_stack([grid.times, grid.times])
    w = SampledPath.continuous(grid, values)
    kwargs = {"refine_tol": 1e-12, "max_levels": 2}
    solo_failures = []
    for i in range(w.n_paths):
        try:
            solve_skorokhod_continuous(w[i], unit_disc(), **kwargs)
        except RefinementLimitError as err:
            solo_failures.append((i, err.gaps))
    first, gaps = solo_failures[0]
    assert first > 0
    with pytest.raises(RefinementLimitError) as err:
        solve_skorokhod_continuous_many(w, unit_disc(), **kwargs)
    assert err.value.driver == first
    assert err.value.gaps == gaps
    assert f"driver {first}:" in str(err.value)


@pytest.mark.parametrize("refine_tol", [5e-4, 1.5e-4])
def test_refinement_check_reports_the_failure_a_per_driver_loop_meets_first(refine_tol):
    from skorokhod_kit.experiments import STREAM_BLOCK, _nd_refinement_checks, default_config

    config = default_config(
        "nd-skorokhod-props",
        seed=3,
        tolerances={"refine": refine_tol},
        options={"refine_n0": 16, "refine_drivers": 5},
    )
    grid = TimeGrid.uniform(1.0, 16)
    law = InitialLaw.point_mass([0.0, 0.0])
    expected = None
    for i in range(5):
        w = brownian_sample(grid, 2, law, RngSeed(3, 2 * STREAM_BLOCK + i))
        try:
            solve_skorokhod_continuous(w, unit_disc(), refine_tol=refine_tol, max_levels=6, refine_factor=2)
            solve_skorokhod_continuous(w, unit_disc(), refine_tol=refine_tol, max_levels=4, refine_factor=3)
        except RefinementLimitError as err:
            expected = err.gaps
            break
    assert expected is not None
    with pytest.raises(RefinementLimitError) as err:
        _nd_refinement_checks(config, unit_disc(), [0.0, 0.0], block=2)
    assert err.value.gaps == expected


def bits(values):
    """Exact bit patterns of a dict or sequence of floats (-0.0 and 0.0 differ)."""
    if isinstance(values, dict):
        return {key: float(v).hex() for key, v in values.items()}
    return [float(v).hex() for v in values]


def row(diagnostics, i):
    """Path i's entry of every key of a diagnostics dict."""
    return {key: column[i] for key, column in diagnostics.items()}


def per_landing_diagnostics(sol, domain):
    """Interior mass and angular gap of a one-path solution, one landing at a time."""
    X = sol.X.values[0]
    dphi = np.diff(sol.phi.values[0], axis=0)
    norms = np.linalg.norm(dphi, axis=1)
    interior_mass = 0.0
    angular_gap = 0.0
    for k in np.flatnonzero(norms > 0.0):
        landing = X[k + 1]
        tol_bd = 1e-8 * (1.0 + float(np.linalg.norm(landing)))
        if domain.distance_to_boundary(landing) > tol_bd:
            interior_mass += float(norms[k])
            continue
        generators = active_normal_cone(landing, domain, tol_bd)
        _, residual = nnls(generators.T, dphi[k] / norms[k])
        angular_gap = max(angular_gap, float(residual))
    return interior_mass, angular_gap


def scaled_drivers(start, seed, n_paths, n_steps, factor):
    """Brownian step drivers with their excursions from the start scaled by factor."""
    values = np.stack(
        [brownian_step(start, seed=seed, stream=i, n_steps=n_steps).values[0] for i in range(n_paths)]
    )
    values = factor * (values - values[:, :1]) + values[:, :1]
    return SampledPath.step(TimeGrid.uniform(1.0, n_steps), values)


@pytest.mark.parametrize(
    "domain,start",
    [
        (unit_disc(), [0.0, 0.0]),
        (orthant(2), [0.25, 0.25]),
        (load_domain_file(DOMAINS_DIR / "capped-halfplane.domain"), [0.0, 1.0]),
    ],
    ids=["disc", "orthant", "capped-halfplane"],
)
def test_diagnostics_match_per_landing_evaluation(domain, start):
    w = scaled_drivers(start, seed=74, n_paths=6, n_steps=128, factor=3.0)
    sol = solve_skorokhod_step(w, domain)
    diags = nd_solution_diagnostics(sol, w, domain)
    for i in range(w.n_paths):
        diag = row(diags, i)
        assert bits(diag) == bits(row(nd_solution_diagnostics(sol[i], w[i], domain), 0))
        interior_mass, angular_gap = per_landing_diagnostics(sol[i], domain)
        assert diag["interior_pushing_mass"] == interior_mass
        assert abs(diag["max_angular_gap"] - angular_gap) <= 1e-14
        assert diag["max_angular_gap"] <= 1e-6
    tols = nd_solution_diagnostics(sol, w, domain, containment_tol=1e-7)
    assert list(tols["containment_tol"]) == [1e-7] * w.n_paths


def interior_pushing_solution():
    """Hand-built orthant solution: two pushes at interior points, then two on x = 0.

    The last boundary push points along the face, a unit angular gap.
    """
    X = np.array([[1.0, 1.0], [1.5, 1.0], [2.0, 2.0], [2.5, 2.25], [0.0, 1.5], [0.0, 1.2]])
    phi = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.5, 0.75], [1.0, 0.75], [1.0, 1.05]])
    grid = TimeGrid.uniform(1.0, 5)
    norms = np.linalg.norm(np.diff(phi, axis=0), axis=1)
    dirs = np.full_like(X, np.nan)
    dirs[1:][norms > 0.0] = np.diff(phi, axis=0)[norms > 0.0] / norms[norms > 0.0, None]
    sol = SkorokhodNdSolution(
        X=SampledPath.step(grid, X),
        phi=SampledPath.step(grid, phi),
        total_variation=np.concatenate([[0.0], np.cumsum(norms)]),
        directions=dirs,
    )
    return sol, SampledPath.step(grid, X - phi)


def concatenated(sols):
    """One step solution whose rows are the rows of sols, in order."""
    grid = sols[0].X.grid
    return SkorokhodNdSolution(
        X=SampledPath.step(grid, np.concatenate([s.X.values for s in sols])),
        phi=SampledPath.step(grid, np.concatenate([s.phi.values for s in sols])),
        total_variation=np.concatenate([s.total_variation for s in sols]),
        directions=np.concatenate([s.directions for s in sols]),
    )


def test_diagnostics_many_with_interior_pushing_match_batches_of_one():
    hand, hand_w = interior_pushing_solution()
    w = scaled_drivers([0.25, 0.25], seed=76, n_paths=4, n_steps=5, factor=4.0)
    solved = solve_skorokhod_step(w, orthant(2))
    sol = concatenated([solved[0], hand, solved[1:], hand])
    ws = SampledPath.step(w.grid, np.concatenate([w[0].values, hand_w.values, w[1:].values, hand_w.values]))
    many = nd_solution_diagnostics(sol, ws, orthant(2))
    for i in range(ws.n_paths):
        assert bits(row(many, i)) == bits(row(nd_solution_diagnostics(sol[i], ws[i], orthant(2)), 0))
    assert many["interior_pushing_mass"][1] == float(np.sqrt(0.5)) + 0.25
    assert many["max_angular_gap"][1] == 1.0
    assert many["decomposition_max_abs"][1] == 0.0
    assert bits(row(many, 1)) == bits(row(many, -1))


def test_diagnostics_many_rejects_mismatched_drivers():
    w = scaled_drivers([0.0, 0.0], seed=77, n_paths=3, n_steps=16, factor=1.0)
    sol = solve_skorokhod_step(w, unit_disc())
    # same length, another grid
    off_grid = SampledPath.step(TimeGrid.uniform(2.0, 16), w.values)
    with pytest.raises(ValueError, match="drivers are not on the solutions' grid"):
        nd_solution_diagnostics(sol, off_grid, unit_disc())
    # another length
    short = brownian_step([0.0, 0.0], seed=77, n_steps=8)
    with pytest.raises(ValueError, match="drivers are not on the solutions' grid"):
        nd_solution_diagnostics(sol[0], short, unit_disc())
    # another dimension
    wide = SampledPath.step(w.grid, np.zeros((3, 17, 3)))
    with pytest.raises(ValueError, match="drivers have dimension 3, the solutions 2"):
        nd_solution_diagnostics(sol, wide, unit_disc())
    with pytest.raises(ValueError, match="need one driver per solution, got 2 for 3"):
        nd_solution_diagnostics(sol, w[:2], unit_disc())


def per_path_tanaka_gap(sol, other):
    """The per-path form of the pairwise slack, one pair of one-path solutions."""
    u = sol.input_values[0] - other.input_values[0]
    delta = sol.phi.values[0] - other.phi.values[0]
    diff_x = sol.X.values[0] - other.X.values[0]
    atom_terms = np.einsum("ij,ij->i", u[1:], np.diff(delta, axis=0))
    cum_atoms = np.concatenate(([0.0], np.cumsum(atom_terms)))
    rhs = np.einsum("ij,ij->i", u, u) + 2.0 * (np.einsum("ij,ij->i", u, delta) - cum_atoms)
    return float(np.min(rhs - np.einsum("ij,ij->i", diff_x, diff_x)))


def per_path_modulus_gap(sol, i, n):
    """The per-path form of the oscillation slack between grid indices i <= n."""
    w, X, phi = sol.input_values[0], sol.X.values[0], sol.phi.values[0]
    rhs = float(np.sum((w[n] - w[i]) ** 2))
    if n > i:
        dphi = np.diff(phi[i : n + 1], axis=0)
        rhs += 2.0 * float(np.einsum("ij,ij->i", w[n] - w[i + 1 : n + 1], dphi).sum())
    return rhs - float(np.sum((X[n] - X[i]) ** 2))


@pytest.mark.parametrize("domain,start,quiet_start", MIXED_CASES, ids=["disc", "orthant", "strip"])
def test_gaps_many_match_batches_of_one_and_per_path_forms(domain, start, quiet_start):
    sol = solve_skorokhod_step(mixed_batch(domain, start, quiet_start), domain)
    times = sol.X.grid.times
    tanaka = tanaka_inequality_gap(sol[:-1], sol[1:])
    assert tanaka.shape == (sol.X.n_paths - 1,)
    for p, gap in enumerate(tanaka):
        a, b = sol[p], sol[p + 1]
        assert bits([gap, gap]) == bits([tanaka_inequality_gap(a, b)[0], per_path_tanaka_gap(a, b)])
    for i, n in ((0, 96), (32, 64), (20, 21), (40, 40)):
        mod = modulus_gap(sol, times[i], times[n])
        assert mod.shape == (sol.X.n_paths,)
        for p, gap in enumerate(mod):
            assert bits([gap, gap]) == bits(
                [modulus_gap(sol[p], times[i], times[n])[0], per_path_modulus_gap(sol[p], i, n)]
            )


def test_gaps_many_input_validation():
    w = brownian_step([0.0, 0.0], seed=78, n_steps=32)
    a = solve_skorokhod_step(w, halfplane())
    b = solve_skorokhod_step(brownian_step([0.0, 0.0], seed=78, n_steps=64), halfplane())
    with pytest.raises(ValueError, match="other solutions are not on the solutions' grid"):
        tanaka_inequality_gap(a, b)
    two = solve_skorokhod_step(SampledPath.step(w.grid, np.concatenate([w.values, w.values])), halfplane())
    with pytest.raises(ValueError, match="need one other solution per solution, got 1 for 2"):
        tanaka_inequality_gap(two, a)


def test_solution_rows_equal_batches_of_one_built_from_the_row():
    w = mixed_batch(unit_disc(), [0.0, 0.0], [0.1, 0.1], n_paths=4, n_steps=24)
    sol = solve_skorokhod_step(w, unit_disc())
    for i in range(-4, 4):
        built = SkorokhodNdSolution(
            X=SampledPath.step(w.grid, sol.X.values[i]),
            phi=SampledPath.step(w.grid, sol.phi.values[i]),
            total_variation=sol.total_variation[i],
            directions=sol.directions[i],
        )
        got = sol[i]
        for name in ("total_variation", "directions"):
            assert getattr(got, name).shape == getattr(built, name).shape
            assert getattr(got, name).tobytes() == getattr(built, name).tobytes()
        assert got.X.values.tobytes() == built.X.values.tobytes()
        assert got.phi.values.tobytes() == built.phi.values.tobytes()
    assert sol[1:3].total_variation.tobytes() == sol.total_variation[1:3].tobytes()
    with pytest.raises(ValueError, match="at least one path"):
        sol[4:]


def test_solution_rejects_a_driver_with_another_number_of_paths():
    grid, zeros, parts = _solution_parts()
    driver = SampledPath.continuous(grid, np.zeros((2, 5, 1)))
    with pytest.raises(ValueError, match="driver"):
        SkorokhodNdSolution(phi=zeros, driver=driver, **parts)


# --- geometric conditions ---------------------------------------------------


def test_condition_a_halfplane():
    rep = check_condition_a(halfplane()).condition_a
    assert rep.status == "holds"
    assert np.allclose(rep.e, [0.0, 1.0], atol=1e-9)
    assert rep.c == pytest.approx(1.0, abs=1e-12)


def test_condition_a_orthant_symmetric_optimum():
    rep = check_condition_a(orthant(2)).condition_a
    assert rep.status == "holds"
    assert rep.c == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
    assert np.allclose(rep.e, np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-5)
    # reported pair always satisfies the certified margin
    assert np.min(orthant(2).normals @ rep.e) >= rep.c - 1e-9


def test_condition_a_strip_provable_failure():
    rep = check_condition_a(strip()).condition_a
    assert rep.status == "fails"
    assert "antipodal" in rep.detail


def test_condition_a_ball_unknown_and_dimension_guard():
    rep = check_condition_a(unit_disc()).condition_a
    assert rep.status == "unknown"
    with pytest.raises(ValueError):
        check_condition_a(orthant(9))


def test_condition_b_cases():
    disc = check_condition_b(unit_disc()).condition_b
    assert disc.status == "holds" and "bounded" in disc.reason
    plane = check_condition_b(halfplane()).condition_b
    assert plane.status == "holds" and "2" in plane.reason
    o3 = check_condition_b(orthant(3)).condition_b
    assert o3.status == "unknown"
    # bounded polytope without balls: a box in R^3
    box_domain = ConvexDomain(
        3,
        normals=np.vstack([np.eye(3), -np.eye(3)]),
        offsets=[0.0, 0.0, 0.0, -1.0, -1.0, -1.0],
        interior_point=[0.5, 0.5, 0.5],
    )
    box = check_condition_b(box_domain).condition_b
    assert box.status == "holds" and "bounded" in box.reason
