import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from skorokhod_kit import (
    ContractError,
    EvaluationFault,
    InitialLaw,
    Integrand,
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    ito_formula_residual,
    ito_integral,
    ito_isometry_check,
    ito_isometry_samples,
    local_time_occupation,
    local_time_tanaka,
    quadratic_variation,
)
from skorokhod_kit.itocalc import brownian_local_time_mean, integrand_grid_values
from skorokhod_kit.randomness import brownian_paths, standard_normals
from skorokhod_kit.stats import McEstimate


def make_brownian(n_steps=1000, seed=3, stream=0, T=1.0):
    grid = TimeGrid.uniform(T, n_steps)
    return brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(seed, stream))


# --- ito_integral -----------------------------------------------------------


def test_constant_integrand_telescopes():
    B = make_brownian(500)
    got = ito_integral(Integrand.constant(2.5), B)
    x = B.scalar_values
    assert got == pytest.approx(2.5 * (x[-1] - x[0]), abs=1e-12)


def test_identity_integrand_closed_form_per_path():
    # sum B dB = (B_T^2 - [B]_T) / 2 exactly at grid level; against the
    # continuum value (B_T^2 - T)/2 the rms gap is small at dt = 1e-4
    f = Integrand.of_state(lambda t, x: x)
    gaps = []
    for i in range(100):
        B = make_brownian(10_000, seed=6, stream=i)
        x = B.scalar_values
        got = ito_integral(f, B)
        exact_discrete = (x[-1] ** 2 - quadratic_variation(B).scalar_values[-1]) / 2.0
        assert got == pytest.approx(exact_discrete, abs=1e-10)
        gaps.append(got - (x[-1] ** 2 - 1.0) / 2.0)
    rms = float(np.sqrt(np.mean(np.square(gaps))))
    assert rms <= 0.02


def test_martingale_property_zero_mean():
    # E int B^2 dB = 0; modest sample, 4 standard errors
    f = Integrand.of_state(lambda t, x: x**2)
    n = 4000
    vals = np.empty(n)
    for i in range(n):
        vals[i] = ito_integral(f, make_brownian(400, seed=8, stream=i))
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) <= 4.0 * se


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_linearity_exact(alpha, beta):
    B = make_brownian(200, seed=12)
    f = Integrand.of_state(lambda t, x: x)
    g = Integrand.of_time(lambda t: np.sin(t))
    combo = Integrand.of_state(lambda t, x: alpha * x + beta * np.sin(t))
    lhs = ito_integral(combo, B)
    rhs = alpha * ito_integral(f, B) + beta * ito_integral(g, B)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_causality_of_prefix_evaluator():
    seen = []

    def evaluator(t, times, values):
        seen.append((t, times[-1], len(times), len(values)))
        return 1.0

    B = make_brownian(16)
    ito_integral(Integrand(evaluate=evaluator), B)
    for k, (t, t_last, n_times, n_values) in enumerate(seen):
        assert t == t_last
        assert n_times == k + 1 == n_values


def test_vectorized_and_scalar_paths_agree():
    B = make_brownian(300, seed=9)
    fast = Integrand.of_state(lambda t, x: x * np.cos(t))
    slow = Integrand(evaluate=lambda t, ts, xs: float(xs[-1] * np.cos(t)))
    assert ito_integral(fast, B) == pytest.approx(ito_integral(slow, B), abs=1e-12)


def test_non_finite_integrand_is_evaluation_fault():
    B = make_brownian(50)
    bad = Integrand.of_state(lambda t, x: x / 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationFault):
            ito_integral(bad, B)


# --- isometry ---------------------------------------------------------------


def test_isometry_constant_integrand():
    lhs, rhs = ito_isometry_check(Integrand.constant(1.0), 1.0, 2000, RngSeed(5), n_steps=200)
    assert rhs.mean == pytest.approx(1.0, abs=1e-12)
    assert rhs.std_error <= 1e-15
    assert abs(lhs.mean - 1.0) <= 3.0 * lhs.std_error


def test_isometry_identity_integrand():
    f = Integrand.of_state(lambda t, x: x)
    lhs, rhs = ito_isometry_check(f, 1.0, 4000, RngSeed(15), n_steps=500)
    joint = np.hypot(lhs.std_error, rhs.std_error)
    assert abs(rhs.mean - 0.5) <= 3.0 * rhs.std_error
    assert abs(lhs.mean - rhs.mean) <= 4.0 * joint


def test_isometry_square_integrand_fourth_moment():
    # E int B^4 dt = int 3 t^2 dt = 1, the square-integrability witness for B^2
    f = Integrand.of_state(lambda t, x: x**2)
    oracle, err = quad(lambda t: 3.0 * t**2, 0.0, 1.0)
    assert err < 1e-10
    _, rhs = ito_isometry_check(f, 1.0, 4000, RngSeed(16), n_steps=500)
    assert abs(rhs.mean - oracle) <= 4.0 * rhs.std_error


def isometry_oracle(f, T, n_paths, rng, n_steps=1000, first_stream=0):
    # the per-path loop ito_isometry_check ran before it was batched
    grid = TimeGrid.uniform(T, n_steps)
    times = grid.times
    sqrt_dt = np.sqrt(grid.deltas)
    dt = grid.deltas
    lhs_samples = np.empty(n_paths)
    rhs_samples = np.empty(n_paths)
    for i in range(n_paths):
        gen = rng.with_stream(first_stream + i).generator()
        dB = standard_normals(gen, n_steps) * sqrt_dt
        x = np.concatenate(([0.0], np.cumsum(dB)))
        vals = integrand_grid_values(f, times, x)
        # numpy's pairwise sums, BLAS-free like the batched route
        lhs_samples[i] = (vals[:-1] * dB).sum()
        rhs_samples[i] = (vals[:-1] ** 2 * dt).sum()
    lhs_samples **= 2
    return McEstimate.from_samples(lhs_samples), McEstimate.from_samples(rhs_samples)


ORACLE_INTEGRANDS = {
    "constant": Integrand.constant(1.5),
    "of_time": Integrand.of_time(lambda t: np.sin(3.0 * t)),
    "of_state": Integrand.of_state(lambda t, x: x * np.cos(t) + 0.25 * x**2),
    "evaluate_only": Integrand(evaluate=lambda t, ts, xs: float(xs[-1] - 0.5 * xs.mean())),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INTEGRANDS))
@pytest.mark.parametrize("n_paths", [2, 64, 65, 200])
def test_isometry_matches_per_path_oracle(name, n_paths):
    f = ORACLE_INTEGRANDS[name]
    args = (f, 1.3, n_paths, RngSeed(41))
    assert ito_isometry_check(*args, n_steps=60) == isometry_oracle(*args, n_steps=60)


@pytest.mark.parametrize("name", ["constant", "of_state"])
def test_isometry_matches_oracle_at_default_steps_and_offset_streams(name):
    f = ORACLE_INTEGRANDS[name]
    args = (f, 0.8, 130, RngSeed(-3))
    got = ito_isometry_check(*args, first_stream=2**32 + 5)
    assert got == isometry_oracle(*args, first_stream=2**32 + 5)
    assert got != ito_isometry_check(*args)


def _nan_at(path, step):
    # counts evaluate_path calls, which ito_isometry_check makes in path order
    calls = []

    def evaluate_path(ts, xs):
        calls.append(None)
        out = xs.copy()
        if len(calls) == path + 1:
            out[step] = np.nan
        return out

    return Integrand(evaluate=lambda t, ts, xs: float(xs[-1]), evaluate_path=evaluate_path)


def _nan_at_scalar(path, step):
    # counts paths by their first-step evaluations
    paths = []

    def evaluate(t, ts, xs):
        if len(ts) == 1:
            paths.append(None)
        return np.nan if (len(paths) == path + 1 and len(ts) == step + 1) else float(xs[-1])

    return Integrand(evaluate=evaluate)


@pytest.mark.parametrize("make", [_nan_at, _nan_at_scalar])
def test_isometry_fault_names_path_and_step(make):
    # path 70 lies in the second block of paths
    with pytest.raises(EvaluationFault) as err:
        ito_isometry_check(make(70, 17), 1.0, 100, RngSeed(2), n_steps=30, first_stream=9)
    assert err.value.step_index == 17
    assert err.value.path_index == 70


POINTWISE_FACTORIES = {
    "constant": Integrand.constant(-0.75),
    "of_time": Integrand.of_time(lambda t: np.exp(-t) * np.sin(7.0 * t)),
    "of_state": Integrand.of_state(lambda t, x: np.tanh(x) * np.cos(t) + x**3),
}


@pytest.mark.parametrize("name", sorted(POINTWISE_FACTORIES))
def test_pointwise_block_matches_rows_bit_for_bit(name):
    f = POINTWISE_FACTORIES[name]
    assert f.pointwise
    grid = TimeGrid.uniform(1.7, 333)
    x = np.cumsum(np.random.default_rng(8).standard_normal((37, len(grid))) * 0.07, axis=1)
    block = integrand_grid_values(f, grid.times, x)
    rows = np.array([integrand_grid_values(f, grid.times, row) for row in x])
    assert block.shape == x.shape
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


def test_custom_evaluate_path_sees_one_path_at_a_time():
    shapes = []

    def evaluate_path(ts, xs):
        shapes.append(xs.shape)
        return xs - xs.mean()  # depends on the whole path: not pointwise

    f = Integrand(evaluate=lambda t, ts, xs: float(xs[-1]), evaluate_path=evaluate_path)
    assert not f.pointwise
    x = np.arange(12.0).reshape(3, 4)
    got = integrand_grid_values(f, np.arange(4.0), x)
    assert shapes == [(4,)] * 3
    assert np.array_equal(got, x - x.mean(axis=1, keepdims=True))


def test_pointwise_needs_evaluate_path():
    with pytest.raises(ValueError):
        Integrand(evaluate=lambda t, ts, xs: 1.0, pointwise=True)


def _pointwise_nan_at(rng, first_stream, n_steps, marks):
    # a pointwise integrand that is NaN at grid step `step` of path `path` for
    # each (path, step) in marks; each point is found by its path value,
    # which no other grid point of the run shares
    grid = TimeGrid.uniform(1.0, n_steps)
    targets = []
    for path, step in marks:
        gen = rng.with_stream(first_stream + path).generator()
        dB = standard_normals(gen, n_steps) * np.sqrt(grid.deltas)
        targets.append((grid.times[step], np.cumsum(dB)[step - 1]))

    def fn(t, x):
        hit = np.zeros(np.broadcast(t, x).shape, dtype=bool)
        for t_mark, x_mark in targets:
            hit |= (t == t_mark) & (x == x_mark)
        return np.where(hit, np.nan, x)

    return Integrand.of_state(fn)


@pytest.mark.parametrize(
    "marks",
    [[(70, 17)], [(71, 2), (70, 17)], [(70, 25), (99, 1), (70, 17)]],
)
def test_pointwise_fault_names_first_path_then_step(marks):
    # path 70 lies in the second block of paths; a NaN at an earlier step of
    # a later path in the same block does not hide it
    f = _pointwise_nan_at(RngSeed(2), 9, 30, marks)
    with pytest.raises(EvaluationFault) as err:
        ito_isometry_check(f, 1.0, 100, RngSeed(2), n_steps=30, first_stream=9)
    assert (err.value.path_index, err.value.step_index) == (70, 17)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    "marks, first",
    [([(1094, 2), (70, 17)], (70, 17)), ([(2050, 1), (1094, 17)], (1094, 17))],
)
def test_pooled_fault_names_run_path_across_chunks(monkeypatch, threads, marks, first):
    # 2100 paths make three pool chunks of 1024; path 1094 is path 70 of the
    # second chunk and is named by its index in the whole run
    from skorokhod_kit.experiments import ISOMETRY_CHUNK, _pooled_isometry

    assert ISOMETRY_CHUNK == 1024
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", threads)
    f = _pointwise_nan_at(RngSeed(2), 9, 30, marks)
    with pytest.raises(EvaluationFault) as err:
        _pooled_isometry(f, 1.0, 2100, RngSeed(2), 30, first_stream=9)
    assert (err.value.path_index, err.value.step_index) == first


def test_isometry_samples_do_not_depend_on_the_split():
    # past 8,192 steps a one-row block is where einsum's row sums would differ
    f = ORACLE_INTEGRANDS["of_state"]
    whole = ito_isometry_samples(f, 1.0, 3, RngSeed(4), n_steps=9000, first_stream=11)
    one = ito_isometry_samples(f, 1.0, 1, RngSeed(4), n_steps=9000, first_stream=11)
    two = ito_isometry_samples(f, 1.0, 2, RngSeed(4), n_steps=9000, first_stream=12)
    for got, parts in zip(whole, zip(one, two)):
        assert np.array_equal(got, np.concatenate(parts))


def test_isometry_rejects_tiny_samples():
    with pytest.raises(ValueError):
        ito_isometry_check(Integrand.constant(1.0), 1.0, 1, RngSeed(0))


# --- quadratic variation ----------------------------------------------------


def test_qv_linear_path():
    n = 1000
    grid = TimeGrid.uniform(1.0, n)
    X = SampledPath.continuous(grid, grid.times.copy())
    qv = quadratic_variation(X)
    assert qv.scalar_values[-1] == pytest.approx(1.0 / n, rel=1e-12)


def test_qv_constant_path():
    grid = TimeGrid.uniform(1.0, 10)
    X = SampledPath.continuous(grid, np.full(11, 3.3))
    assert np.array_equal(quadratic_variation(X).scalar_values, np.zeros(11))


def test_qv_brownian_mean():
    n_paths, n_steps = 100, 20_000
    vals = np.empty(n_paths)
    for i in range(n_paths):
        vals[i] = quadratic_variation(make_brownian(n_steps, seed=21, stream=i)).scalar_values[-1]
    se = vals.std(ddof=1) / np.sqrt(n_paths)
    assert abs(vals.mean() - 1.0) <= 3.0 * se


def test_qv_additivity_exact():
    B = make_brownian(256, seed=22)
    qv = quadratic_variation(B)
    k = 100
    head = quadratic_variation(
        SampledPath.continuous(TimeGrid(B.grid.times[: k + 1]), B.scalar_values[: k + 1])
    )
    tail_increments = np.diff(B.scalar_values[k:]) ** 2
    recombined = head.scalar_values[-1] + np.cumsum(tail_increments)
    assert np.allclose(recombined, qv.scalar_values[k + 1 :], atol=1e-15)


def test_qv_validation():
    grid = TimeGrid.uniform(1.0, 2)
    X = SampledPath.continuous(grid, np.zeros((2, 3, 1)))
    F, F_t, F_x, F_xx = _cubic()
    bad = [
        ([0.0, 1.0, 0.5], "nondecreasing"),
        ([0.5, 1.0, 1.5], "starts at 0"),
        (np.zeros((3, 3, 1)), "one row or one per path"),
        (np.zeros((1, 3, 2)), "one-dimensional"),
    ]
    for values, message in bad:
        with pytest.raises(ValueError, match=message):
            ito_formula_residual(F, F_t, F_x, F_xx, X, SampledPath.continuous(grid, values))
    with pytest.raises(ValueError, match="share a grid"):
        ito_formula_residual(
            F, F_t, F_x, F_xx, X, SampledPath.continuous(TimeGrid.uniform(2.0, 2), np.zeros(3))
        )
    # one row for every path, or one per path (each row checked)
    per_path = np.array([[0.0, 0.5, 1.0], [0.0, 1.0, 0.5]])[..., None]
    with pytest.raises(ValueError, match="nondecreasing"):
        ito_formula_residual(F, F_t, F_x, F_xx, X, SampledPath.continuous(grid, per_path))
    with pytest.raises(ValueError, match="one-dimensional"):
        ito_formula_residual(F, F_t, F_x, F_xx, SampledPath.continuous(grid, np.zeros((3, 2))),
                             SampledPath.continuous(grid, grid.times))


# --- change of variables ----------------------------------------------------


def _cubic():
    return (
        lambda t, x: np.asarray(x) ** 3,
        lambda t, x: 0.0 * np.asarray(x),
        lambda t, x: 3.0 * np.asarray(x) ** 2,
        lambda t, x: 6.0 * np.asarray(x),
    )


def test_residual_identity_function_telescopes():
    B = make_brownian(5000, seed=25)
    qv = quadratic_variation(B)
    res = ito_formula_residual(
        lambda t, x: np.asarray(x),
        lambda t, x: 0.0 * np.asarray(x),
        lambda t, x: np.ones_like(np.asarray(x, dtype=np.float64)),
        lambda t, x: 0.0 * np.asarray(x),
        B,
        qv,
    )
    assert abs(res) <= 1e-10


def test_residual_square_minus_t_equals_qv_defect():
    # F = x^2 - t with the model bracket leaves exactly the realized-vs-model
    # quadratic variation difference
    B = make_brownian(2000, seed=26)
    model_qv = SampledPath.continuous(B.grid, B.grid.times)
    res = ito_formula_residual(
        lambda t, x: np.asarray(x) ** 2 - np.asarray(t),
        lambda t, x: -np.ones_like(np.asarray(x, dtype=np.float64)),
        lambda t, x: 2.0 * np.asarray(x),
        lambda t, x: 2.0 * np.ones_like(np.asarray(x, dtype=np.float64)),
        B,
        model_qv,
    )
    realized = quadratic_variation(B).scalar_values[-1]
    assert res == pytest.approx(realized - 1.0, abs=1e-10)


def test_residual_cubic_small_on_fine_grids():
    F, F_t, F_x, F_xx = _cubic()
    res = []
    for i in range(30):
        B = make_brownian(10_000, seed=27, stream=i)
        model_qv = SampledPath.continuous(B.grid, B.grid.times)
        res.append(ito_formula_residual(F, F_t, F_x, F_xx, B, model_qv))
    assert float(np.sqrt(np.mean(np.square(res)))) <= 0.05


def test_residual_rejects_wrong_partials():
    B = make_brownian(100, seed=28)
    qv = SampledPath.continuous(B.grid, B.grid.times)
    F, F_t, F_x, F_xx = _cubic()
    wrong_fx = lambda t, x: 2.9 * np.asarray(x) ** 2  # noqa: E731
    with pytest.raises(ContractError):
        ito_formula_residual(F, F_t, wrong_fx, F_xx, B, qv)


@pytest.mark.parametrize("bracket", ["model", "realized"])
def test_batched_residual_rows_equal_batches_of_one(bracket):
    grid = TimeGrid.uniform(1.0, 3000)
    X = SampledPath.continuous(grid, brownian_paths(RngSeed(30), 5, grid, x0=0.3))
    qv = {"model": SampledPath.continuous(grid, grid.times), "realized": quadratic_variation(X)}
    F, F_t, F_x, F_xx = _cubic()
    batch = ito_formula_residual(F, F_t, F_x, F_xx, X, qv[bracket])
    assert batch.shape == (5,)
    for i in range(5):
        one = qv[bracket][i] if bracket == "realized" else qv[bracket]
        row = ito_formula_residual(F, F_t, F_x, F_xx, X[i], one)
        assert row.shape == (1,) and row.tobytes() == batch[i : i + 1].tobytes()


def test_wrong_partial_on_one_path_names_that_path():
    grid = TimeGrid.uniform(1.0, 100)
    values = brownian_paths(RngSeed(31), 4, grid)
    values[2] += 10.0  # only path 2 reaches the region where F_x is wrong
    X = SampledPath.continuous(grid, values)
    F, F_t, F_x, F_xx = _cubic()
    wrong_fx = lambda t, x: np.where(x > 5.0, 2.9, 3.0) * np.asarray(x) ** 2  # noqa: E731
    with pytest.raises(ContractError, match="F_x on path 2 near"):
        ito_formula_residual(F, F_t, wrong_fx, F_xx, X, SampledPath.continuous(grid, grid.times))


def test_residual_requires_matching_grid():
    B = make_brownian(100, seed=29)
    other_grid = TimeGrid.uniform(1.0, 50)
    other = SampledPath.continuous(other_grid, other_grid.times)
    F, F_t, F_x, F_xx = _cubic()
    with pytest.raises(ValueError):
        ito_formula_residual(F, F_t, F_x, F_xx, B, other)


# --- local time -------------------------------------------------------------


def test_occupation_far_level_is_zero():
    grid = TimeGrid.uniform(1.0, 100)
    X = SampledPath.continuous(grid, np.full(101, 5.0))
    assert local_time_occupation(X, 0.0, 1.0).value == 0.0


def test_occupation_linear_path_exact_sojourn():
    # X(s) = s spends time 0.2 in (0.4, 0.6); scaled by 1/(4 * 0.1) gives 0.5
    n = 100_000
    grid = TimeGrid.uniform(1.0, n)
    X = SampledPath.continuous(grid, grid.times.copy())
    est = local_time_occupation(X, 0.5, 0.1)
    assert est.value == pytest.approx(0.5, abs=2.0 / n)


def test_occupation_rejects_bad_bandwidth():
    grid = TimeGrid.uniform(1.0, 4)
    X = SampledPath.continuous(grid, np.zeros(5))
    with pytest.raises(ValueError):
        local_time_occupation(X, 0.0, 0.0)


def test_occupation_estimate_never_negative():
    est = local_time_occupation(make_brownian(500, seed=30), 0.0, 0.05)
    assert est.value >= 0.0
    assert est.estimator == "occupation"


def test_tanaka_path_above_level_telescopes():
    grid = TimeGrid.uniform(1.0, 64)
    a = 0.7
    X = SampledPath.continuous(grid, a + 1.0 + grid.times)
    assert local_time_tanaka(X, a).value == pytest.approx(0.0, abs=1e-12)


def test_tanaka_path_below_level_is_zero():
    grid = TimeGrid.uniform(1.0, 64)
    X = SampledPath.continuous(grid, -5.0 + np.sin(grid.times))
    assert local_time_tanaka(X, 0.0).value == 0.0


def test_local_time_means_match_quadrature_oracle():
    # E phi(1, 0) = (1/2) int_0^1 (2 pi s)^(-1/2) ds, evaluated by quadrature
    oracle, err = quad(lambda s: 0.5 / np.sqrt(2.0 * np.pi * s), 0.0, 1.0)
    assert err < 1e-9
    assert oracle == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-9)
    n = 2000
    occ = np.empty(n)
    tan = np.empty(n)
    for i in range(n):
        B = make_brownian(4000, seed=33, stream=i)
        occ[i] = local_time_occupation(B, 0.0, 0.02).value
        tan[i] = local_time_tanaka(B, 0.0).value
    for sample in (occ, tan):
        se = sample.std(ddof=1) / np.sqrt(n)
        assert abs(sample.mean() - oracle) <= 4.0 * se


@pytest.mark.parametrize("a, T", [(0.0, 1.0), (-0.3, 1.0), (0.3, 1.0), (0.5, 2.0), (-1.2, 0.4)])
def test_local_time_mean_matches_quadrature(a, T):
    # E(B_T - a)^+ - (-a)^+ against quadrature of the Gaussian density
    density = lambda x: np.exp(-x * x / (2.0 * T)) / np.sqrt(2.0 * np.pi * T)  # noqa: E731
    # the mass past 12 standard deviations is below 1e-30
    top = max(a, 0.0) + 12.0 * np.sqrt(T)
    upper, err = quad(lambda x: (x - a) * density(x), a, top, epsabs=1e-13, limit=200)
    assert err < 1e-10
    assert brownian_local_time_mean(a, T) == pytest.approx(upper - max(-a, 0.0), rel=1e-9)


def test_local_time_mean_is_even_and_exact_at_zero():
    assert brownian_local_time_mean(0.0, 1.0) == float(1.0 / np.sqrt(2.0 * np.pi))
    assert brownian_local_time_mean(0.3, 1.0) == brownian_local_time_mean(-0.3, 1.0)
    assert brownian_local_time_mean(0.3, 1.0) == pytest.approx(0.2668, abs=5e-5)
    with pytest.raises(ValueError):
        brownian_local_time_mean(0.0, 0.0)


def test_path_sums_independent_of_blas_threads():
    # OpenBLAS splits a long dot product across its threads; the sums here
    # are numpy pairwise sums, so their bits do not depend on the thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import numpy as np\n"
        "from skorokhod_kit import (InitialLaw, Integrand, RngSeed, SampledPath,\n"
        "    TimeGrid, brownian_sample, ito_formula_residual, ito_integral, local_time_tanaka)\n"
        "grid = TimeGrid.uniform(1.0, 200_000)\n"
        "B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(3))\n"
        "f = Integrand.of_state(lambda t, x: np.sin(x))\n"
        "res = ito_formula_residual(lambda t, x: x**3, lambda t, x: 0.0 * np.asarray(x),\n"
        "    lambda t, x: 3.0 * np.asarray(x) ** 2, lambda t, x: 6.0 * np.asarray(x), B,\n"
        "    SampledPath.continuous(grid, grid.times))\n"
        "vals = [ito_integral(f, B), local_time_tanaka(B, 0.1).value, float(res[0])]\n"
        "print(' '.join(v.hex() for v in vals))\n"
    )
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas_threads)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout)
    assert len(outputs[0].split()) == 3
    assert outputs[0] == outputs[1]
