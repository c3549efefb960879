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
    Integrand,
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    ito_formula_residual,
    ito_integral,
    ito_isometry_samples,
    quadratic_variation,
)
from skorokhod_kit.itocalc import (
    brownian_local_time_mean,
    integrand_grid_values,
    local_time_occupation_batch,
    local_time_tanaka_batch,
)
from skorokhod_kit.randomness import brownian_paths, normal_matrix
from skorokhod_kit.stats import McEstimate


def make_brownian(n_steps=1000, seed=3, stream=0, T=1.0):
    grid = TimeGrid.uniform(T, n_steps)
    return brownian_sample(grid, 1, 0.0, RngSeed(seed, stream))


# --- ito_integral -----------------------------------------------------------


def prefix_oracle(evaluate):
    """A block evaluator from a per-point one: entry (i, k) is
    evaluate(t_k, times[:k + 1], row_i[:k + 1]), which sees nothing later."""

    def fn(ts, xs):
        out = np.empty(xs.shape)
        for i, row in enumerate(xs):
            for k in range(xs.shape[1]):
                out[i, k] = evaluate(ts[k], ts[: k + 1], row[: k + 1])
        return out

    return fn


def running_mean(ts, xs):
    # a causal, path-dependent integrand: the mean of each row so far
    return np.cumsum(xs, axis=1) / np.arange(1, xs.shape[1] + 1)


def test_constant_integrand_telescopes():
    B = make_brownian(500)
    got = ito_integral(Integrand.constant(2.5), B)
    x = B.scalar_values
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.5 * (x[-1] - x[0]), abs=1e-12)


def test_identity_integrand_closed_form_per_path():
    # sum B dB = (B_T^2 - [B]_T) / 2 exactly at grid level; against the
    # continuum value (B_T^2 - T)/2 the rms gap is small at dt = 1e-4
    grid = TimeGrid.uniform(1.0, 10_000)
    B = SampledPath.continuous(grid, brownian_paths(RngSeed(6), 100, grid))
    x = B.values[..., 0]
    got = ito_integral(Integrand(lambda t, x: x), B)
    exact_discrete = (x[:, -1] ** 2 - quadratic_variation(B).values[:, -1, 0]) / 2.0
    assert np.allclose(got, exact_discrete, rtol=0.0, atol=1e-10)
    rms = float(np.sqrt(np.mean(np.square(got - (x[:, -1] ** 2 - 1.0) / 2.0))))
    assert rms <= 0.02


def test_martingale_property_zero_mean():
    # E int B^2 dB = 0; modest sample, 4 standard errors
    grid = TimeGrid.uniform(1.0, 400)
    B = SampledPath.continuous(grid, brownian_paths(RngSeed(8), 4000, grid))
    vals = ito_integral(Integrand(lambda t, x: x**2), B)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) <= 4.0 * se


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_linearity_exact(alpha, beta):
    B = make_brownian(200, seed=12)
    f = Integrand(lambda t, x: x)
    g = Integrand.of_time(lambda t: np.sin(t))
    combo = Integrand(lambda t, x: alpha * x + beta * np.sin(t))
    lhs = ito_integral(combo, B)
    rhs = alpha * ito_integral(f, B) + beta * ito_integral(g, B)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_causality_of_prefix_evaluator():
    # the block is evaluated whole, then row 0 up to the middle column alone
    seen = []

    def fn(ts, xs):
        seen.append((len(ts), xs.shape))
        return xs.copy()

    grid = TimeGrid.uniform(1.0, 16)
    x = np.arange(3.0 * len(grid)).reshape(3, -1)
    assert np.array_equal(integrand_grid_values(Integrand(fn), grid.times, x), x)
    assert seen == [(17, (3, 17)), (9, (1, 9))]


@pytest.mark.parametrize(
    "fn",
    [
        lambda t, xs: xs - xs.mean(axis=1, keepdims=True),  # looks ahead in time
        lambda t, xs: xs - xs.mean(),  # reads the other paths
    ],
    ids=["lookahead", "cross-row"],
)
def test_non_adapted_integrand_is_contract_error(fn):
    grid = TimeGrid.uniform(1.0, 40)
    B = SampledPath.continuous(grid, brownian_paths(RngSeed(13), 3, grid))
    with pytest.raises(ContractError, match="path 0 up to step 20"):
        ito_integral(Integrand(fn), B)
    with pytest.raises(ContractError, match="path 0 up to step 15"):
        ito_isometry_samples(Integrand(fn), 1.0, 70, RngSeed(13), n_steps=30)


def test_vectorized_and_scalar_paths_agree():
    # block evaluators against the per-point prefix oracle, Markov and
    # path-dependent, on a batch of paths
    grid = TimeGrid.uniform(1.0, 300)
    x = brownian_paths(RngSeed(9), 4, grid)
    B = SampledPath.continuous(grid, x)
    x = x[..., 0]
    cases = [
        (lambda t, x: x * np.cos(t), lambda t, ts, xs: float(xs[-1] * np.cos(t))),
        (running_mean, lambda t, ts, xs: float(xs.mean())),
    ]
    for fast, slow in cases:
        block = integrand_grid_values(Integrand(fast), grid.times, x)
        assert np.allclose(block, prefix_oracle(slow)(grid.times, x), rtol=1e-12, atol=1e-15)
        got = ito_integral(Integrand(fast), B)
        assert np.allclose(got, ito_integral(Integrand(prefix_oracle(slow)), B), atol=1e-12)


@pytest.mark.parametrize("name", ["of_state", "running_mean"])
def test_batch_integral_rows_equal_batches_of_one(name):
    f = ORACLE_INTEGRANDS[name]
    grid = TimeGrid.uniform(1.0, 9000)
    B = SampledPath.continuous(grid, brownian_paths(RngSeed(14), 5, grid))
    batch = ito_integral(f, B)
    assert batch.shape == (5,)
    for i in range(5):
        assert ito_integral(f, B[i]).tobytes() == batch[i : i + 1].tobytes()


def test_non_finite_integrand_is_evaluation_fault():
    B = make_brownian(50)
    bad = Integrand(lambda t, x: x / 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationFault):
            ito_integral(bad, B)


# --- isometry ---------------------------------------------------------------


def isometry_estimates(*args, **kwargs):
    # McEstimates of ito_isometry_samples' two arrays, as ito-isometry reports them
    return tuple(map(McEstimate.from_samples, ito_isometry_samples(*args, **kwargs)))


def test_isometry_constant_integrand():
    lhs, rhs = isometry_estimates(Integrand.constant(1.0), 1.0, 2000, RngSeed(5), n_steps=200)
    assert rhs.mean == pytest.approx(1.0, abs=1e-12)
    assert rhs.std_error <= 1e-15
    assert abs(lhs.mean - 1.0) <= 3.0 * lhs.std_error


def test_isometry_identity_integrand():
    f = Integrand(lambda t, x: x)
    lhs, rhs = isometry_estimates(f, 1.0, 4000, RngSeed(15), n_steps=500)
    joint = np.hypot(lhs.std_error, rhs.std_error)
    assert abs(rhs.mean - 0.5) <= 3.0 * rhs.std_error
    assert abs(lhs.mean - rhs.mean) <= 4.0 * joint


def test_isometry_square_integrand_fourth_moment():
    # E int B^4 dt = int 3 t^2 dt = 1, the square-integrability witness for B^2
    f = Integrand(lambda t, x: x**2)
    oracle, err = quad(lambda t: 3.0 * t**2, 0.0, 1.0)
    assert err < 1e-10
    _, rhs = isometry_estimates(f, 1.0, 4000, RngSeed(16), n_steps=500)
    assert abs(rhs.mean - oracle) <= 4.0 * rhs.std_error


def isometry_oracle(f, T, n_paths, rng, n_steps=1000, first_stream=0):
    # the per-path loop ito_isometry_samples ran before it was batched
    grid = TimeGrid.uniform(T, n_steps)
    times = grid.times
    sqrt_dt = np.sqrt(grid.deltas)
    dt = grid.deltas
    lhs_samples = np.empty(n_paths)
    rhs_samples = np.empty(n_paths)
    for i in range(n_paths):
        dB = normal_matrix(RngSeed(rng.seed, first_stream + i), 1, n_steps)[0] * sqrt_dt
        x = np.concatenate(([0.0], np.cumsum(dB)))
        vals = integrand_grid_values(f, times, x[None])[0]
        # numpy's pairwise sums, BLAS-free like the batched route
        lhs_samples[i] = (vals[:-1] * dB).sum()
        rhs_samples[i] = (vals[:-1] ** 2 * dt).sum()
    lhs_samples **= 2
    return McEstimate.from_samples(lhs_samples), McEstimate.from_samples(rhs_samples)


ORACLE_INTEGRANDS = {
    "constant": Integrand.constant(1.5),
    "of_time": Integrand.of_time(lambda t: np.sin(3.0 * t)),
    "of_state": Integrand(lambda t, x: x * np.cos(t) + 0.25 * x**2),
    "evaluate_only": Integrand(lambda t, xs: xs - 0.5 * running_mean(t, xs)),
    "running_mean": Integrand(running_mean),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INTEGRANDS))
@pytest.mark.parametrize("n_paths", [2, 64, 65, 200])
def test_isometry_matches_per_path_oracle(name, n_paths):
    f = ORACLE_INTEGRANDS[name]
    args = (f, 1.3, n_paths, RngSeed(41))
    assert isometry_estimates(*args, n_steps=60) == isometry_oracle(*args, n_steps=60)


@pytest.mark.parametrize("name", ["constant", "of_state"])
def test_isometry_matches_oracle_at_default_steps_and_offset_streams(name):
    f = ORACLE_INTEGRANDS[name]
    args = (f, 0.8, 130, RngSeed(-3), 1000)
    got = isometry_estimates(*args, first_stream=2**32 + 5)
    assert got == isometry_oracle(*args, first_stream=2**32 + 5)
    assert got != isometry_estimates(*args)


def _nan_at(path, step):
    # a block evaluator that is NaN at one point of the run below (seed 2,
    # streams from 9, 30 steps), found by its path value: blocks of paths
    # are evaluated in any order
    targets = _marked_points(RngSeed(2), 9, 30, [(path, step)])

    def fn(ts, xs):
        out = xs.copy()
        out[_is_marked(targets, ts, xs)] = np.nan
        return out

    return Integrand(fn)


def _nan_at_scalar(path, step):
    # a per-point evaluator that is NaN at one point of the run below (seed
    # 2, streams from 9, 30 steps), found by its path value
    targets = _marked_points(RngSeed(2), 9, 30, [(path, step)])

    def evaluate(t, ts, xs):
        return np.nan if _is_marked(targets, t, xs[-1]) else float(xs[-1])

    return Integrand(prefix_oracle(evaluate))


@pytest.mark.parametrize("make", [_nan_at, _nan_at_scalar])
def test_isometry_fault_names_path_and_step(make):
    # path 70 lies in the second block of paths
    with pytest.raises(EvaluationFault) as err:
        ito_isometry_samples(make(70, 17), 1.0, 100, RngSeed(2), n_steps=30, first_stream=9)
    assert err.value.step_index == 17
    assert err.value.path_index == 70


POINTWISE_FACTORIES = {
    "constant": Integrand.constant(-0.75),
    "of_time": Integrand.of_time(lambda t: np.exp(-t) * np.sin(7.0 * t)),
    "of_state": Integrand(lambda t, x: np.tanh(x) * np.cos(t) + x**3),
}


@pytest.mark.parametrize("name", sorted(POINTWISE_FACTORIES))
def test_pointwise_block_matches_rows_bit_for_bit(name):
    f = POINTWISE_FACTORIES[name]
    grid = TimeGrid.uniform(1.7, 333)
    x = np.cumsum(np.random.default_rng(8).standard_normal((37, len(grid))) * 0.07, axis=1)
    block = integrand_grid_values(f, grid.times, x)
    rows = np.concatenate([integrand_grid_values(f, grid.times, row[None]) for row in x])
    assert block.shape == x.shape
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


def _marked_points(rng, first_stream, n_steps, marks):
    # the (t, x) of grid step `step` on path `path` for each (path, step) in
    # marks; no other grid point of the run shares its path value
    grid = TimeGrid.uniform(1.0, n_steps)
    targets = []
    for path, step in marks:
        z = normal_matrix(RngSeed(rng.seed, first_stream + path), 1, n_steps)[0]
        dB = z * np.sqrt(grid.deltas)
        targets.append((grid.times[step], np.cumsum(dB)[step - 1]))
    return targets


def _is_marked(targets, t, x):
    hit = np.zeros(np.broadcast(t, x).shape, dtype=bool)
    for t_mark, x_mark in targets:
        hit |= (t == t_mark) & (x == x_mark)
    return hit


def _pointwise_nan_at(rng, first_stream, n_steps, marks):
    # an elementwise integrand that is NaN at each marked point
    targets = _marked_points(rng, first_stream, n_steps, marks)
    return Integrand(lambda t, x: np.where(_is_marked(targets, t, x), np.nan, x))


@pytest.mark.parametrize(
    "marks",
    [[(70, 17)], [(71, 2), (70, 17)], [(70, 25), (99, 1), (70, 17)]],
)
def test_pointwise_fault_names_first_path_then_step(marks):
    # path 70 lies in the second block of paths; a NaN at an earlier step of
    # a later path in the same block does not hide it
    f = _pointwise_nan_at(RngSeed(2), 9, 30, marks)
    with pytest.raises(EvaluationFault) as err:
        ito_isometry_samples(f, 1.0, 100, RngSeed(2), n_steps=30, first_stream=9)
    assert (err.value.path_index, err.value.step_index) == (70, 17)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize(
    "marks, first",
    [([(1094, 2), (70, 17)], (70, 17)), ([(2050, 1), (1094, 17)], (1094, 17))],
)
def test_pooled_fault_names_run_path_across_chunks(monkeypatch, threads, marks, first):
    # 2100 paths make 33 blocks of 64 paths, finished on the pool's threads in
    # any order; path 1094 is path 6 of block 17, and the fault of the lowest
    # failing block is raised, naming the path by its index in the whole run
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", threads)
    f = _pointwise_nan_at(RngSeed(2), 9, 30, marks)
    with pytest.raises(EvaluationFault) as err:
        ito_isometry_samples(f, 1.0, 2100, RngSeed(2), 30, first_stream=9)
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
        ito_isometry_samples(Integrand.constant(1.0), 1.0, 0, RngSeed(0))


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
    assert local_time_occupation_batch(np.full((1, 101), 5.0), grid, 0.0, [1.0]) == 0.0


def test_occupation_linear_path_exact_sojourn():
    # X(s) = s spends time 0.2 in (0.4, 0.6); scaled by 1/(4 * 0.1) gives 0.5
    n = 100_000
    grid = TimeGrid.uniform(1.0, n)
    est = local_time_occupation_batch(grid.times[None], grid, 0.5, [0.1])[0, 0]
    assert est == pytest.approx(0.5, abs=2.0 / n)


def test_occupation_rejects_bad_bandwidth():
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        local_time_occupation_batch(np.zeros((1, 5)), grid, 0.0, [0.1, 0.0])
    with pytest.raises(ValueError, match="eps_list"):
        local_time_occupation_batch(np.zeros((1, 5)), grid, 0.0, [])


def test_occupation_estimate_never_negative():
    grid = TimeGrid.uniform(1.0, 500)
    v = brownian_paths(RngSeed(30), 50, grid)[..., 0]
    est = local_time_occupation_batch(v, grid, 0.0, [0.05])
    assert est.shape == (1, 50) and np.all(est >= 0.0)


def test_tanaka_path_above_level_telescopes():
    grid = TimeGrid.uniform(1.0, 64)
    a = 0.7
    assert local_time_tanaka_batch((a + 1.0 + grid.times)[None], a) == pytest.approx([0.0], abs=1e-12)


@pytest.mark.parametrize("a", [0.0, -0.3, 0.2])
def test_tanaka_estimate_is_ito_integral_of_the_indicator(a):
    # the Tanaka sum is ito_integral's left-point sum, bit for bit
    grid = TimeGrid.uniform(1.0, 2000)
    B = SampledPath.continuous(grid, brownian_paths(RngSeed(40), 8, grid, 1, 0.1))
    x = B.values[..., 0]
    above = ito_integral(Integrand(lambda t, x: (x > a) * 1.0), B)
    want = np.maximum(x[:, -1] - a, 0.0) - np.maximum(x[:, 0] - a, 0.0) - above
    assert local_time_tanaka_batch(x, a).tobytes() == want.tobytes()


def test_tanaka_path_below_level_is_zero():
    grid = TimeGrid.uniform(1.0, 64)
    assert local_time_tanaka_batch((-5.0 + np.sin(grid.times))[None], 0.0) == [0.0]


def test_local_time_means_match_quadrature_oracle():
    # E phi(1, 0) = (1/2) int_0^1 (2 pi s)^(-1/2) ds, evaluated by quadrature
    oracle, err = quad(lambda s: 0.5 / np.sqrt(2.0 * np.pi * s), 0.0, 1.0)
    assert err < 1e-9
    assert oracle == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-9)
    n, block = 2000, 250
    grid = TimeGrid.uniform(1.0, 4000)
    occ = np.empty(n)
    tan = np.empty(n)
    for start in range(0, n, block):
        v = brownian_paths(RngSeed(33), block, grid, first_stream=start)[..., 0]
        occ[start : start + block] = local_time_occupation_batch(v, grid, 0.0, [0.02])[0]
        tan[start : start + block] = local_time_tanaka_batch(v, 0.0)
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
        "from skorokhod_kit import (Integrand, RngSeed, SampledPath,\n"
        "    TimeGrid, brownian_sample, ito_formula_residual, ito_integral)\n"
        "from skorokhod_kit.itocalc import local_time_tanaka_batch\n"
        "grid = TimeGrid.uniform(1.0, 200_000)\n"
        "B = brownian_sample(grid, 1, 0.0, RngSeed(3))\n"
        "f = Integrand(lambda t, x: np.sin(x))\n"
        "res = ito_formula_residual(lambda t, x: x**3, lambda t, x: 0.0 * np.asarray(x),\n"
        "    lambda t, x: 3.0 * np.asarray(x) ** 2, lambda t, x: 6.0 * np.asarray(x), B,\n"
        "    SampledPath.continuous(grid, grid.times))\n"
        "vals = [float(ito_integral(f, B)[0]),\n"
        "    float(local_time_tanaka_batch(B.values[..., 0], 0.1)[0]), float(res[0])]\n"
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
