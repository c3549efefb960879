"""Stochastic calculus on sampled paths: left-point integrals, quadratic
variation, a residual checker for the change-of-variables formula, and two
local-time estimators.

Every sum here evaluates integrands at the left endpoint of each step. That
convention is fixed at the interface: it is what makes the discrete integral
a martingale transform, and the isometry and zero-mean properties hold for
it exactly in expectation. Sums are numpy pairwise sums, never BLAS, so their
bits do not depend on the BLAS thread count. The quadratic variation, the
change-of-variables residual and the local-time estimators run on batches of
paths, one row per path; a single path is a batch of one. A bracket [X] is a
SampledPath like X itself: realized (quadratic_variation, one row per path)
or the model bracket t of Brownian motion, one row shared by every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, EvaluationFault
from .paths import SampledPath, TimeGrid
from .randomness import RngSeed, brownian_increments, path_values


@dataclass(frozen=True)
class Integrand:
    """Adapted integrand f(t) evaluated from the path history up to t.

    ``evaluate(t, times, values)`` receives the grid times and path values up
    to and including t, never beyond: causality is structural. The optional
    ``evaluate_path`` computes all grid values in one vectorized call and
    must agree with ``evaluate``; it exists so Monte Carlo loops stay fast.
    ``pointwise`` declares that ``evaluate_path`` is an elementwise function
    of (t, X_t) that broadcasts: given times shaped (grid,) and values shaped
    (paths, grid), one call returns every path's values, each row equal bit
    for bit to that path's own call. ``constant``, ``of_time`` and
    ``of_state`` declare it; other integrands are evaluated path by path.
    ``m2_bound`` records a declared square-integrability witness; it is a
    contract, not something checked here (ito_isometry_check gives a
    Monte Carlo spot check of E int f^2 dt).
    """

    evaluate: Callable[[float, np.ndarray, np.ndarray], float]
    m2_bound: float | str = "unverified"
    evaluate_path: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    pointwise: bool = False

    def __post_init__(self):
        if self.pointwise and self.evaluate_path is None:
            raise ValueError("a pointwise integrand needs evaluate_path")

    @classmethod
    def constant(cls, c: float) -> "Integrand":
        return cls(
            evaluate=lambda t, ts, xs: c,
            m2_bound=abs(c),
            evaluate_path=lambda ts, xs: np.full_like(xs, c),
            pointwise=True,
        )

    @classmethod
    def of_time(cls, fn: Callable, m2_bound: float | str = "unverified") -> "Integrand":
        """Deterministic integrand t -> fn(t)."""
        return cls(
            evaluate=lambda t, ts, xs: float(fn(t)),
            m2_bound=m2_bound,
            evaluate_path=lambda ts, xs: np.broadcast_to(fn(ts), xs.shape).copy(),
            pointwise=True,
        )

    @classmethod
    def of_state(cls, fn: Callable, m2_bound: float | str = "unverified") -> "Integrand":
        """Markov integrand t -> fn(t, X_t), causal by construction.

        fn must act elementwise on arrays of times and states (numpy ufunc
        arithmetic does), as the vectorized and block evaluations rely on it.
        """
        return cls(
            evaluate=lambda t, ts, xs: float(fn(t, xs[-1])),
            m2_bound=m2_bound,
            evaluate_path=lambda ts, xs: fn(ts, xs),
            pointwise=True,
        )


def integrand_grid_values(
    f: Integrand, times: np.ndarray, values: np.ndarray, path_index: int | None = None
) -> np.ndarray:
    """f at every grid point of one path, or of a block of paths.

    ``values`` is one path shaped (grid,) or a block shaped (paths, grid) on
    the same times. A pointwise integrand takes a block in one call; any
    other is evaluated row by row, and a custom ``evaluate_path`` always
    receives one 1-D path. ``path_index`` is passed on to any EvaluationFault
    raised here; in a block it is the index of row 0 (default 0), and a fault
    names the first non-finite (path, step) in path order.
    """
    if values.ndim == 2 and not f.pointwise:
        first = path_index or 0
        vals = np.empty_like(values)
        for j, row in enumerate(values):
            vals[j] = integrand_grid_values(f, times, row, path_index=first + j)
        return vals
    if f.evaluate_path is not None:
        vals = np.asarray(f.evaluate_path(times, values), dtype=np.float64)
        if vals.shape != values.shape:
            raise EvaluationFault(
                "vectorized integrand returned a wrong shape", path_index=path_index
            )
    else:
        vals = np.empty_like(values)
        for k in range(values.size):
            vals[k] = f.evaluate(times[k], times[: k + 1], values[: k + 1])
    finite = np.isfinite(vals)
    if not finite.all():
        row, step = divmod(int(np.flatnonzero(~finite)[0]), vals.shape[-1])
        if vals.ndim == 2:
            path_index = (path_index or 0) + row
        raise EvaluationFault(
            "integrand produced a non-finite value", step_index=step, path_index=path_index
        )
    return vals


def ito_integral(f: Integrand, B: SampledPath) -> float:
    """Left-point integral sum_k f(t_k) * (B(t_{k+1}) - B(t_k))."""
    x = B.scalar_values
    vals = integrand_grid_values(f, B.grid.times, x)
    dx = np.diff(x)
    dx *= vals[:-1]
    return float(dx.sum())


def _rows(path: SampledPath, what: str) -> np.ndarray:
    """The values of a batch of one-dimensional paths, shaped (paths, grid)."""
    if path.dim != 1:
        raise ValueError(f"{what} must be one-dimensional, got d = {path.dim}")
    return path.values[..., 0]


def quadratic_variation(X: SampledPath) -> SampledPath:
    """Running sums of squared increments from 0, one row per one-dimensional path.

    The model bracket of Brownian motion, [B](t) = t, is
    ``SampledPath.continuous(grid, grid.times)``.
    """
    sq = np.diff(_rows(X, "the path"), axis=1) ** 2
    return SampledPath.continuous(X.grid, path_values(0.0, sq[..., None]))


def _spot_check_partials(F, F_t, F_x, F_xx, times, values) -> None:
    """Centered differences at 8 grid indices (Philox key [7, 7]) of every row."""
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    idx = gen.integers(0, values.shape[1], size=8)
    t, x = times[idx], values[:, idx]
    ht = 1e-5 * (1.0 + np.abs(t))
    hx = 1e-5 * (1.0 + np.abs(x))
    s = t + ht  # keeps the centered t-difference inside t >= 0
    fd_t = (F(s + ht, x) - F(s - ht, x)) / (2.0 * ht)
    fd_x = (F(t, x + hx) - F(t, x - hx)) / (2.0 * hx)
    fd_xx = (F_x(t, x + hx) - F_x(t, x - hx)) / (2.0 * hx)
    for name, claimed, fd in (
        ("F_t", F_t(s, x), fd_t),
        ("F_x", F_x(t, x), fd_x),
        ("F_xx", F_xx(t, x), fd_xx),
    ):
        claimed = np.broadcast_to(np.asarray(claimed, dtype=np.float64), x.shape)
        fd = np.broadcast_to(fd, x.shape)
        scale = np.maximum(1.0, np.maximum(np.abs(claimed), np.abs(fd)))
        bad = np.abs(claimed - fd) > 1e-5 * scale
        if bad.any():
            path, k = np.argwhere(bad)[0]
            raise ContractError(
                f"{name} on path {path} near ({t[k]}, {x[path, k]}) = {claimed[path, k]} "
                f"disagrees with finite difference {fd[path, k]}"
            )


def ito_formula_residual(
    F: Callable,
    F_t: Callable,
    F_x: Callable,
    F_xx: Callable,
    X: SampledPath,
    qv: SampledPath,
) -> np.ndarray:
    """Defect of the discrete change-of-variables identity for F(t, X_t), per path.

    Entry i of the (paths,) result is F(T, X_T) - F(0, X_0) minus the
    left-point sum of F_t dt + F_x dX + (1/2) F_xx d[X] along path i of the
    one-dimensional batch X. The bracket qv is on X's grid, nondecreasing
    from 0, with one row shared by every path (the model bracket) or one row
    per path (see quadratic_variation). F and its partials act elementwise on
    arrays of times and states; they are spot-checked against finite
    differences before use, and a mismatch raises ContractError naming the path.
    """
    x = _rows(X, "the path")
    bracket = _rows(qv, "quadratic variation")
    if not X.grid.same_as(qv.grid):
        raise ValueError("path and quadratic variation must share a grid")
    if qv.n_paths not in (1, X.n_paths):
        raise ValueError(
            f"quadratic variation needs one row or one per path ({X.n_paths}), got {qv.n_paths}"
        )
    if np.any(bracket[:, 0] != 0.0):
        raise ValueError("quadratic variation starts at 0")
    if np.any(np.diff(bracket, axis=1) < 0.0):
        raise ValueError("quadratic variation must be nondecreasing")
    times = X.grid.times
    _spot_check_partials(F, F_t, F_x, F_xx, times, x)
    tl, xl = times[:-1], x[:, :-1]
    # each term a product with its own increments, summed pairwise per row
    # at once, so that only one (paths, steps) product is held at a time
    sum_t = (np.diff(times) * F_t(tl, xl)).sum(axis=-1)
    sum_x = (np.diff(x, axis=1) * F_x(tl, xl)).sum(axis=-1)
    sum_qv = (np.diff(bracket, axis=1) * (0.5 * np.asarray(F_xx(tl, xl)))).sum(axis=-1)
    return F(times[-1], x[:, -1]) - F(times[0], x[:, 0]) - (sum_t + sum_x + sum_qv)


@dataclass(frozen=True)
class LocalTimeEstimate:
    """Estimated sojourn density of a scalar path at one level."""

    level: float
    value: float
    estimator: str  # "occupation" or "tanaka"
    epsilon: float | None = None

    def __post_init__(self):
        if self.estimator == "occupation" and self.value < 0.0:
            raise ValueError("occupation estimate cannot be negative")


def brownian_local_time_mean(a: float, T: float) -> float:
    """E[(B_T - a)^+ - (B_0 - a)^+] = E[L^a_T] / 2 for Brownian motion B from 0.

    Both estimators target it: sqrt(T) phi(a / sqrt(T)) - |a| Phi(-|a| / sqrt(T)).
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    root_t = np.sqrt(T)
    phi = np.exp(-0.5 * a * a / T) / np.sqrt(2.0 * np.pi)
    return float(root_t * phi - abs(a) * ndtr(-abs(a) / root_t))


def local_time_occupation_batch(
    values: np.ndarray, grid: TimeGrid, a: float, eps_list
) -> np.ndarray:
    """Occupation estimates, shaped (len(eps_list), paths), of values (paths, grid).

    Entry (j, i) is the time path i spends in (a - eps, a + eps), eps =
    eps_list[j], scaled by 1/(4 eps), with indicators at left endpoints; one
    distance array serves every bandwidth.
    """
    if not all(eps > 0.0 for eps in eps_list):
        raise ValueError("eps must be positive")
    dist = values[..., :-1] - a
    np.abs(dist, out=dist)
    occupation = []
    for inside, eps in zip([dist < eps for eps in eps_list], eps_list):
        np.multiply(inside, grid.deltas, out=dist)  # spent distances take the sojourns
        occupation.append(dist.sum(axis=-1) / (4.0 * eps))
    return np.stack(occupation)


def local_time_tanaka_batch(values: np.ndarray, a: float) -> np.ndarray:
    """Tanaka estimates (X_T - a)^+ - (X_0 - a)^+ - int 1{X > a} dX per row.

    The integral is the left-point sum of ito_integral over the row's own
    increments, so the discretization convention cannot drift from the rest
    of the module.
    """
    dx = np.diff(values, axis=-1)
    dx *= values[..., :-1] > a
    crossing = dx.sum(axis=-1)
    return np.maximum(values[..., -1] - a, 0.0) - np.maximum(values[..., 0] - a, 0.0) - crossing


def local_time_occupation(X: SampledPath, a: float, eps: float) -> LocalTimeEstimate:
    """Occupation estimate of one path: local_time_occupation_batch at one eps."""
    value = local_time_occupation_batch(X.scalar_values[None], X.grid, a, [eps])[0, 0]
    return LocalTimeEstimate(level=a, value=float(value), estimator="occupation", epsilon=eps)


def local_time_tanaka(X: SampledPath, a: float) -> LocalTimeEstimate:
    """Tanaka estimate of one path: local_time_tanaka_batch as a batch of one."""
    value = local_time_tanaka_batch(X.scalar_values[None], a)[0]
    return LocalTimeEstimate(level=a, value=float(value), estimator="tanaka")


# Paths per block of ito_isometry_samples: bounds the increments held at once.
_ISOMETRY_BLOCK = 64


def ito_isometry_samples(
    f: Integrand,
    T: float,
    n_paths: int,
    rng: RngSeed,
    n_steps: int = 1000,
    first_stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path samples of (int_0^T f dB)^2 and of int_0^T f^2 dt.

    Path i draws its increments from stream rng.stream + first_stream + i,
    so a path's samples do not depend on which other paths share the call: a
    run split into stream ranges and concatenated in order gives the same
    arrays. Paths run in blocks of _ISOMETRY_BLOCK: one brownian_increments
    call per block, the integrand evaluated on the block's grid values (in
    one call when it is pointwise), and both sums taken for the whole block
    at once as pairwise numpy row sums, which call no BLAS and give every
    row the same bits whatever the block's shape. A non-finite integrand value
    raises EvaluationFault with its grid step and the path's index i.
    """
    if n_paths < 1:
        raise ValueError("need at least 1 path")
    grid = TimeGrid.uniform(T, n_steps)
    times = grid.times
    dt = grid.deltas
    lhs_samples = np.empty(n_paths)
    rhs_samples = np.empty(n_paths)
    for start in range(0, n_paths, _ISOMETRY_BLOCK):
        m = min(_ISOMETRY_BLOCK, n_paths - start)
        dB = brownian_increments(rng, m, grid, first_stream=first_stream + start)
        dB = dB[..., 0]
        x = np.zeros((m, n_steps + 1))
        np.cumsum(dB, axis=1, out=x[:, 1:])
        left = integrand_grid_values(f, times, x, path_index=start)[:, :-1]
        lhs_samples[start : start + m] = (left * dB).sum(axis=1)
        rhs_samples[start : start + m] = (left**2 * dt).sum(axis=1)
    lhs_samples **= 2
    return lhs_samples, rhs_samples


def ito_isometry_check(
    f: Integrand,
    T: float,
    n_paths: int,
    rng: RngSeed,
    n_steps: int = 1000,
    first_stream: int = 0,
):
    """Monte Carlo estimates of E[(int_0^T f dB)^2] and E[int_0^T f^2 dt].

    The McEstimate values (lhs, rhs) of ito_isometry_samples' output, so
    estimates are reproducible and independent of batching.
    """
    from .stats import McEstimate  # local import to keep module layering simple

    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    lhs_samples, rhs_samples = ito_isometry_samples(f, T, n_paths, rng, n_steps, first_stream)
    return McEstimate.from_samples(lhs_samples), McEstimate.from_samples(rhs_samples)
