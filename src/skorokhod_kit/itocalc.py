"""Stochastic calculus on sampled paths: left-point integrals, quadratic
variation, a residual checker for the change-of-variables formula, and two
local-time estimators.

Every sum here evaluates integrands at the left endpoint of each step. That
convention is fixed at the interface: it is what makes the discrete integral
a martingale transform, and the isometry and zero-mean properties hold for
it exactly in expectation. Sums are numpy pairwise sums, never BLAS, so their
bits do not depend on the BLAS thread count. Integrands, integrals, the
quadratic variation, the change-of-variables residual, the local-time
estimators and the isometry samples run only on batches of paths, one row
per path; a single path is a batch of one row. A bracket [X] is a
SampledPath like X: realized (quadratic_variation, one row per path) or
the model bracket t of Brownian motion, one row shared by every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._special import ndtr
from .errors import ContractError, EvaluationFault
from .paths import SampledPath, TimeGrid
from .randomness import RngSeed, brownian_path_blocks, path_values


@dataclass(frozen=True)
class Integrand:
    """Adapted integrand f, evaluated on a block of paths at once.

    ``fn(times, values)`` takes the grid times (grid,) and a block of paths
    (paths, grid) and returns f at every grid point, shaped like the block.
    Entry (i, k) may depend only on the times up to t_k and on row i up to
    column k: an elementwise f(t, X_t) such as ``Integrand(lambda t, x:
    np.sin(x))``, or a row's past, a running mean by ``cumsum`` say.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, c: float) -> "Integrand":
        return cls(lambda ts, xs: np.full_like(xs, c))

    @classmethod
    def of_time(cls, fn: Callable) -> "Integrand":
        """Deterministic integrand t -> fn(t)."""
        return cls(lambda ts, xs: np.broadcast_to(fn(ts), xs.shape))


def integrand_grid_values(
    f: Integrand, times: np.ndarray, values: np.ndarray, path_index: int = 0
) -> np.ndarray:
    """f at every grid point of a block of paths shaped (paths, grid).

    Checked in this order: the shape; finiteness, an EvaluationFault naming
    the first non-finite (path, step) in path order, row 0 being path
    ``path_index``; adaptedness, where row 0 up to the middle column,
    evaluated alone, must agree with the block to 1e-12 relative, or f
    looked ahead or across rows (ContractError).
    """
    vals = np.asarray(f.fn(times, values), dtype=np.float64)
    if vals.shape != values.shape:
        raise EvaluationFault(
            f"integrand returned shape {vals.shape} for values {values.shape}",
            path_index=path_index,
        )
    finite = np.isfinite(vals)
    if not finite.all():
        row, step = divmod(int(np.flatnonzero(~finite)[0]), vals.shape[1])
        raise EvaluationFault(
            "integrand produced a non-finite value", step_index=step, path_index=path_index + row
        )
    mid = values.shape[1] // 2 + 1
    alone = np.asarray(f.fn(times[:mid], values[:1, :mid]), dtype=np.float64)
    head = vals[:1, :mid]
    # a tolerance, not bitwise equality: SIMD loops may round a short tail apart
    if alone.shape != head.shape or not np.all(np.abs(alone - head) <= 1e-12 * np.abs(head)):
        raise ContractError(
            f"integrand on path {path_index} up to step {mid - 1} reads later steps or other paths"
        )
    return vals


def ito_integral(f: Integrand, B: SampledPath) -> np.ndarray:
    """Left-point integrals sum_k f(t_k) (B(t_{k+1}) - B(t_k)), one per path.

    B is a batch of one-dimensional paths; the result is shaped (paths,), and
    each entry equals the integral over that path alone, bit for bit.
    """
    x = _rows(B, "the integrator")
    vals = integrand_grid_values(f, B.grid.times, x)
    dx = np.diff(x, axis=1)
    dx *= vals[:, :-1]
    return dx.sum(axis=1)


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
    if len(eps_list) == 0 or not all(eps > 0.0 for eps in eps_list):
        raise ValueError(f"eps_list needs one or more positive bandwidths, got {list(eps_list)}")
    dist = values[..., :-1] - a
    np.abs(dist, out=dist)
    occupation = []
    for inside, eps in zip([dist < eps for eps in eps_list], eps_list):
        np.multiply(inside, grid.deltas, out=dist)  # spent distances take the sojourns
        occupation.append(dist.sum(axis=-1) / (4.0 * eps))
    return np.stack(occupation)


def local_time_tanaka_batch(values: np.ndarray, a: float) -> np.ndarray:
    """Tanaka estimates (X_T - a)^+ - (X_0 - a)^+ - int 1{X > a} dX per row.

    The integral is the left-point sum of ito_integral, taken here without
    the integrand checks: each row equals ito_integral of ``Integrand(lambda
    t, x: (x > a) * 1.0)`` over that row's path bit for bit.
    """
    dx = np.diff(values, axis=-1)
    dx *= values[..., :-1] > a
    crossing = dx.sum(axis=-1)
    return np.maximum(values[..., -1] - a, 0.0) - np.maximum(values[..., 0] - a, 0.0) - crossing


def ito_isometry_samples(
    f: Integrand,
    T: float,
    n_paths: int,
    rng: RngSeed,
    n_steps: int = 1000,
    first_stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path samples of (int_0^T f dB)^2 and of int_0^T f^2 dt.

    Path i is brownian_paths' path of stream rng.stream + first_stream + i,
    so a run split into stream ranges and concatenated in order gives the
    same arrays. A finish of randomness.brownian_path_blocks evaluates the
    integrand on a block's paths in one call and takes both sums for the
    block at once, as pairwise numpy row sums (no BLAS, the same bits
    whatever the block's shape) over products written into its increments.
    A non-finite integrand value raises EvaluationFault with its grid step
    and the path's index i, the first such path whatever the worker count.
    """
    if n_paths < 1:
        raise ValueError("need at least 1 path")
    grid = TimeGrid.uniform(T, n_steps)
    lhs_samples = np.empty(n_paths)
    rhs_samples = np.empty(n_paths)

    def finish(a, dB, x):
        m = len(dB)
        left = integrand_grid_values(f, grid.times, x, path_index=a)[:, :-1]
        lhs_samples[a : a + m] = np.multiply(left, dB, out=dB).sum(axis=1)
        np.square(left, out=dB)
        dB *= grid.deltas
        rhs_samples[a : a + m] = dB.sum(axis=1)

    brownian_path_blocks(rng, n_paths, grid, finish, first_stream)
    lhs_samples **= 2
    return lhs_samples, rhs_samples
