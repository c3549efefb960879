"""Multi-dimensional Skorokhod problem X = w + phi on a convex domain.

The step-input construction projects the free motion back into the closure
at every jump; the pushing term phi is the accumulated projection
displacement, its total variation the accumulated displacement norms. For
continuous inputs the same recursion runs on successively refined grids
until successive solutions agree in sup norm. Drivers travel as one batched
SampledPath, values (paths, grid, d), and every path advances in the same
recursion; solutions, diagnostics and inequality checks are batches too,
with one row per driver.

Two inequality checks (pairwise contraction and the modulus bound) and the
two geometric solvability conditions round out the test apparatus.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .domains import (
    DEFAULT_PROJECT_MAX_ITER,
    DEFAULT_PROJECT_TOL,
    ConvexDomain,
    boundary_tolerance,
    normal_cone_residuals,
)
from .errors import RefinementLimitError
from .paths import PathKind, SampledPath, TimeGrid, row_slice


@dataclass(frozen=True, eq=False)
class SkorokhodNdSolution:
    """Confined paths X, pushing terms phi, and their running total variation.

    A batch with one row per driver: X and phi are batched paths on one
    grid, ``total_variation`` is (paths, grid) and ``directions`` is
    (paths, grid, d); (grid,) and (grid, d) arrays are read as a batch of
    one. ``directions[i, k]`` is the unit direction of path i's phi
    increment arriving at grid index k; rows are NaN where the increment is
    zero (the direction is only defined where pushing happens). ``driver``
    is the Brownian path that drove a projected-Euler solution; its
    dimension may differ from X's. ``sol[i]`` and ``sol[a:b]`` select rows.
    """

    X: SampledPath
    phi: SampledPath
    total_variation: np.ndarray
    directions: np.ndarray
    refine_gaps: tuple = ()
    tv_by_level: tuple = ()
    driver: SampledPath | None = None

    def __post_init__(self):
        if not self.phi.grid.same_as(self.X.grid) or self.phi.values.shape != self.X.values.shape:
            raise ValueError("phi must have X's grid and shape")
        if self.driver is not None and (
            not self.driver.grid.same_as(self.X.grid) or self.driver.n_paths != self.X.n_paths
        ):
            raise ValueError("driver must share X's grid and number of paths")
        tv = np.array(self.total_variation, dtype=np.float64, ndmin=2)
        dirs = np.array(self.directions, dtype=np.float64, ndmin=3)
        if tv.shape != self.X.values.shape[:2] or dirs.shape != self.X.values.shape:
            raise ValueError("total_variation and directions must match the grid")
        if np.any(tv[:, 0] != 0.0) or np.any(np.diff(tv, axis=1) < 0.0):
            raise ValueError("total variation must be nondecreasing from 0")
        tv.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "total_variation", tv)
        object.__setattr__(self, "directions", dirs)

    def __getitem__(self, rows) -> "SkorokhodNdSolution":
        rows = row_slice(rows, self.X.n_paths)
        return replace(
            self,
            X=self.X[rows],
            phi=self.phi[rows],
            total_variation=self.total_variation[rows],
            directions=self.directions[rows],
            driver=None if self.driver is None else self.driver[rows],
        )

    @property
    def input_values(self) -> np.ndarray:
        """The input paths recovered from X - phi, (paths, grid, d)."""
        return self.X.values - self.phi.values


# longest block of steps screened at once; bounds the slack work wasted when
# a path leaves the closure early in a block
_MAX_SPAN = 256


def _reflect_on_grid(wv: np.ndarray, domain: ConvexDomain, tol: float, max_iter: int):
    """Step recursion for drivers wv of shape (paths, grid, d) on one shared grid.

    A step where some path leaves the closure is one ``project_batch`` call
    over all paths. After a step without pushing, the following steps are
    screened in blocks of doubling length: while every path stays in the
    closure, X = w + phi(t_k) needs no projection. Rows are independent, so
    a path's result does not depend on the batch.
    """
    n_paths, n, d = wv.shape
    outside = np.flatnonzero(np.min(domain.slack_matrix(wv[:, 0]), axis=1) < 0.0)
    if outside.size:
        raise ValueError(f"driver {outside[0]} must start inside the closed domain")
    X = np.empty_like(wv)
    phi = np.zeros_like(wv)
    tv = np.zeros((n_paths, n))
    dirs = np.full_like(wv, np.nan)
    X[:, 0] = wv[:, 0]
    acc = np.zeros((n_paths, d))  # phi(t_k), kept as X - w so the decomposition is exact
    acc_tv = np.zeros(n_paths)
    k, span = 1, 1
    while k < n:
        if span > 1:
            ahead = wv[:, k : k + span] + acc[:, None, :]
            leaves = domain.slack_matrix(ahead.reshape(-1, d)) < 0.0
            step_leaves = leaves.any(axis=1).reshape(n_paths, -1).any(axis=0)
            stay = int(np.argmax(step_leaves)) if step_leaves.any() else step_leaves.size
            X[:, k : k + stay] = ahead[:, :stay]
            phi[:, k : k + stay] = acc[:, None, :]
            tv[:, k : k + stay] = acc_tv[:, None]
            k += stay
            span = min(2 * span, _MAX_SPAN) if stay == step_leaves.size else 1
            continue
        free = wv[:, k] + acc
        landed = domain.project_batch(free, tol=tol, max_iter=max_iter)
        X[:, k] = landed
        # rows with no pushing (landed == free) keep phi bitwise unchanged so
        # interior steps carry exactly zero mass
        moved = landed != free
        if moved.any():
            new_acc = np.where(moved.any(axis=1)[:, None], landed - wv[:, k], acc)
            dphi = new_acc - acc  # exactly 0 on rows without pushing
            acc = new_acc
            step_norm = np.sqrt(np.vecdot(dphi, dphi))  # np.linalg.norm of each row
            acc_tv += step_norm
            rows = np.flatnonzero(step_norm > 0.0)
            dirs[rows, k] = dphi[rows] / step_norm[rows, None]
        else:
            span = 2
        phi[:, k] = acc
        tv[:, k] = acc_tv
        k += 1
    return X, phi, tv, dirs


def solve_skorokhod_step(
    w: SampledPath,
    domain: ConvexDomain,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> SkorokhodNdSolution:
    """Reflect cadlag step inputs: project after every jump of each driver.

    All drivers of the batch advance in one recursion; row i of the result
    is the solution driver i gets on its own. A driver starting outside the
    closure raises ValueError naming its index.
    """
    if w.kind is not PathKind.STEP:
        raise ValueError("solve_skorokhod_step expects step paths")
    X, phi, tv, dirs = _reflect_on_grid(w.values, domain, tol, max_iter)
    return SkorokhodNdSolution(
        X=SampledPath.step(w.grid, X),
        phi=SampledPath.step(w.grid, phi),
        total_variation=tv,
        directions=dirs,
    )


def _refine_linear(times: np.ndarray, wv: np.ndarray, factor: int):
    """Insert factor-1 equally spaced points per interval, interpolating w linearly.

    Values run along the second-to-last axis: wv is (grid, d) or (paths, grid, d).
    """
    n = times.size
    new_times = np.empty((n - 1) * factor + 1)
    new_vals = np.empty(wv.shape[:-2] + ((n - 1) * factor + 1, wv.shape[-1]))
    dw = np.diff(wv, axis=-2)
    for j in range(factor):
        frac = j / factor
        new_times[j::factor][: n - 1] = times[:-1] + frac * np.diff(times)
        new_vals[..., j::factor, :][..., : n - 1, :] = wv[..., :-1, :] + frac * dw
    new_times[-1] = times[-1]
    new_vals[..., -1, :] = wv[..., -1, :]
    return new_times, new_vals


def solve_skorokhod_continuous_many(
    w: SampledPath,
    domain: ConvexDomain,
    refine_tol: float | None = None,
    max_levels: int = 6,
    refine_factor: int = 2,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> list[SkorokhodNdSolution]:
    """Reflect a batch of piecewise-linear inputs by joint refinement.

    The drivers still refining run each level as one batch; a driver leaves
    the batch at the level where it converges, so it gets the levels, gaps
    and solution of :func:`solve_skorokhod_continuous` on its own (with the
    default ``refine_tol`` taken from its own scale). Drivers converge on
    different grids, so the result is one solution, a batch of one, per
    driver. If drivers exhaust max_levels, raises RefinementLimitError for
    the first of them in driver order, carrying its gaps and index.
    """
    if w.kind is not PathKind.CONTINUOUS:
        raise ValueError("solve_skorokhod_continuous expects continuous paths")
    if refine_factor < 2:
        raise ValueError("refine_factor must be at least 2")
    n = w.n_paths
    tols = 1e-4 * w.scale() if refine_tol is None else np.full(n, float(refine_tol))
    times, wv = w.grid.times.copy(), w.values
    live = np.arange(n)  # drivers still refining, in driver order
    gaps: list[list[float]] = [[] for _ in live]
    tvs: list[list[float]] = [[] for _ in live]
    solutions: list[SkorokhodNdSolution | None] = [None] * n
    prev_X = None
    for level in range(max_levels + 1):
        X, phi, tv, dirs = _reflect_on_grid(wv, domain, tol, max_iter)
        if prev_X is not None:
            level_gaps = np.max(np.linalg.norm(X[:, ::refine_factor] - prev_X, axis=2), axis=1)
        level_grid = TimeGrid(times)
        keep = []
        for row, i in enumerate(live):
            tvs[i].append(float(tv[row, -1]))
            converged = False
            if tv[row, -1] == 0.0:
                # no pushing at all: w stays in the (convex) closure, X = w exactly
                gaps[i].append(0.0)
                converged = True
            elif prev_X is not None:
                gaps[i].append(float(level_gaps[row]))
                converged = gaps[i][-1] <= tols[i]
            if not converged:
                keep.append(row)
                continue
            solutions[i] = SkorokhodNdSolution(
                X=SampledPath.continuous(level_grid, X[row]),
                phi=SampledPath.continuous(level_grid, phi[row]),
                total_variation=tv[row],
                directions=dirs[row],
                refine_gaps=tuple(gaps[i]),
                tv_by_level=tuple(tvs[i]),
            )
        if not keep or level == max_levels:
            break
        live = live[keep]
        prev_X = X[keep]
        times, wv = _refine_linear(times, wv[keep], refine_factor)
    failed = [i for i, sol in enumerate(solutions) if sol is None]
    if not failed:
        return solutions
    i = failed[0]
    if len(tvs[i]) >= 2 and tvs[i][-1] > 50.0 * (1.0 + tvs[i][0]):
        warnings.warn(
            "pushing-term total variation grew by a large factor across refinement "
            f"levels: {tvs[i]}; the refinement sequence may not be converging",
            RuntimeWarning,
        )
    raise RefinementLimitError(
        f"driver {i}: refinement gaps {gaps[i]} did not reach tol={float(tols[i])} "
        f"within {max_levels} levels",
        gaps=tuple(gaps[i]),
        driver=i,
    )


def solve_skorokhod_continuous(
    w: SampledPath,
    domain: ConvexDomain,
    refine_tol: float | None = None,
    max_levels: int = 6,
    refine_factor: int = 2,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> SkorokhodNdSolution:
    """Reflect one piecewise-linear input, a batch of one, by grid refinement.

    Solves the step recursion on the input grid, then on grids refined by
    ``refine_factor`` (linear interpolation of w) until the sup distance
    between successive solutions, measured at the coarser grid's times,
    drops to ``refine_tol`` (default 1e-4 times the path scale). Raises
    RefinementLimitError with the gap sequence when max_levels is exhausted.
    """
    if w.n_paths != 1:
        raise ValueError(
            f"solve_skorokhod_continuous reflects one driver, got {w.n_paths}; "
            "solve_skorokhod_continuous_many takes a batch"
        )
    return solve_skorokhod_continuous_many(
        w, domain, refine_tol, max_levels, refine_factor, tol, max_iter
    )[0]


def _check_paired(sol: SkorokhodNdSolution, path: SampledPath, noun: str) -> None:
    """Raise unless ``path`` has one row per solution, on its grid and of its dimension."""
    X = sol.X
    if not path.grid.same_as(X.grid):
        raise ValueError(f"the {noun}s are not on the solutions' grid")
    if path.n_paths != X.n_paths:
        raise ValueError(f"need one {noun} per solution, got {path.n_paths} for {X.n_paths}")
    if path.dim != X.dim:
        raise ValueError(f"the {noun}s have dimension {path.dim}, the solutions {X.dim}")


def tanaka_inequality_gap(sol: SkorokhodNdSolution, other: SkorokhodNdSolution) -> np.ndarray:
    """Slack of the pairwise contraction inequality for each pair, minimized over grid times.

    For solutions (X, phi), (X~, phi~) of inputs w, w~ the bound

        |X - X~|^2 <= |w - w~|^2 + 2 int (w - w~ - w(s) + w~(s)) d(phi - phi~)

    holds with the integrand read at each atom of the pushing measure (the
    grid point where the increment lands). Returns min_t RHS(t) - LHS(t) for
    each pair of rows (sol[i], other[i]), shape (paths,); a correct solver
    keeps this above -1e-9 times the path scale.
    """
    _check_paired(sol, other.X, "other solution")
    X, phi = sol.X.values, sol.phi.values
    X_other, phi_other = other.X.values, other.phi.values
    u = (X - phi) - (X_other - phi_other)
    delta = phi - phi_other
    diff_x = X - X_other
    ddelta = np.diff(delta, axis=1)
    atom_terms = np.einsum("pij,pij->pi", u[:, 1:], ddelta)
    cum_atoms = np.concatenate([np.zeros((len(X), 1)), np.cumsum(atom_terms, axis=1)], axis=1)
    rhs = np.einsum("pij,pij->pi", u, u) + 2.0 * (np.einsum("pij,pij->pi", u, delta) - cum_atoms)
    lhs = np.einsum("pij,pij->pi", diff_x, diff_x)
    return np.min(rhs - lhs, axis=1)


def modulus_gap(sol: SkorokhodNdSolution, s: float, t: float) -> np.ndarray:
    """Slack of the oscillation bound between two grid times s <= t, shape (paths,).

    Checks |X(t) - X(s)|^2 <= |w(t) - w(s)|^2 + 2 int_(s,t] (w(t) - w(tau))
    d phi(tau), with the integrand read at the atoms of the pushing measure.
    """
    if s > t:
        raise ValueError("need s <= t")
    X, phi = sol.X.values, sol.phi.values
    times = sol.X.grid.times
    i = int(np.searchsorted(times, s))
    n = int(np.searchsorted(times, t))
    if i >= times.size or times[i] != s or n >= times.size or times[n] != t:
        raise ValueError("s and t must be grid times")
    w = X - phi
    lhs = np.sum((X[:, n] - X[:, i]) ** 2, axis=1)
    rhs = np.sum((w[:, n] - w[:, i]) ** 2, axis=1)
    if n > i:
        dphi = np.diff(phi[:, i : n + 1], axis=1)
        integrand = w[:, n, None] - w[:, i + 1 : n + 1]
        rhs += 2.0 * np.einsum("pij,pij->pi", integrand, dphi).sum(axis=1)
    return rhs - lhs


@dataclass(frozen=True)
class ConditionAResult:
    status: Literal["holds", "fails", "unknown"]
    e: np.ndarray | None = None
    c: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ConditionBResult:
    status: Literal["holds", "unknown"]
    delta: float | None = None
    reason: str = ""


@dataclass(frozen=True)
class DomainConditionReport:
    condition_a: ConditionAResult | None = None
    condition_b: ConditionBResult | None = None


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    mask = u - css / ind > 0.0
    rho = ind[mask][-1]
    theta = css[mask][-1] / rho
    return np.maximum(v - theta, 0.0)


def check_condition_a(domain: ConvexDomain, grid_density: int = 32) -> DomainConditionReport:
    """Search for a unit vector making a positive angle with every face normal.

    The best such vector is the normalized minimum-norm point of the convex
    hull of the halfspace normals; that point is found by projected gradient
    on the simplex of hull weights, started from the centroid and refined
    for a number of sweeps scaled by ``grid_density``. Ball boundaries
    contribute a continuum of normals and are not analyzed: domains with
    ball constraints report unknown.
    """
    if domain.dimension > 8:
        raise ValueError("condition A search is not supported above dimension 8")
    if domain.centers.shape[0] > 0:
        return DomainConditionReport(
            condition_a=ConditionAResult(
                status="unknown",
                detail="ball constraints contribute a continuum of boundary normals",
            )
        )
    normals = domain.normals
    m = normals.shape[0]
    gram = normals @ normals.T
    antipodal = np.min(gram) <= -1.0 + 1e-9
    if antipodal:
        return DomainConditionReport(
            condition_a=ConditionAResult(
                status="fails",
                detail="two face normals are antipodal; no direction can make a "
                "positive angle with both",
            )
        )
    lam = np.full(m, 1.0 / m)
    step = 0.5 / max(float(np.linalg.norm(gram, 2)), 1e-12)
    for _ in range(max(200, 40 * grid_density)):
        lam = _project_simplex(lam - step * 2.0 * (gram @ lam))
    mu = normals.T @ lam
    norm_mu = float(np.linalg.norm(mu))
    if norm_mu <= 1e-7:
        return DomainConditionReport(
            condition_a=ConditionAResult(
                status="unknown",
                detail="origin appears to lie in the hull of the normals but no "
                "antipodal certificate was found",
            )
        )
    e = mu / norm_mu
    c = float(np.min(normals @ e))
    if c <= 0.0:
        return DomainConditionReport(
            condition_a=ConditionAResult(status="unknown", detail="search was inconclusive")
        )
    return DomainConditionReport(condition_a=ConditionAResult(status="holds", e=e, c=c))


def check_condition_b(domain: ConvexDomain) -> DomainConditionReport:
    """Report the geometric interior-ball condition via its sufficient cases.

    Holds when the domain is bounded (a ball constraint, or every coordinate
    direction bounded as a linear program) or when the dimension is 2;
    otherwise unknown (no general decision procedure is attempted).
    """
    from scipy.optimize import linprog  # deferred: scipy.optimize is slow to import

    if domain.centers.shape[0] > 0:
        return DomainConditionReport(
            condition_b=ConditionBResult(status="holds", reason="bounded: contained in a ball")
        )
    bounded = True
    A_ub = -domain.normals
    b_ub = -domain.offsets
    for j in range(domain.dimension):
        for sign in (1.0, -1.0):
            c = np.zeros(domain.dimension)
            c[j] = -sign  # maximize sign * x_j
            res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
            if res.status == 3:
                bounded = False
                break
            if res.status != 0:
                return DomainConditionReport(
                    condition_b=ConditionBResult(
                        status="unknown", reason=f"boundedness LP ended with {res.message}"
                    )
                )
        if not bounded:
            break
    if bounded:
        return DomainConditionReport(
            condition_b=ConditionBResult(
                status="holds", reason="bounded: every coordinate is bounded"
            )
        )
    if domain.dimension == 2:
        return DomainConditionReport(
            condition_b=ConditionBResult(status="holds", reason="dimension 2")
        )
    return DomainConditionReport(
        condition_b=ConditionBResult(
            status="unknown", reason="unbounded with dimension > 2; no decision procedure"
        )
    )


def nd_solution_diagnostics(
    sol: SkorokhodNdSolution,
    w: SampledPath,
    domain: ConvexDomain,
    containment_tol: float | None = None,
) -> dict:
    """Quantitative check of the defining conditions of reflected solutions.

    For each row of ``sol`` and its driver, row i of ``w`` (on the
    solutions' grid and of their dimension, else ValueError), returns the
    max decomposition defect |X - w - phi|, the worst containment violation,
    the pushing mass spent at interior points, the max distance between
    pushing directions and the local normal cone, and the defect of |phi|
    against its increment norms: a dict of (paths,) arrays. Every path is
    checked in one vectorized pass.
    """
    _check_paired(sol, w, "driver")
    X, phi, wv, tv = sol.X.values, sol.phi.values, w.values, sol.total_variation
    n_paths, _, d = X.shape
    if containment_tol is None:
        containment_tol = 1e-9 * np.maximum(1.0, np.max(np.abs(wv), axis=(1, 2)))
    containment_tol = np.broadcast_to(np.asarray(containment_tol, dtype=np.float64), (n_paths,))
    decomposition = np.max(np.linalg.norm(X - (wv + phi), axis=2), axis=1)
    slack_min = np.min(domain.slack_matrix(X.reshape(-1, d)).reshape(n_paths, -1), axis=1)
    dphi = np.diff(phi, axis=1)
    dphi_norms = np.linalg.norm(dphi, axis=2)
    tv_defect = np.max(np.abs(np.diff(tv, axis=1) - dphi_norms), axis=1)
    # every landing of a pushing increment, path by path in grid order
    path, step = np.nonzero(dphi_norms > 0.0)
    landings = X[path, step + 1]
    tol_bd = boundary_tolerance(landings)
    interior = domain.distance_to_boundary_batch(landings) > tol_bd
    interior_mass = np.zeros(n_paths)
    # unbuffered, in landing order: each path's mass is its running sum
    np.add.at(interior_mass, path[interior], dphi_norms[path[interior], step[interior]])
    edge = ~interior
    units = dphi[path[edge], step[edge]] / dphi_norms[path[edge], step[edge], None]
    residuals, _ = normal_cone_residuals(landings[edge], units, domain, tol_bd[edge])
    angular_gap = np.zeros(n_paths)
    np.maximum.at(angular_gap, path[edge], residuals)
    return {
        "decomposition_max_abs": decomposition,
        "containment_worst_slack": slack_min,
        "containment_tol": containment_tol,
        "interior_pushing_mass": interior_mass,
        "max_angular_gap": angular_gap,
        "tv_increment_defect": tv_defect,
        "phi_start_norm": np.linalg.norm(phi[:, 0], axis=1),
    }
