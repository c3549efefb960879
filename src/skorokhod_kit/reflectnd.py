"""Multi-dimensional Skorokhod problem X = w + phi on a convex domain.

The step-input construction projects the free motion back into the closure
at every jump; the pushing term phi is the accumulated projection
displacement, its total variation the accumulated displacement norms. For
continuous inputs the same recursion runs on successively refined grids
until successive solutions agree in sup norm. Both solvers take a batch of
drivers on one grid and advance all paths together; the single-driver
entry points are batches of one.

Two inequality checks (pairwise contraction and the modulus bound) and the
two geometric solvability conditions round out the test apparatus.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
from .paths import PathKind, SampledPath, TimeGrid

ANGULAR_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SkorokhodNdSolution:
    """Confined path X, pushing term phi, and its running total variation.

    ``directions[k]`` is the unit direction of the phi increment arriving at
    grid index k; rows are NaN where the increment is zero (the direction is
    only defined where pushing happens). ``driver`` is the Brownian path that
    drove a projected-Euler solution; its dimension may differ from X's.
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
        if self.driver is not None and not self.driver.grid.same_as(self.X.grid):
            raise ValueError("driver must share X's grid")
        tv = np.array(self.total_variation, dtype=np.float64).reshape(-1)
        dirs = np.array(self.directions, dtype=np.float64)
        if tv.size != len(self.X.grid) or dirs.shape != self.X.values.shape:
            raise ValueError("total_variation and directions must match the grid")
        if tv[0] != 0.0 or np.any(np.diff(tv) < 0.0):
            raise ValueError("total variation must be nondecreasing from 0")
        tv.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "total_variation", tv)
        object.__setattr__(self, "directions", dirs)

    @property
    def input_values(self) -> np.ndarray:
        """The input path recovered from X - phi."""
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


def _stack_drivers(ws: list[SampledPath], kind: PathKind, solver: str):
    """Shared grid and (paths, grid, d) values of a list of drivers."""
    if not ws:
        raise ValueError(f"{solver} needs at least one driver")
    if any(w.kind is not kind for w in ws):
        raise ValueError(f"{solver} expects {kind.value} paths")
    grid = ws[0].grid
    if any(not w.grid.same_as(grid) or w.dim != ws[0].dim for w in ws[1:]):
        raise ValueError(f"{solver} needs drivers on one grid and of one dimension")
    return grid, np.stack([w.values for w in ws])


def solve_skorokhod_step_many(
    ws,
    domain: ConvexDomain,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> list[SkorokhodNdSolution]:
    """Reflect cadlag step inputs sharing one grid, all paths in one recursion.

    Returns one solution per driver, each the solution its driver gets on
    its own. A driver starting outside the closure raises ValueError naming
    its index.
    """
    grid, wv = _stack_drivers(list(ws), PathKind.STEP, "solve_skorokhod_step")
    X, phi, tv, dirs = _reflect_on_grid(wv, domain, tol, max_iter)
    return [
        SkorokhodNdSolution(
            X=SampledPath.step(grid, X[i]),
            phi=SampledPath.step(grid, phi[i]),
            total_variation=tv[i],
            directions=dirs[i],
        )
        for i in range(len(wv))
    ]


def solve_skorokhod_step(
    w: SampledPath,
    domain: ConvexDomain,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> SkorokhodNdSolution:
    """Reflect a cadlag step input: project after every jump of w."""
    return solve_skorokhod_step_many([w], domain, tol=tol, max_iter=max_iter)[0]


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
    ws,
    domain: ConvexDomain,
    refine_tol: float | None = None,
    max_levels: int = 6,
    refine_factor: int = 2,
    tol: float = DEFAULT_PROJECT_TOL,
    max_iter: int = DEFAULT_PROJECT_MAX_ITER,
) -> list[SkorokhodNdSolution]:
    """Reflect piecewise-linear inputs sharing one grid by joint refinement.

    The drivers still refining run each level as one batch; a driver leaves
    the batch at the level where it converges, so it gets the levels, gaps
    and solution of :func:`solve_skorokhod_continuous` on its own (with the
    default ``refine_tol`` taken from its own scale). If drivers exhaust
    max_levels, raises RefinementLimitError for the first of them in driver
    order, carrying its gaps and index.
    """
    ws = list(ws)
    grid, wv = _stack_drivers(ws, PathKind.CONTINUOUS, "solve_skorokhod_continuous")
    if refine_factor < 2:
        raise ValueError("refine_factor must be at least 2")
    tols = [1e-4 * w.scale() if refine_tol is None else refine_tol for w in ws]
    times = grid.times.copy()
    live = np.arange(len(wv))  # drivers still refining, in driver order
    gaps: list[list[float]] = [[] for _ in live]
    tvs: list[list[float]] = [[] for _ in live]
    solutions: list[SkorokhodNdSolution | None] = [None] * len(live)
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
        f"driver {i}: refinement gaps {gaps[i]} did not reach tol={tols[i]} "
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
    """Reflect a piecewise-linear input by grid refinement.

    Solves the step recursion on the input grid, then on grids refined by
    ``refine_factor`` (linear interpolation of w) until the sup distance
    between successive solutions, measured at the coarser grid's times,
    drops to ``refine_tol`` (default 1e-4 times the path scale). Raises
    RefinementLimitError with the gap sequence when max_levels is exhausted.
    """
    return solve_skorokhod_continuous_many(
        [w], domain, refine_tol, max_levels, refine_factor, tol, max_iter
    )[0]


def _check_same_grid(a: SkorokhodNdSolution, b: SkorokhodNdSolution) -> None:
    if not a.X.grid.same_as(b.X.grid):
        raise ValueError("solutions must share a grid")


def _stack_solutions(sols: list[SkorokhodNdSolution]):
    """X and phi values, each (paths, grid, d), of solutions on one grid."""
    if not sols:
        raise ValueError("need at least one solution")
    first = sols[0].X
    for i, sol in enumerate(sols):
        if not sol.X.grid.same_as(first.grid) or sol.X.dim != first.dim:
            raise ValueError(f"solution {i} is not on the grid, or of the dimension, of solution 0")
    return np.stack([s.X.values for s in sols]), np.stack([s.phi.values for s in sols])


def tanaka_inequality_gap_many(sols, others) -> np.ndarray:
    """Slack of the pairwise contraction inequality for each pair, minimized over grid times.

    For solutions (X, phi), (X~, phi~) of inputs w, w~ the bound

        |X - X~|^2 <= |w - w~|^2 + 2 int (w - w~ - w(s) + w~(s)) d(phi - phi~)

    holds with the integrand read at each atom of the pushing measure (the
    grid point where the increment lands). Returns min_t RHS(t) - LHS(t) for
    each pair (sols[i], others[i]); a correct solver keeps this above -1e-9
    times the path scale. All solutions must share one grid.
    """
    sols, others = list(sols), list(others)
    if len(others) != len(sols):
        raise ValueError(f"need one other solution per solution, got {len(others)} for {len(sols)}")
    X, phi = _stack_solutions(sols)
    X_other, phi_other = _stack_solutions(others)
    _check_same_grid(sols[0], others[0])
    u = (X - phi) - (X_other - phi_other)
    delta = phi - phi_other
    diff_x = X - X_other
    ddelta = np.diff(delta, axis=1)
    atom_terms = np.einsum("pij,pij->pi", u[:, 1:], ddelta)
    cum_atoms = np.concatenate([np.zeros((len(sols), 1)), np.cumsum(atom_terms, axis=1)], axis=1)
    rhs = np.einsum("pij,pij->pi", u, u) + 2.0 * (np.einsum("pij,pij->pi", u, delta) - cum_atoms)
    lhs = np.einsum("pij,pij->pi", diff_x, diff_x)
    return np.min(rhs - lhs, axis=1)


def tanaka_inequality_gap(sol: SkorokhodNdSolution, other: SkorokhodNdSolution) -> float:
    """:func:`tanaka_inequality_gap_many` for one pair of solutions."""
    return float(tanaka_inequality_gap_many([sol], [other])[0])


def modulus_gap_many(sols, s: float, t: float) -> np.ndarray:
    """Slack of the oscillation bound between two grid times s <= t, one per solution.

    Checks |X(t) - X(s)|^2 <= |w(t) - w(s)|^2 + 2 int_(s,t] (w(t) - w(tau))
    d phi(tau), with the integrand read at the atoms of the pushing measure.
    All solutions must share one grid.
    """
    if s > t:
        raise ValueError("need s <= t")
    sols = list(sols)
    X, phi = _stack_solutions(sols)
    times = sols[0].X.grid.times
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


def modulus_gap(sol: SkorokhodNdSolution, s: float, t: float) -> float:
    """:func:`modulus_gap_many` for one solution."""
    return float(modulus_gap_many([sol], s, t)[0])


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


def nd_solution_diagnostics_many(
    sols,
    ws,
    domain: ConvexDomain,
    containment_tol: float | None = None,
) -> list[dict]:
    """Quantitative check of the defining conditions of reflected solutions.

    For each solution and its driver ``ws[i]`` (on the solution's grid, of
    its dimension; else ValueError naming the first index that is not)
    returns the max decomposition defect |X - w - phi|, the worst containment
    violation, the pushing mass spent at interior points, the max distance
    between pushing directions and the local normal cone, and the defect of
    |phi| against its increment norms. All solutions must share one grid;
    every path is checked in one vectorized pass.
    """
    sols, ws = list(sols), list(ws)
    if len(ws) != len(sols):
        raise ValueError(f"need one driver per solution, got {len(ws)} for {len(sols)}")
    X, phi = _stack_solutions(sols)
    n_paths, _, d = X.shape
    for i, w in enumerate(ws):
        if not w.grid.same_as(sols[i].X.grid):
            raise ValueError(f"driver {i} is not on its solution's grid")
        if w.dim != d:
            raise ValueError(f"driver {i} has dimension {w.dim}, its solution {d}")
    wv = np.stack([w.values for w in ws])
    tv = np.stack([sol.total_variation for sol in sols])
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
    phi_start = np.linalg.norm(phi[:, 0], axis=1)
    return [
        {
            "decomposition_max_abs": float(decomposition[i]),
            "containment_worst_slack": float(slack_min[i]),
            "containment_tol": float(containment_tol[i]),
            "interior_pushing_mass": float(interior_mass[i]),
            "max_angular_gap": float(angular_gap[i]),
            "tv_increment_defect": float(tv_defect[i]),
            "phi_start_norm": float(phi_start[i]),
        }
        for i in range(n_paths)
    ]


def nd_solution_diagnostics(
    sol: SkorokhodNdSolution,
    w: SampledPath,
    domain: ConvexDomain,
    containment_tol: float | None = None,
) -> dict:
    """:func:`nd_solution_diagnostics_many` for one solution and its driver."""
    return nd_solution_diagnostics_many([sol], [w], domain, containment_tol)[0]
