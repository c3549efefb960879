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

from .domains import ConvexDomain, boundary_tolerance, normal_cone_residuals
from .domains import _cone_distance, _onto_faces
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

def _pushing_record(dphi: np.ndarray):
    """Running total variation and unit directions of pushing increments.

    ``dphi`` is (..., grid, d), each path's increments in grid order with a
    zero first row. Returns ``(tv, directions)`` shaped (..., grid) and
    (..., grid, d): tv sums the increment norms in grid order from 0, and
    directions are NaN where the increment is zero.
    """
    norms = np.sqrt(np.vecdot(dphi, dphi))  # np.linalg.norm of each row
    pushed = norms > 0.0
    dirs = np.full_like(dphi, np.nan)
    dirs[pushed] = dphi[pushed] / norms[pushed, None]
    return np.cumsum(norms, axis=-1), dirs


# longest block of steps screened at once; bounds the slack work wasted when
# a path leaves the closure early in a block
_MAX_SPAN = 256


def _reflect_on_grid(wv: np.ndarray, domain: ConvexDomain):
    """Step recursion for drivers wv of shape (paths, grid, d) on one shared grid.

    A step where some path leaves the closure is one ``project_batch`` call
    over all paths. After a step without pushing, the following steps are
    screened in blocks of doubling length: while every path stays in the
    closure, X = w + phi(t_k) needs no projection. Rows are independent, so
    a path's result does not depend on the batch. Returns X, phi and their
    :func:`_pushing_record`.
    """
    n_paths, n, d = wv.shape
    outside = np.flatnonzero(np.min(domain.slack_matrix(wv[:, 0]), axis=1) < 0.0)
    if outside.size:
        raise ValueError(f"driver {outside[0]} must start inside the closed domain")
    X = np.empty_like(wv)
    phi = np.zeros_like(wv)
    X[:, 0] = wv[:, 0]
    acc = np.zeros((n_paths, d))  # phi(t_k), kept as X - w so the decomposition is exact
    k, span = 1, 1
    while k < n:
        if span > 1:
            ahead = wv[:, k : k + span] + acc[:, None, :]
            leaves = domain.slack_matrix(ahead.reshape(-1, d)) < 0.0
            # does some path leave at each step: over paths first, in long runs
            # of (steps, constraints), then over each step's constraints
            step_leaves = np.logical_or.reduce(leaves.reshape(n_paths, ahead.shape[1], -1), axis=0)
            step_leaves = np.logical_or.reduce(step_leaves, axis=1)
            stay = int(np.argmax(step_leaves))
            if not step_leaves[stay]:
                stay = step_leaves.size
            X[:, k : k + stay] = ahead[:, :stay]
            phi[:, k : k + stay] = acc[:, None, :]
            k += stay
            span = min(2 * span, _MAX_SPAN) if stay == step_leaves.size else 1
            continue
        wk = wv[:, k]
        free = wk + acc
        landed = domain.project_batch(free)
        X[:, k] = landed
        # rows with no pushing (landed == free) keep phi bitwise unchanged so
        # interior steps carry exactly zero mass
        moved = np.logical_or.reduce(landed != free, axis=1)
        if np.logical_or.reduce(moved):
            acc = np.where(moved[:, None], landed - wk, acc)
        else:
            span = 2
        phi[:, k] = acc
        k += 1
    # phi[:, 0] is 0, so the first increment is 0 too
    return (X, phi) + _pushing_record(np.diff(phi, axis=1, prepend=0.0))


def solve_skorokhod_step(w: SampledPath, domain: ConvexDomain) -> SkorokhodNdSolution:
    """Reflect cadlag step inputs: project after every jump of each driver.

    All drivers of the batch advance in one recursion; row i of the result
    is the solution driver i gets on its own. A driver starting outside the
    closure raises ValueError naming its index.
    """
    if w.kind is not PathKind.STEP:
        raise ValueError("solve_skorokhod_step expects step paths")
    X, phi, tv, dirs = _reflect_on_grid(w.values, domain)
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
        X, phi, tv, dirs = _reflect_on_grid(wv, domain)
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
    return solve_skorokhod_continuous_many(w, domain, refine_tol, max_levels, refine_factor)[0]


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
    reason: str = ""


# a least-distance residual this small is 0 up to rounding: {N z >= 1} is empty
_EMPTY_TOL = 1e-14
# a target this near the cone is in it up to rounding, in units of 1 + sum(lam)
_IN_CONE_TOL = 64.0 * np.finfo(np.float64).eps


def check_condition_a(domain: ConvexDomain) -> ConditionAResult:
    """Find the unit vector making the largest least angle with the face normals.

    Condition A asks for a unit e and c > 0 with <n_j, e> >= c for each inward
    normal n_j. The best e is z/|z| for the point z of {N z >= 1} nearest 0,
    and c = min(N e). That point solves a least-distance program (Lawson &
    Hanson 1974, ch. 23) whose dual is the distance from e_{d+1} to the cone
    of the lifted normals (n_j, 1): a zero distance means the set is empty,
    so the weighted faces have 0 in the convex hull of their normals and
    condition A fails; otherwise the faces with positive weight are active
    at z. Domains with balls (a continuum of boundary normals) report
    unknown.
    """
    if domain.dimension > 8:
        raise ValueError("condition A search is not supported above dimension 8")
    if domain.centers.shape[0] > 0:
        return ConditionAResult(
            status="unknown",
            detail="ball constraints contribute a continuum of boundary normals",
        )
    normals, d = domain.normals, domain.dimension
    lifted = np.column_stack([normals, np.ones(normals.shape[0])])
    (residual,), (weights,) = _cone_distance(lifted, np.eye(d + 1)[-1:])
    faces = np.flatnonzero(weights > 0.0)
    if residual <= _EMPTY_TOL:
        detail = (
            "two face normals are antipodal; no direction can make a positive angle with both"
            if faces.size == 2
            else f"the normals of faces {', '.join(map(str, faces))} have 0 in their convex "
            "hull; no direction can make a positive angle with all of them"
        )
        return ConditionAResult(status="fails", detail=detail)
    z = _onto_faces(np.zeros((1, d)), normals[faces], np.ones(faces.size))[0]
    e = z / np.linalg.norm(z)
    return ConditionAResult(status="holds", e=e, c=float(np.min(normals @ e)))


def check_condition_b(domain: ConvexDomain) -> ConditionBResult:
    """Report the geometric interior-ball condition via its sufficient cases.

    Holds when the domain is bounded or when the dimension is at most 2
    (in d = 1 a convex domain is an interval, with at most two boundary
    points); otherwise unknown (no general decision procedure is attempted). A ball bounds the
    domain, and a box is bounded when both bounds of every coordinate are
    finite. Any other polytope has an interior point, so it is bounded
    exactly when the cone of its face normals holds every +-e_i: when each
    e_i's least distance to that cone is 0 up to rounding.
    """
    if domain.centers.shape[0] > 0:
        return ConditionBResult(status="holds", reason="bounded: contained in a ball")
    if domain._box is not None:
        lo, hi = domain._box
        bounded = lo is not None and hi is not None and bool(np.all(np.isfinite([lo, hi])))
    else:
        d = domain.dimension
        residuals, weights = _cone_distance(domain.normals, np.vstack([np.eye(d), -np.eye(d)]))
        bounded = bool(np.all(residuals <= _IN_CONE_TOL * (1.0 + weights.sum(axis=1))))
    if bounded:
        return ConditionBResult(status="holds", reason="bounded: every coordinate is bounded")
    if domain.dimension <= 2:
        return ConditionBResult(status="holds", reason=f"dimension {domain.dimension}")
    return ConditionBResult(
        status="unknown", reason="unbounded with dimension > 2; no decision procedure"
    )


def nd_solution_diagnostics(
    sol: SkorokhodNdSolution,
    w: SampledPath,
    domain: ConvexDomain,
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
        "interior_pushing_mass": interior_mass,
        "max_angular_gap": angular_gap,
        "tv_increment_defect": tv_defect,
        "phi_start_norm": np.linalg.norm(phi[:, 0], axis=1),
    }
