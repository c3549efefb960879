"""Convex domains as finite intersections of halfspaces and balls.

Membership rules: <n_i, x> >= b_i for each halfspace (n_i a unit inward
normal) and |x - c_j| <= r_j for each ball. The constructor demands a
strictly interior witness point, so the intersection always has interior.

The constructor classifies the domain once. A box (no balls, every normal
+-e_i, redundant faces on one axis folded into one lower and one upper bound
per coordinate) projects by the exact coordinate-wise clip, which is also
the identity, signed zeros included, on the closure. Every other domain
projects in closed form when at most one constraint is violated and falls
back to Dykstra's cyclic scheme otherwise. Projection and slacks have one
implementation each, on batches of points (``project_batch``,
``slack_matrix``); ``project`` and ``slacks`` of one point are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProjectionIterationError

# Dykstra stops once a cycle moves and violates by at most the tolerance
DEFAULT_PROJECT_TOL = 1e-10
DEFAULT_PROJECT_MAX_ITER = 10_000
# a one-constraint projection landing farther than this (relative) outside
# another constraint is redone by Dykstra
_LANDED_TOL = 1e-12
_UNIT_NORM_TOL = 1e-12


def _box_bounds(normals: np.ndarray, offsets: np.ndarray, d: int):
    """Per-coordinate (lo, hi) when every normal is +-e_i, else None.

    A face with normal e_i and offset b is x_i >= b; one with normal -e_i is
    x_i <= -b. Missing bounds are infinite; a side with no finite bound at
    all is None, so the clip skips it.
    """
    nonzero = normals != 0.0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    axis = np.argmax(nonzero, axis=1)
    sign = normals[np.arange(axis.size), axis]
    if not np.all(np.abs(sign) == 1.0):
        return None
    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    up = sign > 0.0
    np.maximum.at(lo, axis[up], offsets[up])
    np.minimum.at(hi, axis[~up], -offsets[~up])
    return (lo if up.any() else None), (hi if not up.all() else None)


def boundary_tolerance(x: np.ndarray) -> float | np.ndarray:
    """Scale-aware tolerance for deciding boundary membership, one per row of a batch."""
    x = np.asarray(x, dtype=np.float64)
    tol = 1e-8 * (1.0 + np.sqrt(np.vecdot(x, x)))
    return float(tol) if x.ndim == 1 else tol


@dataclass(frozen=True, eq=False)
class ConvexDomain:
    """Intersection of halfspaces {<n,x> >= b} and balls {|x-c| <= r}."""

    dimension: int
    normals: np.ndarray = field(default=None)  # (m, d) unit inward normals
    offsets: np.ndarray = field(default=None)  # (m,)
    centers: np.ndarray = field(default=None)  # (p, d)
    radii: np.ndarray = field(default=None)  # (p,)
    interior_point: np.ndarray = field(default=None)
    # (lo, hi) bounds when the domain is an axis-aligned box, else None
    _box: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be >= 1")
        normals = np.array(
            self.normals if self.normals is not None else np.empty((0, d)), dtype=np.float64
        ).reshape(-1, d)
        offsets = np.array(
            self.offsets if self.offsets is not None else np.empty(0), dtype=np.float64
        ).reshape(-1)
        centers = np.array(
            self.centers if self.centers is not None else np.empty((0, d)), dtype=np.float64
        ).reshape(-1, d)
        radii = np.array(
            self.radii if self.radii is not None else np.empty(0), dtype=np.float64
        ).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("normals and offsets must pair up")
        if centers.shape[0] != radii.shape[0]:
            raise ValueError("centers and radii must pair up")
        if normals.shape[0] + centers.shape[0] == 0:
            raise ValueError("domain needs at least one constraint")
        norms = np.linalg.norm(normals, axis=1)
        if normals.shape[0] and np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
            raise ValueError("halfspace normals must have unit norm")
        if radii.size and np.any(radii <= 0.0):
            raise ValueError("ball radii must be positive")
        if self.interior_point is None:
            raise ValueError("an interior witness point is required")
        witness = np.array(self.interior_point, dtype=np.float64).reshape(d)
        for a in (normals, offsets, centers, radii, witness):
            a.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "interior_point", witness)
        if np.min(self.slacks(witness), initial=np.inf) <= 0.0:
            raise ValueError("witness point is not strictly interior")
        if not radii.size:
            object.__setattr__(self, "_box", _box_bounds(normals, offsets, d))

    @property
    def n_constraints(self) -> int:
        return int(self.normals.shape[0] + self.centers.shape[0])

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """Signed margins, one per constraint; nonnegative iff x is in the closure."""
        return self.slack_matrix(np.reshape(x, (1, self.dimension)))[0]

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.min(self.slacks(x)) >= 0.0)

    def slack_matrix(self, points: np.ndarray) -> np.ndarray:
        """Slacks for a batch of points, shape (m_points, n_constraints)."""
        points = np.asarray(points, dtype=np.float64)
        parts = []
        if self.normals.shape[0]:
            parts.append(np.vecdot(points[:, None, :], self.normals) - self.offsets)
        if self.centers.shape[0]:
            diff = points[:, None, :] - self.centers[None, :, :]
            # np.linalg.norm(diff, axis=2) without its call overhead
            parts.append(self.radii - np.sqrt(np.add.reduce(diff * diff, axis=2)))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _clip(self, x: np.ndarray) -> np.ndarray:
        """Exact projection onto the box, as a new array (one side is always finite).

        ``np.where`` rather than ``np.maximum``/``np.minimum`` keeps -0.0 on
        a bound of 0.0: x is returned unchanged wherever it lies in the box.
        """
        lo, hi = self._box
        if lo is not None:
            x = np.where(x < lo, lo, x)
        if hi is not None:
            x = np.where(x > hi, hi, x)
        return x

    def _project_single(self, x: np.ndarray, idx: int) -> np.ndarray:
        """Exact projection onto constraint idx (halfspace first, then balls)."""
        m = self.normals.shape[0]
        if idx < m:
            n = self.normals[idx]
            gap = self.offsets[idx] - n @ x
            if gap <= 0.0:
                return x
            return x + gap * n
        j = idx - m
        c = self.centers[j]
        v = x - c
        dist = np.linalg.norm(v)
        if dist <= self.radii[j]:
            return x
        return c + (self.radii[j] / dist) * v

    def project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the closure; identity (bit-exact) on the closure."""
        return self.project_batch(np.reshape(x, (1, self.dimension)))[0]

    def _dykstra(self, x: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
        n_sets = self.n_constraints
        y = x.copy()
        corrections = np.zeros((n_sets, self.dimension))
        prev = y.copy()
        for _ in range(max_iter):
            for i in range(n_sets):
                z = y + corrections[i]
                y_new = self._project_single(z, i)
                corrections[i] = z - y_new
                y = y_new
            move = float(np.linalg.norm(y - prev))
            violation = float(max(0.0, -np.min(self.slacks(y))))
            if violation <= tol and move <= tol:
                return y
            prev = y.copy()
        raise ProjectionIterationError(
            f"cyclic projection did not reach tol={tol} in {max_iter} cycles",
            last_iterate=y,
            residual=(violation, move),
        )

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        """Nearest point of the closure for each row of points.

        A box is clipped in one pass. Otherwise interior rows and rows
        violating a single constraint are handled in closed form for the
        whole batch; only rows whose one-constraint projection exposes
        another constraint, or that violate several, fall back to Dykstra one
        row at a time.
        """
        if self._box is not None:
            return self._clip(np.asarray(points, dtype=np.float64))
        pts = np.array(points, dtype=np.float64)
        slacks = self.slack_matrix(pts)
        bad = slacks < 0.0
        if not bad.any():
            return pts
        out = pts.copy()
        n_bad = bad.sum(axis=1)
        single = n_bad == 1
        rows, idx = np.nonzero(bad & single[:, None])
        m = self.offsets.size
        on_face = idx < m
        if m:
            # one violated face: x + gap * n with gap = b - <n, x> = -slack exactly
            r, i = rows[on_face], idx[on_face]
            out[r] = pts[r] - slacks[r, i, None] * self.normals[i]
        if self.radii.size:
            # one violated ball: c + (r / |x - c|) (x - c), left alone where
            # this norm rounds to |x - c| <= r although the slack was negative
            r, j = rows[~on_face], idx[~on_face] - m
            c, radius, x = self.centers[j], self.radii[j], pts[r]
            dist = np.sqrt(np.vecdot(x - c, x - c))
            out[r] = np.where((dist > radius)[:, None], c + (radius / dist)[:, None] * (x - c), x)
        # rows whose single-constraint projection exposed another constraint
        rows = np.flatnonzero(single)
        landed = out[rows]
        scale = 1.0 + np.sqrt(np.vecdot(landed, landed))
        redo = rows[np.min(self.slack_matrix(landed), axis=1) < -_LANDED_TOL * scale]
        for row in np.concatenate([redo, np.flatnonzero(n_bad > 1)]):
            out[row] = self._dykstra(pts[row], DEFAULT_PROJECT_TOL, DEFAULT_PROJECT_MAX_ITER)
        return out

    def distance_to_boundary(self, x: np.ndarray) -> float:
        """Distance to the boundary: min |slack| inside, distance to the set outside."""
        return float(self.distance_to_boundary_batch(np.reshape(x, (1, self.dimension)))[0])

    def distance_to_boundary_batch(self, points: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`distance_to_boundary`."""
        pts = np.asarray(points, dtype=np.float64)
        dist = np.min(self.slack_matrix(pts), axis=1)
        outside = np.flatnonzero(dist < 0.0)
        if outside.size:
            shift = self.project_batch(pts[outside]) - pts[outside]
            dist[outside] = np.sqrt(np.vecdot(shift, shift))
        return dist


def active_normal_cone(x, domain: ConvexDomain, tol_bd: float | None = None) -> np.ndarray:
    """Unit inward normals of the constraints active at a boundary point.

    The normal cone at x is the set of unit vectors in the nonnegative span
    of the returned generators. Raises if x is farther than tol_bd from the
    boundary (on either side).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, domain.dimension)
    return active_normal_cones(x, domain, tol_bd)[0]


def _active_generators(pts: np.ndarray, domain: ConvexDomain, tol_bd):
    """Unit inward normals of every constraint at each row, and which are active.

    Returns ``(normals, active)`` of shapes (rows, n_constraints, d) and
    (rows, n_constraints), halfspaces first, then balls. Raises if a row is
    farther than its tolerance from the boundary (on either side).
    """
    if tol_bd is None:
        tol_bd = boundary_tolerance(pts)
    tol_bd = np.broadcast_to(np.asarray(tol_bd, dtype=np.float64), (pts.shape[0],))
    slacks = domain.slack_matrix(pts)
    if np.any(np.min(slacks, axis=1) < -tol_bd) or np.any(np.min(np.abs(slacks), axis=1) > tol_bd):
        raise ValueError("point is not within tol_bd of the boundary")
    active = np.abs(slacks) <= tol_bd[:, None]
    to_center = domain.centers[None, :, :] - pts[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # inactive balls are never read
        ball_normals = to_center / np.sqrt(np.vecdot(to_center, to_center))[:, :, None]
    face_normals = np.broadcast_to(domain.normals, (pts.shape[0],) + domain.normals.shape)
    return np.concatenate([face_normals, ball_normals], axis=1), active


def active_normal_cones(points, domain: ConvexDomain, tol_bd=None) -> list[np.ndarray]:
    """:func:`active_normal_cone` for each row of points.

    ``tol_bd`` is one tolerance for all rows or one per row; by default each
    row gets its own :func:`boundary_tolerance`. Generators come halfspaces
    first, then balls, each in constraint order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, domain.dimension)
    normals, active = _active_generators(pts, domain, tol_bd)
    return [normals[i][active[i]] for i in range(pts.shape[0])]


# a subset of unit generators whose QR factor has a diagonal entry this small
# is treated as dependent (duplicate faces, more than d active constraints):
# rounding leaves ~1e-16 there for exact duplicates
_DEPENDENT_TOL = 1e-14


def normal_cone_residuals(points, directions, domain: ConvexDomain, tol_bd=None):
    """Distance from each unit direction to the normal cone at its boundary point.

    Row i gives min over lam >= 0 of |u_i - sum_j lam_j g_j| over the active
    generators g_j of :func:`active_normal_cones`, with ``tol_bd`` as there.
    Returns ``(residuals, weights)``: weights has one column per constraint
    and holds the minimizing lam (zero off its support), so r = u - G^T lam
    certifies the result by KKT: lam >= 0 and <r, g> <= 0 for each active g.

    Computed by active-set enumeration, all rows sharing a support at once.
    The optimum has a Caratheodory support S of independent generators with
    lam_S > 0, and there r is orthogonal to span(G_S), so the least-squares
    solution on S is the optimum; every other subset with a nonnegative
    least-squares solution gives a feasible lam, so no smaller residual. The
    residual is the least over the empty set (|u|) and every independent
    subset of a row's active generators whose least-squares weights are
    nonnegative. Subsets whose residuals agree to rounding are told apart by
    the KKT test: the one with the least max <r, g> over active g wins, so
    the certificate holds where a tiny lam leaves |r| unchanged in floating
    point.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, domain.dimension)
    u = np.asarray(directions, dtype=np.float64).reshape(pts.shape)
    normals, active = _active_generators(pts, domain, tol_bd)

    def dual_gap(rows, resid):
        # max <r, g> over each row's active generators; inactive balls may be NaN
        dots = np.vecdot(normals[rows], resid[:, None, :])
        return np.max(np.where(active[rows], dots, -np.inf), axis=1)

    residuals = np.sqrt(np.vecdot(u, u))
    tie = 4.0 * np.finfo(np.float64).eps * residuals  # rounding of a residual norm
    gaps = dual_gap(np.arange(len(u)), u)
    weights = np.zeros(active.shape)
    n_gens = active.shape[1]
    # supports by size, each extended only while some row has it all active
    supports = [[j] for j in range(n_gens)]
    for cols in supports:
        rows = np.flatnonzero(np.all(active[:, cols], axis=1))
        if not rows.size:
            continue
        if len(cols) < domain.dimension:
            supports += [cols + [j] for j in range(cols[-1] + 1, n_gens)]
        gens = normals[rows][:, cols]  # (rows, k, d)
        q, r = np.linalg.qr(np.swapaxes(gens, 1, 2))
        independent = np.all(np.abs(np.diagonal(r, axis1=1, axis2=2)) > _DEPENDENT_TOL, axis=1)
        rows, gens, q, r = rows[independent], gens[independent], q[independent], r[independent]
        lam = np.linalg.solve(r, np.vecdot(np.swapaxes(q, 1, 2), u[rows, None, :])[..., None])[..., 0]
        resid = u[rows] - np.vecdot(np.swapaxes(gens, 1, 2), lam[:, None, :])
        dist = np.sqrt(np.vecdot(resid, resid))
        gap = dual_gap(rows, resid)
        best, near = residuals[rows], tie[rows]
        better = np.all(lam >= 0.0, axis=1) & (
            (dist < best - near) | ((dist <= best + near) & (gap < gaps[rows]))
        )
        rows = rows[better]
        residuals[rows] = dist[better]
        gaps[rows] = gap[better]
        weights[rows] = 0.0
        weights[rows[:, None], cols] = lam[better]
    return residuals, weights


# Ready-made domains used throughout the tests and experiments.

def half_line() -> ConvexDomain:
    """[0, inf) in R^1."""
    return ConvexDomain(1, normals=[[1.0]], offsets=[0.0], interior_point=[1.0])


def halfplane() -> ConvexDomain:
    """{y >= 0} in R^2."""
    return ConvexDomain(2, normals=[[0.0, 1.0]], offsets=[0.0], interior_point=[0.0, 1.0])


def orthant(d: int = 2) -> ConvexDomain:
    """Nonnegative orthant in R^d."""
    return ConvexDomain(d, normals=np.eye(d), offsets=np.zeros(d), interior_point=np.ones(d))


def ball_domain(center, radius: float) -> ConvexDomain:
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    return ConvexDomain(
        center.size, centers=[center], radii=[radius], interior_point=center
    )


def unit_disc() -> ConvexDomain:
    return ball_domain([0.0, 0.0], 1.0)


def strip(low: float = 0.0, high: float = 1.0) -> ConvexDomain:
    """{low <= y <= high} in R^2."""
    if not high > low:
        raise ValueError("strip needs high > low")
    return ConvexDomain(
        2,
        normals=[[0.0, 1.0], [0.0, -1.0]],
        offsets=[low, -high],
        interior_point=[0.0, 0.5 * (low + high)],
    )
