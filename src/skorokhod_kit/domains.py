"""Convex domains as finite intersections of halfspaces and balls.

Membership rules: <n_i, x> >= b_i for each halfspace (n_i a unit inward
normal) and |x - c_j| <= r_j for each ball. The constructor demands a
strictly interior witness point, so the intersection always has interior.

The constructor classifies the domain once. A box (no balls, every normal
+-e_i, redundant faces on one axis folded into one lower and one upper bound
per coordinate) projects by the exact coordinate-wise clip, which is also
the identity, signed zeros included, on the closure. A lone ball (one ball,
no faces) projects radially in one vectorized pass. Other domains project
in closed form when one constraint is violated and its projection lands in
the closure; past that, every domain projects exactly by enumerating the
supports (sets of at most d faces and balls) that can be active at the
nearest point. Slacks, projection and the distance to the boundary run on
batches of points only (``slack_matrix``, ``project_batch``,
``distance_to_boundary_batch``); ``project`` and ``distance_to_boundary`` of
one point are batches of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_UNIT_NORM_TOL = 1e-12
# a point near x is in the closure when no slack is below -_FEASIBLE_TOL
# (1 + size + |x|): a few ulps of the largest magnitude involved
_FEASIBLE_TOL = 8.0 * np.finfo(np.float64).eps


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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """|v_i| for each row of v, computed as sqrt(<v_i, v_i>).

    A row whose squared norm overflows is scaled by its largest |v_ij| first,
    so a far point gets its finite norm; every other row keeps these bits.
    """
    with np.errstate(over="ignore"):  # overflowed rows are redone below
        norms = np.sqrt(np.vecdot(v, v))
    far = np.isinf(norms)
    if np.logical_or.reduce(far):
        scale = np.max(np.abs(v[far]), axis=1)
        unit = v[far] / scale[:, None]
        norms[far] = scale * np.sqrt(np.vecdot(unit, unit))
    return norms


def _radial_landing(x: np.ndarray, diff: np.ndarray, c, radius, outside=True) -> np.ndarray:
    """Rows of x outside the ball |y - c| <= radius, moved radially onto its sphere.

    A row goes to c + (radius / |x - c|) (x - c) where |x - c| > radius and
    ``outside`` holds for it, and stays x elsewhere. ``diff`` is x - c, and
    ``c`` and ``radius`` are one ball or one per row. |x - c| comes from
    :func:`_row_norms`, so a far point lands on the sphere, not at c.
    """
    dist = _row_norms(diff)
    # radius / dist where the row moves; 1 elsewhere, so no row divides by 0
    landing = c + (radius / np.maximum(dist, radius))[:, None] * diff
    return np.where(((dist > radius) & outside)[:, None], landing, x)


def boundary_tolerance(x: np.ndarray) -> np.ndarray:
    """Scale-aware tolerance for deciding boundary membership, one per row of a batch."""
    return 1e-8 * (1.0 + np.sqrt(np.vecdot(x, x)))


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
    # (center, radius) when the domain is one ball and no faces, else None
    _ball: tuple | None = field(default=None, init=False, repr=False)
    # largest |b_i| or |c_j| + r_j, the scale of the domain's rounding
    _size: float = field(default=0.0, init=False, repr=False)

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
        if self.interior_point is None:
            raise ValueError("an interior witness point is required")
        witness = np.array(self.interior_point, dtype=np.float64).reshape(d)
        arrays = dict(normals=normals, offsets=offsets, centers=centers, radii=radii)
        for name, a in {**arrays, "interior_point": witness}.items():
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        norms = np.linalg.norm(normals, axis=1)
        if normals.shape[0] and np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
            raise ValueError("halfspace normals must have unit norm")
        if radii.size and np.any(radii <= 0.0):
            raise ValueError("ball radii must be positive")
        if np.min(self.slack_matrix(witness[None])) <= 0.0:
            raise ValueError("witness point is not strictly interior")
        if not radii.size:
            object.__setattr__(self, "_box", _box_bounds(normals, offsets, d))
        elif radii.size == 1 and not offsets.size:
            object.__setattr__(self, "_ball", (centers[0], radii[0]))
        reach = np.sqrt(np.vecdot(centers, centers)) + radii
        object.__setattr__(self, "_size", max(np.max(np.abs(offsets), initial=0.0), np.max(reach, initial=0.0)))

    @property
    def n_constraints(self) -> int:
        return int(self.normals.shape[0] + self.centers.shape[0])

    def slack_matrix(self, points: np.ndarray) -> np.ndarray:
        """Signed margins, shape (points, constraints): a row is >= 0 iff its point is in the closure."""
        points = np.asarray(points, dtype=np.float64)
        parts = []
        if self.normals.shape[0]:
            parts.append(np.vecdot(points[:, None, :], self.normals) - self.offsets)
        if self.centers.shape[0]:
            diff = points[:, None, :] - self.centers[None, :, :]
            # np.linalg.norm(diff, axis=2) without its call overhead; a far
            # point's slack overflows to -inf, which has the right sign
            with np.errstate(over="ignore"):
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

    def project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the closure; identity (bit-exact) on the closure."""
        return self.project_batch(np.reshape(x, (1, self.dimension)))[0]

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        """Nearest point of the closure for each row of points.

        A box is clipped in one pass, and a lone ball is projected radially
        in one pass (:meth:`_project_on_ball`). Otherwise interior rows are
        returned as they are, and rows violating a single constraint are
        projected onto it in closed form for the whole batch. Rows whose
        one-constraint projection leaves the closure, or that violate several
        constraints, are projected by support enumeration
        (:meth:`_project_on_supports`), all such rows at once. The result is
        always a new array.
        """
        if self._box is not None:
            return self._clip(np.asarray(points, dtype=np.float64))
        pts = np.array(points, dtype=np.float64)
        if self._ball is not None:
            return self._project_on_ball(pts)
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
            # one violated face: x + (gap / |n|^2) n with gap = b - <n, x> = -slack
            # exactly; |n|^2 is 1 only to the constructor's tolerance
            r, i = rows[on_face], idx[on_face]
            step = self.normals / np.vecdot(self.normals, self.normals)[:, None]
            out[r] = pts[r] - slacks[r, i, None] * step[i]
        if self.radii.size:
            # one violated ball: the radial landing, left alone where its norm
            # rounds to |x - c| <= r although the slack was negative
            r, j = rows[~on_face], idx[~on_face] - m
            x, c = pts[r], self.centers[j]
            out[r] = _radial_landing(x, x - c, c, self.radii[j])
        # rows whose single-constraint projection left the closure
        rows = np.flatnonzero(single)
        landed = out[rows]
        outside = np.min(self.slack_matrix(landed), axis=1) < self._least_slack(landed)
        rest = np.concatenate([rows[outside], np.flatnonzero(n_bad > 1)])
        if rest.size:
            out[rest] = self._project_on_supports(pts[rest])
        return out

    def _project_on_ball(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`project_batch` of a lone ball: the general route's floats in one pass.

        Rows with a negative slack (the :meth:`slack_matrix` formula) take
        the radial landing. A landing is certified as the general route
        certifies it: every row with slack >= -_FEASIBLE_TOL (1 + size),
        never above :meth:`_least_slack`, passes at once; the rest are
        checked against :meth:`_least_slack` itself, and those failing it go
        to :meth:`_project_on_supports`.
        """
        c, radius = self._ball
        diff = pts - c
        with np.errstate(over="ignore"):  # a far row's slack is -inf, as it should be
            outside = radius - np.sqrt(np.add.reduce(diff * diff, axis=1)) < 0.0
        if not np.logical_or.reduce(outside):
            return pts
        out = _radial_landing(pts, diff, c, radius, outside)
        diff = out - c
        slack = radius - np.sqrt(np.add.reduce(diff * diff, axis=1))
        loose = np.flatnonzero(slack < -_FEASIBLE_TOL * (1.0 + self._size))
        if loose.size:
            rest = loose[slack[loose] < self._least_slack(out[loose])]
            if rest.size:
                out[rest] = self._project_on_supports(pts[rest])
        return out

    def _least_slack(self, x: np.ndarray) -> np.ndarray:
        """Least slack that rounding leaves a point of the closure near each row of x."""
        return -_FEASIBLE_TOL * (1.0 + self._size + _row_norms(x))

    def _project_on_supports(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the closure for each row of x, by support enumeration.

        The nearest point p is the point nearest x on the boundaries of a
        support S of at most d constraints with independent gradients. S's
        faces and the radical hyperplanes of its balls (sphere equations
        minus the first's) cut out an affine set A; x' and c' are the
        projections onto A of x and of the first centre c. With a ball
        (c, r), the candidate is c' + rho (x' - c') / |x' - c'|, rho^2 =
        r^2 - |c - c'|^2 (no candidate if negative); otherwise x'. Every
        candidate in the closure (slacks >= :meth:`_least_slack` at the scale
        the candidate was computed at: x's for x', the candidate's own for a
        sphere point) is at least as far from x as p, so the nearest one is p. A row with none
        (rounding on an ill-conditioned support) gets the least violating.
        Distances are compared with x - candidate scaled by a power of two
        per row: exact, and finite however far x is.
        """
        m, n, d = self.offsets.size, self.n_constraints, self.dimension
        least_x = self._least_slack(x)
        unit = np.ldexp(1.0, -np.frexp(np.max(np.abs(x), axis=1, initial=1.0))[1])[:, None]
        best = np.empty_like(x)
        best_violation = np.full(len(x), np.inf)
        best_dist = np.full(len(x), np.inf)
        for support in [s for k in range(1, d + 1) for s in itertools.combinations(range(n), k)]:
            faces = [i for i in support if i < m]
            balls = [i - m for i in support if i >= m]
            normals, offsets, rows = self.normals[faces], self.offsets[faces], x
            if balls:
                c, r = self.centers[balls], self.radii[balls]
                # |y - c_j|^2 - r_j^2 = |y - c_0|^2 - r_0^2, i.e. <c_j - c_0, y> = h_j
                gaps = c[1:] - c[0]
                h = 0.5 * (np.vecdot(c[1:], c[1:]) - r[1:] ** 2 - c[0] @ c[0] + r[0] ** 2)
                lengths = np.sqrt(np.vecdot(gaps, gaps))
                if np.any(lengths == 0.0):
                    continue  # concentric spheres: equal (a smaller support) or disjoint
                normals = np.concatenate([normals, gaps / lengths[:, None]])
                offsets = np.concatenate([offsets, h / lengths])
                rows = np.vstack([c[0], x])  # c' is the first row of the projection
            onto = _onto_faces(rows, normals, offsets)
            if onto is None:
                continue  # dependent: a smaller support has the same boundaries
            if balls:
                center, onto = onto[0], onto[1:]
                rho2 = r[0] ** 2 - np.sum((c[0] - center) ** 2)
                if rho2 < 0.0:
                    continue
                toward = onto - center
                length = _row_norms(toward)
                scale = np.divide(np.sqrt(rho2), length, out=np.zeros_like(length), where=length > 0.0)
                onto = center + scale[:, None] * toward
            # x' carries rounding at x's scale; a sphere point is rebuilt at
            # rho's, so a far x lends it no slack. One off its own boundaries
            # (x' - c' of rounding size gives it a direction of noise) fails too
            least = self._least_slack(onto) if balls else least_x
            violation = np.max(least[:, None] - self.slack_matrix(onto), axis=1, initial=0.0)
            gap = (onto - x) * unit
            dist = np.vecdot(gap, gap)
            better = (violation < best_violation) | ((violation == best_violation) & (dist < best_dist))
            best[better] = onto[better]
            best_violation[better] = violation[better]
            best_dist[better] = dist[better]
        return best

    def distance_to_boundary(self, x: np.ndarray) -> float:
        """Distance to the boundary: min |slack| inside, distance to the set outside."""
        return float(self.distance_to_boundary_batch(np.reshape(x, (1, self.dimension)))[0])

    def distance_to_boundary_batch(self, points: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`distance_to_boundary`."""
        pts = np.asarray(points, dtype=np.float64)
        dist = np.min(self.slack_matrix(pts), axis=1)
        outside = np.flatnonzero(dist < 0.0)
        if outside.size:
            dist[outside] = _row_norms(self.project_batch(pts[outside]) - pts[outside])
        return dist


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
    """Unit inward normals of the constraints active at each boundary point.

    Entry i holds row i's generators: the normal cone there is the set of
    unit vectors in their nonnegative span. Raises if a row is farther than
    its tolerance from the boundary (on either side). ``tol_bd`` is one
    tolerance for all rows or one per row; by default each row gets its own
    :func:`boundary_tolerance`. Generators come halfspaces first, then
    balls, each in constraint order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, domain.dimension)
    normals, active = _active_generators(pts, domain, tol_bd)
    return [normals[i][active[i]] for i in range(pts.shape[0])]


# a subset of unit generators whose QR factor has a diagonal entry this small
# is treated as dependent (duplicate faces, more than d active constraints):
# rounding leaves ~1e-16 there for exact duplicates
_DEPENDENT_TOL = 1e-14


def _least_distance(gens, active, u):
    """Distance from each row of u to the cone of that row's active generators.

    ``gens`` is (rows, n, m), ``active`` (rows, n), ``u`` (rows, m), for any
    m. Row i gives min over lam >= 0 of |u_i - sum_j lam_j g_ij| over its
    active j. Returns ``(residuals, weights)``, weights (rows, n) holding the
    minimizing lam (zero off its support): r = u - G^T lam certifies the
    result by KKT, lam >= 0 and <r, g> <= 0 for each active g.

    Active-set enumeration, all rows sharing a support at once: the optimum
    has a Caratheodory support S of at most m independent generators with
    lam_S > 0, where r is orthogonal to span(G_S), so it is the least-squares
    solution on S, and every subset with nonnegative least-squares weights is
    feasible. The residual is thus the least over the empty set (|u|) and
    those subsets. Residuals that agree to rounding are told apart by the KKT
    test (least max <r, g> over active g wins), so the certificate holds
    where a tiny lam leaves |r| unchanged in floating point.
    """

    def dual_gap(rows, resid):
        # max <r, g> over each row's active generators; inactive ones may be NaN
        dots = np.vecdot(gens[rows], resid[:, None, :])
        return np.max(np.where(active[rows], dots, -np.inf), axis=1)

    residuals = np.sqrt(np.vecdot(u, u))
    tie = 4.0 * np.finfo(np.float64).eps * residuals  # rounding of a residual norm
    gaps = dual_gap(np.arange(len(u)), u)
    weights = np.zeros(active.shape)
    n_gens, dim = active.shape[1], u.shape[1]
    # supports by size, each extended only while some row has it all active
    supports = [[j] for j in range(n_gens)]
    for cols in supports:
        rows = np.flatnonzero(np.all(active[:, cols], axis=1))
        if not rows.size:
            continue
        if len(cols) < dim:
            supports += [cols + [j] for j in range(cols[-1] + 1, n_gens)]
        sub = gens[rows][:, cols]  # (rows, k, m)
        q, r = np.linalg.qr(np.swapaxes(sub, 1, 2))
        independent = np.all(np.abs(np.diagonal(r, axis1=1, axis2=2)) > _DEPENDENT_TOL, axis=1)
        rows, sub, q, r = rows[independent], sub[independent], q[independent], r[independent]
        lam = np.linalg.solve(r, np.vecdot(np.swapaxes(q, 1, 2), u[rows, None, :])[..., None])[..., 0]
        resid = u[rows] - np.vecdot(np.swapaxes(sub, 1, 2), lam[:, None, :])
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


def normal_cone_residuals(points, directions, domain: ConvexDomain, tol_bd=None):
    """Distance from each unit direction to the normal cone at its boundary point.

    :func:`_least_distance` over the generators of :func:`active_normal_cones`
    (``tol_bd`` as there); weights has one column per constraint.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, domain.dimension)
    u = np.asarray(directions, dtype=np.float64).reshape(pts.shape)
    normals, active = _active_generators(pts, domain, tol_bd)
    return _least_distance(normals, active, u)


def _cone_distance(gens, targets):
    """Distance from each row of targets to the cone of the rows of gens.

    :func:`_least_distance` with every generator active for every target;
    returns its ``(residuals, weights)``.
    """
    rows = len(targets)
    every = np.ones((rows, len(gens)), dtype=bool)
    return _least_distance(np.broadcast_to(gens, (rows,) + gens.shape), every, targets)


def _onto_faces(x, normals, offsets):
    """Projection of each row of x onto {N y = b}, N with unit rows; None if they are dependent.

    x - Q Q^T x + Q R^-T b with N^T = QR, summed elementwise rather than by
    BLAS so that a row does not depend on its batch. No rows: x itself.
    """
    if not len(offsets):
        return x
    q, r = np.linalg.qr(normals.T)
    if np.min(np.abs(np.diagonal(r))) <= _DEPENDENT_TOL:
        return None
    along = np.vecdot(np.vecdot(x[:, None, :], q.T)[:, None, :], q)
    return (x - along) + q @ np.linalg.solve(r.T, offsets)


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
