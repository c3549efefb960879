import copy
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skorokhod_kit import (
    ConvexDomain,
    active_normal_cones,
    ball_domain,
    half_line,
    halfplane,
    normal_cone_residuals,
    orthant,
    strip,
    unit_disc,
)
from skorokhod_kit import domains
from skorokhod_kit.config import load_domain_file
from skorokhod_kit.domains import _active_generators
from skorokhod_kit.experiments import default_config, run_experiment

DOMAIN_FILES = sorted((Path(__file__).resolve().parents[1] / "configs" / "domains").glob("*.domain"))
CAPPED_HALFPLANE = load_domain_file(DOMAIN_FILES[0])
# two unit discs whose boundaries cross at the corners (0, +-sqrt(3/4))
LENS = ConvexDomain(2, centers=[[-0.5, 0.0], [0.5, 0.0]], radii=[1.0, 1.0], interior_point=[0.0, 0.0])


def brute_force_nearest(x, candidates):
    """Independent oracle: nearest point among a dense feasible sample."""
    d2 = np.sum((candidates - x) ** 2, axis=1)
    return candidates[np.argmin(d2)]


def test_halfspace_projection_analytic():
    assert np.allclose(halfplane().project([1.0, -1.0]), [1.0, 0.0], atol=0.0)
    assert np.array_equal(halfplane().project([1.0, 2.0]), [1.0, 2.0])


def test_ball_projection_radial():
    assert np.allclose(unit_disc().project([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    inside = unit_disc().project([0.3, 0.1])
    assert np.array_equal(inside, [0.3, 0.1])


def test_orthant_corner_projection_with_brute_force_oracle():
    # oracle first: scan a feasible grid for the nearest point to (-1, -1)
    xs = np.linspace(0.0, 2.0, 201)
    grid_pts = np.array([[a, b] for a in xs for b in xs])
    oracle = brute_force_nearest([-1.0, -1.0], grid_pts)
    assert np.allclose(oracle, [0.0, 0.0], atol=1e-12)
    assert np.allclose(orthant(2).project([-1.0, -1.0]), [0.0, 0.0], atol=1e-12)


def test_identity_on_closure_is_exact():
    dom = orthant(2)
    for x in ([0.0, 0.0], [0.0, 2.0], [1.5, 0.5], [-0.0, 2.0], [1.5, -0.0]):
        x = np.array(x)
        # bytes, not values: -0.0 on a face must come back as -0.0
        assert dom.project(x).tobytes() == x.tobytes()
        assert dom.project_batch(x[None, :])[0].tobytes() == x.tobytes()
    x = np.array([-0.0])
    assert half_line().project(x).tobytes() == x.tobytes()
    assert half_line().project_batch(x[None, :])[0].tobytes() == x.tobytes()


def test_projection_onto_intersection_with_ball():
    # upper half of the unit disc; pull toward the lower-left outside corner
    dom = ConvexDomain(
        2,
        normals=[[0.0, 1.0]],
        offsets=[0.0],
        centers=[[0.0, 0.0]],
        radii=[1.0],
        interior_point=[0.0, 0.5],
    )
    p = dom.project(np.array([-2.0, -0.5]))
    assert np.min(dom.slack_matrix(p[None])[0]) >= -1e-10
    # oracle: parameterize the feasible set densely
    xs = np.linspace(-1.0, 1.0, 401)
    ys = np.linspace(0.0, 1.0, 201)
    pts = np.array([[a, b] for a in xs for b in ys if a * a + b * b <= 1.0])
    oracle = brute_force_nearest([-2.0, -0.5], pts)
    assert np.linalg.norm(p - oracle) < 6e-3  # oracle grid resolution


point_2d = st.tuples(
    st.floats(-5.0, 5.0, allow_nan=False), st.floats(-5.0, 5.0, allow_nan=False)
).map(np.array)


@settings(max_examples=60, deadline=None)
@given(point_2d)
def test_projection_idempotent(x):
    dom = unit_disc()
    p = dom.project(x)
    q = dom.project(p)
    assert np.linalg.norm(p - q) <= 2e-10


@settings(max_examples=60, deadline=None)
@given(point_2d, point_2d)
def test_projection_nonexpansive(x, y):
    for dom in (orthant(2), unit_disc(), strip(), CAPPED_HALFPLANE, LENS):
        px, py = dom.project(x), dom.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 2e-10


@settings(max_examples=60, deadline=None)
@given(point_2d, point_2d)
def test_projection_variational_inequality(x, q_raw):
    # <x - Px, q - Px> <= tol (1 + |q|) for q in the closure
    for dom in (orthant(2), unit_disc(), CAPPED_HALFPLANE, LENS):
        p = dom.project(x)
        q = dom.project(q_raw)
        inner = float((x - p) @ (q - p))
        assert inner <= 1e-10 * (1.0 + np.linalg.norm(q))


def test_domain_constructor_validation():
    with pytest.raises(ValueError):
        ConvexDomain(2, normals=[[1.0, 1.0]], offsets=[0.0], interior_point=[1.0, 1.0])
    with pytest.raises(ValueError):
        ConvexDomain(2, normals=[[1.0, 0.0]], offsets=[0.0], interior_point=[-1.0, 0.0])
    with pytest.raises(ValueError):
        ConvexDomain(2, interior_point=[0.0, 0.0])  # no constraints
    with pytest.raises(ValueError):
        ball_domain([0.0], -1.0)
    with pytest.raises(ValueError):
        ConvexDomain(2, normals=[[1.0, 0.0]], offsets=[0.0], interior_point=None)
    # non-finite data: a NaN normal once built a domain that "projected"
    # (0, -1) to itself, and a NaN slack passed the witness test
    face, disc = dict(normals=[[0.0, 1.0]], offsets=[0.0]), dict(centers=[[0.0, 0.0]], radii=[1.0])
    for field, kwargs in [
        ("normals", dict(face, normals=[[np.nan, 1.0]])),
        ("normals", dict(face, normals=[[np.inf, 1.0]])),
        ("offsets", dict(face, offsets=[np.nan])),
        ("offsets", dict(face, offsets=[-np.inf])),
        ("centers", dict(disc, centers=[[np.nan, 0.0]])),
        ("radii", dict(disc, radii=[np.nan])),
        ("radii", dict(disc, radii=[np.inf])),
        ("interior_point", dict(face, interior_point=[0.0, np.nan])),
    ]:
        kwargs.setdefault("interior_point", [0.0, 0.5])
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ConvexDomain(2, **kwargs)


def test_active_normal_cone_single_face():
    cone = active_normal_cones([[3.0, 0.0]], halfplane())[0]
    assert np.allclose(cone, [[0.0, 1.0]])


def test_active_normal_cone_corner():
    cone = active_normal_cones([[0.0, 0.0]], orthant(2))[0]
    assert cone.shape == (2, 2)
    assert np.allclose(sorted(map(tuple, cone)), [[0.0, 1.0], [1.0, 0.0]])


def test_active_normal_cone_ball():
    cone = active_normal_cones([[0.0, -1.0]], unit_disc())[0]
    assert np.allclose(cone, [[0.0, 1.0]], atol=1e-12)


def test_active_normal_cone_preconditions():
    with pytest.raises(ValueError):
        active_normal_cones([[5.0, 5.0]], orthant(2))  # deep interior
    with pytest.raises(ValueError):
        active_normal_cones([[-1.0, -1.0]], orthant(2))  # far outside


def test_distance_to_boundary():
    dom = unit_disc()
    assert dom.distance_to_boundary(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert dom.distance_to_boundary(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert dom.distance_to_boundary(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_project_batch_matches_pointwise():
    dom = ConvexDomain(
        2,
        normals=[[0.0, 1.0]],
        offsets=[0.0],
        centers=[[0.0, 0.5]],
        radii=[2.0],
        interior_point=[0.0, 0.5],
    )
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    pts = gen.normal(scale=2.5, size=(200, 2))
    batch = dom.project_batch(pts)
    single = np.array([dom.project(p) for p in pts])
    assert np.allclose(batch, single, atol=1e-12)


def test_half_line_projection_is_clamp():
    dom = half_line()
    assert dom.project(np.array([-0.7]))[0] == 0.0
    assert dom.project(np.array([0.7]))[0] == 0.7


def _probe_points(dom: ConvexDomain) -> np.ndarray:
    """Inside, on one face, past a corner, outside a ball, plus a random cloud."""
    ip = dom.interior_point
    pts = [ip]
    slack = dom.slack_matrix(ip[None])[0]
    m = dom.normals.shape[0]
    past_all = ip.copy()
    for i in range(m):
        outside_one = ip - (slack[i] + 0.5) * dom.normals[i]
        pts += [outside_one, dom.project(outside_one)]  # the landing lies on face i
        past_all = past_all - (slack[i] + 0.5) * dom.normals[i]
    if m:
        pts.append(past_all)
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 4], dtype=np.uint64)))
    for c, r in zip(dom.centers, dom.radii):
        for u in gen.normal(size=(4, dom.dimension)):
            outside_ball = c + 1.5 * r * u / np.linalg.norm(u)
            pts += [outside_ball, dom.project(outside_ball)]
    cloud = ip + gen.normal(scale=2.5, size=(300, dom.dimension))
    return np.vstack([np.array(pts), cloud])


TILTED = ConvexDomain(
    2,
    normals=[[0.6, 0.8], [-0.28, 0.96]],
    offsets=[0.1, -0.5],
    centers=[[0.3, 0.2]],
    radii=[1.7],
    interior_point=[0.3, 0.5],
)


CAPPED_3D = ConvexDomain(
    3,
    normals=[[0.0, 0.0, 1.0]],
    offsets=[0.0],
    centers=[[0.1, -0.2, 0.3]],
    radii=[1.5],
    interior_point=[0.1, -0.2, 0.5],
)


@pytest.mark.parametrize(
    "dom",
    [half_line(), halfplane(), orthant(2), orthant(3), strip(), unit_disc(), TILTED, CAPPED_3D]
    + [load_domain_file(f) for f in DOMAIN_FILES],
    ids=["half_line", "halfplane", "orthant2", "orthant3", "strip", "unit_disc", "tilted", "capped3d"]
    + [f.stem for f in DOMAIN_FILES],
)
def test_project_batch_bit_identical_to_project(dom):
    pts = _probe_points(dom)
    batch = dom.project_batch(pts)
    slack_rows = dom.slack_matrix(pts)
    for i, x in enumerate(pts):
        assert np.array_equal(batch[i], dom.project(x))
        # rows do not depend on the rest of the batch
        assert np.array_equal(dom.project_batch(pts[i : i + 1])[0], batch[i])
        assert np.array_equal(dom.slack_matrix(pts[i : i + 1])[0], slack_rows[i])


def test_domain_files_present():
    assert [f.name for f in DOMAIN_FILES] == ["capped-halfplane.domain", "quarter-plane.domain"]


def test_project_batch_interior_batch_returned_unchanged():
    dom = unit_disc()
    pts = np.array([[0.1, 0.2], [-0.5, 0.5], [0.0, 1.0]])
    out = dom.project_batch(pts)
    assert np.array_equal(out, pts)
    assert out is not pts


def _cone_oracle(x, dom, tol_bd):
    """Active generators one constraint at a time: faces first, then balls."""
    slacks = dom.slack_matrix(x[None])[0]
    m = dom.normals.shape[0]
    gens = [dom.normals[i] for i in range(m) if abs(slacks[i]) <= tol_bd]
    for j, c in enumerate(dom.centers):
        if abs(slacks[m + j]) <= tol_bd:
            gens.append((c - x) / np.linalg.norm(c - x))
    return np.array(gens).reshape(-1, dom.dimension)


@pytest.mark.parametrize("dom", [orthant(2), unit_disc(), TILTED], ids=["orthant2", "unit_disc", "tilted"])
def test_batched_boundary_helpers_match_pointwise_oracle(dom):
    pts = _probe_points(dom)
    dist = dom.distance_to_boundary_batch(pts)
    for d, x in zip(dist, pts):
        slacks = dom.slack_matrix(x[None])[0]
        inside = np.min(slacks) >= 0.0
        assert d == (np.min(slacks) if inside else np.linalg.norm(dom.project(x) - x))
    near = pts[np.abs(dist) <= 1e-8]
    assert len(near) > 0
    for cone, x in zip(active_normal_cones(near, dom), near):
        assert np.array_equal(cone, _cone_oracle(x, dom, 1e-8 * (1.0 + np.linalg.norm(x))))
    with pytest.raises(ValueError):
        active_normal_cones(np.vstack([near, dom.interior_point]), dom)


# --- axis-aligned boxes --------------------------------------------------------

WIDE_LINE = ConvexDomain(1, normals=[[1.0]], offsets=[-1e6], interior_point=[0.0])


def _box_domain(bounds, extra_faces=()):
    """Box from per-coordinate (lo, hi) pairs, None for a missing side.

    ``extra_faces`` adds redundant (axis, sign, offset) faces that must not
    tighten the box.
    """
    d = len(bounds)
    normals, offsets, witness = [], [], []
    for i, (lo, hi) in enumerate(bounds):
        e = np.eye(d)[i]
        if lo is not None:
            normals.append(e)
            offsets.append(lo)
        if hi is not None:
            normals.append(-e)
            offsets.append(-hi)
        if lo is not None and hi is not None:
            witness.append(0.5 * (lo + hi))
        else:
            witness.append(lo + 1.0 if lo is not None else (hi - 1.0 if hi is not None else 0.0))
    for axis, sign, offset in extra_faces:
        normals.append(sign * np.eye(d)[axis])
        offsets.append(offset)
    return ConvexDomain(d, normals=normals, offsets=offsets, interior_point=witness)


def _clip_oracle(x, bounds):
    """Nearest point of the box, one coordinate at a time in plain Python."""
    out = []
    for xi, (lo, hi) in zip(x.tolist(), bounds):
        if lo is not None and xi < lo:
            xi = lo
        elif hi is not None and xi > hi:
            xi = hi
        out.append(xi)
    return np.array(out)


coord = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def boxes_and_points(draw):
    d = draw(st.integers(1, 3))
    bounds, extra = [], []
    for i in range(d):
        lo = draw(st.one_of(st.none(), st.floats(-10.0, 10.0)))
        hi = draw(st.one_of(st.none(), st.floats(-10.0, 10.0)))
        if lo is not None and hi is not None:
            lo, hi = min(lo, hi), max(lo, hi) + draw(st.floats(0.01, 5.0))
        bounds.append((lo, hi))
        if lo is not None and draw(st.booleans()):
            extra.append((i, 1.0, lo - draw(st.floats(0.0, 3.0))))
        if hi is not None and draw(st.booleans()):
            extra.append((i, -1.0, -hi - draw(st.floats(0.0, 3.0))))
    if all(b == (None, None) for b in bounds):
        bounds[0] = (0.0, None)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12))
    return bounds, extra, np.array(points)


@settings(max_examples=80, deadline=None)
@given(boxes_and_points())
def test_box_projection_is_exact_clip(case):
    bounds, extra, pts = case
    dom = _box_domain(bounds, extra)
    assert dom._box is not None
    batch = dom.project_batch(pts)
    for row, x in zip(batch, pts):
        p = dom.project(x)
        assert p.tobytes() == _clip_oracle(x, bounds).tobytes()
        assert row.tobytes() == p.tobytes()


NAMED_BOXES = {
    "half_line": (half_line(), [(0.0, None)]),
    "wide_line": (WIDE_LINE, [(-1e6, None)]),
    "halfplane": (halfplane(), [(None, None), (0.0, None)]),
    "orthant3": (orthant(3), [(0.0, None)] * 3),
    "strip": (strip(), [(None, None), (0.0, 1.0)]),
    "strip_offset": (strip(0.25, 1.5), [(None, None), (0.25, 1.5)]),
    "quarter_plane": (
        load_domain_file(DOMAIN_FILES[1]),
        [(0.0, None), (0.0, None)],
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_BOXES))
def test_named_boxes_clip_exactly(name):
    dom, bounds = NAMED_BOXES[name]
    pts = np.vstack([_probe_points(dom), [np.full(dom.dimension, -0.0)]])
    batch = dom.project_batch(pts)
    for row, x in zip(batch, pts):
        assert dom.project(x).tobytes() == _clip_oracle(x, bounds).tobytes()
        assert row.tobytes() == _clip_oracle(x, bounds).tobytes()


def test_box_corner_rows_never_reach_the_enumeration(monkeypatch):
    def no_enumeration(self, x):
        raise AssertionError("box rows must not reach _project_on_supports")

    monkeypatch.setattr(ConvexDomain, "_project_on_supports", no_enumeration)
    dom = orthant(3)
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 6], dtype=np.uint64)))
    corners = -np.abs(gen.normal(size=(200, 3)))  # every row violates all three faces
    corners[:, 2] += 2.0 * (np.arange(200) % 2)  # half of them only two
    out = dom.project_batch(corners)
    assert np.array_equal(out, np.maximum(corners, 0.0))
    for x in corners[:5]:
        assert np.array_equal(dom.project(x), np.maximum(x, 0.0))


NOT_BOXES = {
    "tilted": TILTED,
    "tilted_polyhedron": ConvexDomain(
        2, normals=[[1.0, 0.0], [0.6, 0.8]], offsets=[0.0, 0.0], interior_point=[1.0, 1.0]
    ),
    # unit norm within tolerance, yet not exactly e_2
    "nearly_axis": ConvexDomain(
        2,
        normals=[[1.0, 0.0], [1e-7, 1.0]],
        offsets=[0.0, 0.0],
        interior_point=[1.0, 1.0],
    ),
    # one nonzero entry, but 1 + 4e-13 rather than 1: not the face x_2 >= 0
    "scaled_axis": ConvexDomain(
        2,
        normals=[[1.0, 0.0], [0.0, 1.0 + 4e-13]],
        offsets=[0.0, 0.0],
        interior_point=[1.0, 1.0],
    ),
    "orthant_and_ball": ConvexDomain(
        2,
        normals=np.eye(2),
        offsets=[0.0, 0.0],
        centers=[[0.0, 0.0]],
        radii=[3.0],
        interior_point=[1.0, 1.0],
    ),
    "unit_disc": unit_disc(),
    "capped_halfplane": CAPPED_HALFPLANE,
    "lens": LENS,
}


@pytest.mark.parametrize("name", sorted(NOT_BOXES))
def test_other_domains_keep_the_general_route(name, monkeypatch):
    dom = NOT_BOXES[name]
    assert dom._box is None
    calls = []
    real = ConvexDomain._project_on_supports

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(ConvexDomain, "_project_on_supports", counting)
    pts = _probe_points(dom)
    batch = dom.project_batch(pts)
    for row, x in zip(batch, pts):
        assert np.array_equal(row, dom.project(x))
    assert np.all(np.min(dom.slack_matrix(batch), axis=1) >= -1e-12 * (1.0 + np.linalg.norm(pts, axis=1)))
    # one constraint: always closed form; several: some probe leaves the closure past a corner
    assert bool(calls) == (dom.n_constraints > 1)


def _lone_balls(seed, count=60):
    """Random (domain, points) pairs: one ball in d = 1-4, centre up to 1e6 out, radius 1e-3-1e3.

    Each batch mixes interior rows, rows on the sphere up to rounding (where
    the slack's sum of squares and the landing's dot product can disagree
    on which side they are), rows a few ulps off it on either side, and rows
    up to 1e3 radii out. Every third ball is centred at 0.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    for i in range(count):
        d = int(gen.integers(1, 5))
        center = 10.0 ** gen.uniform(0.0, 6.0) * gen.uniform(-1.0, 1.0, size=d) * (i % 3 > 0)
        radius = 10.0 ** gen.uniform(-3.0, 3.0)
        u = gen.normal(size=(48, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        scale = np.concatenate([
            gen.uniform(0.0, 0.999, 8),
            np.ones(24),
            1.0 + 1e-15 * gen.integers(-4, 5, 8),
            10.0 ** gen.uniform(0.0, 3.0, 8),
        ])
        yield ball_domain(center, radius), center + radius * scale[:, None] * u


def _general_route(dom):
    """The same domain, projected by the general route rather than the lone-ball one."""
    general = copy.copy(dom)
    object.__setattr__(general, "_ball", None)
    return general


def test_lone_balls_take_the_radial_route():
    assert unit_disc()._ball is not None and ball_domain([1.0, 2.0, 3.0], 0.5)._ball is not None
    for name in ("orthant_and_ball", "capped_halfplane", "lens", "tilted"):
        assert NOT_BOXES[name]._ball is None


@pytest.mark.parametrize("seed", [1, 2])
def test_lone_ball_landings_match_the_general_route_bit_for_bit(seed):
    for dom, pts in _lone_balls(seed):
        out = dom.project_batch(pts)
        assert out.tobytes() == _general_route(dom).project_batch(pts).tobytes()
        # and the general route's closed form as written before the shared helper
        (c,), (r,) = dom.centers, dom.radii
        slack = r - np.sqrt(np.add.reduce((pts - c) ** 2, axis=1))
        dist = np.sqrt(np.vecdot(pts - c, pts - c))
        moved = (slack < 0.0) & (dist > r)
        landed = c + (r / dist[moved])[:, None] * (pts[moved] - c)
        assert out[moved].tobytes() == landed.tobytes()
        assert out[~moved].tobytes() == pts[~moved].tobytes()


@pytest.mark.parametrize("seed", [3, 4])
def test_lone_ball_landings_are_certified_and_match_the_enumeration(seed):
    eps = np.finfo(np.float64).eps
    for dom, pts in _lone_balls(seed):
        out = dom.project_batch(pts)
        assert np.all(np.min(dom.slack_matrix(out), axis=1) >= dom._least_slack(out))
        moved = np.any(out != pts, axis=1)
        oracle = dom._project_on_supports(pts[moved])
        bound = 16.0 * eps * (1.0 + dom._size)
        assert np.all(np.abs(out[moved] - oracle) <= bound)


def test_lone_ball_interior_rows_come_back_unchanged_in_a_fresh_array():
    dom = ball_domain([0.0, 0.0, 0.0], 2.0)
    pts = np.array([[-0.0, 0.0, -0.0], [0.5, -0.0, 1.0], [-0.0, -2.0, 0.0], [3.0, -0.0, 0.0]])
    out = dom.project_batch(pts)
    assert out is not pts
    assert out[:3].tobytes() == pts[:3].tobytes()  # bytes: -0.0 stays -0.0
    assert out[3].tolist() == [2.0, 0.0, 0.0]
    interior = pts[:3]
    again = dom.project_batch(interior)
    assert again is not interior and again.tobytes() == interior.tobytes()


def test_far_points_project_onto_the_sphere_without_warnings():
    # |x|^2 = 2.5e309 overflows; the landing must not collapse to the centre
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = unit_disc().project_batch([[3e154, 4e154], [0.3, 0.4], [-6e200, 8e200]])
        near = ball_domain([1.0, -1.0], 2.0).project_batch([[1.0 + 3e154, -1.0 - 4e154]])
    assert np.allclose(far, [[0.6, 0.8], [0.3, 0.4], [-0.6, 0.8]], rtol=0.0, atol=4e-16)
    assert np.allclose(near, [[2.2, -2.6]], rtol=0.0, atol=8e-16)
    # other rows keep their bits, and the general route's one-ball branch lands the same
    mixed = np.array([[3e154, 4e154], [3.0, 4.0]])
    out = unit_disc().project_batch(mixed)
    assert out[1].tobytes() == (np.array([3.0, 4.0]) * (1.0 / 5.0)).tobytes()
    capped = ConvexDomain(2, normals=[[0.0, 1.0]], offsets=[-10.0], centers=[[0.0, 0.0]], radii=[1.0],
                          interior_point=[0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the general route's slack pass takes the overflow too
        assert np.allclose(capped.project_batch(mixed), [[0.6, 0.8], [0.6, 0.8]], rtol=0.0, atol=4e-16)


@pytest.mark.parametrize("r", [1e3, 1e15, 3e15, 1e100, 1e160, 1e300])
def test_far_point_past_face_and_ball_lands_on_their_corner(r):
    # the ball-only candidate (3, -4) lies 4 below the face: the closure test
    # takes its tolerance at the candidate's scale, not the far query's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = CAPPED_HALFPLANE.project_batch([[0.6 * r, -0.8 * r]])
        slack = CAPPED_HALFPLANE.slack_matrix(p)
    assert p.tolist() == [[5.0, 0.0]]
    assert np.min(slack) >= 0.0


def test_far_points_get_a_finite_distance_without_warnings():
    # |x|^2 = 2.5e309 overflows; the distance is 5e154 less a radius that rounding drops
    eps = np.finfo(np.float64).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        disc = unit_disc().distance_to_boundary_batch([[3e154, 4e154], [3.0, 4.0]])
        corner = orthant(2).distance_to_boundary_batch([[-3e154, -4e154]])
        slack = CAPPED_HALFPLANE.slack_matrix([[3e154, 4e154]])
        capped = CAPPED_HALFPLANE.distance_to_boundary_batch([[3e154, 4e154], [0.0, 7.0]])
    assert abs(disc[0] - 5e154) <= 2 * eps * 5e154 and disc[1] == 4.0
    assert abs(corner[0] - 5e154) <= 2 * eps * 5e154
    assert slack[0, 0] == 4e154 and slack[0, 1] == -np.inf
    assert abs(capped[0] - 5e154) <= 2 * eps * 5e154 and capped[1] == 2.0
    # a finite row keeps the bits of sqrt(<v, v>)
    rows = np.array([[3e-200, 4e-200], [1.0, 2.0], [3e154, 4e154]])
    norms = domains._row_norms(rows)
    assert norms[:2].tobytes() == np.sqrt(np.vecdot(rows[:2], rows[:2])).tobytes()


def test_a_lone_ball_landing_the_certificate_rejects_goes_to_the_enumeration(monkeypatch):
    dom = ball_domain([1e6, -2e6], 3.0)
    tol = domains._FEASIBLE_TOL
    pts = dom.centers[0] + np.array([[0.0, 5.0], [4.0, 0.0], [0.0, -9.0], [1.0, 1.0]])
    push = np.array([2e-3, 1.5 * tol * (1.0 + dom._size), 0.0, 0.0])
    real = domains._radial_landing

    def off_the_sphere(x, diff, c, radius, outside=True):
        # push rows 0 and 1 out by push: 0 past both bounds, 1 past the cheap one only
        landing = real(x, diff, c, radius, outside)
        return landing + push[:, None] * (landing - c) / radius

    calls = []
    enumerate_ = ConvexDomain._project_on_supports

    def counting(self, x):
        calls.append(x.copy())
        return enumerate_(self, x)

    monkeypatch.setattr(domains, "_radial_landing", off_the_sphere)
    monkeypatch.setattr(ConvexDomain, "_project_on_supports", counting)
    out = dom.project_batch(pts)
    assert len(calls) == 1 and calls[0].tobytes() == pts[:1].tobytes()
    assert out[0].tobytes() == enumerate_(dom, pts[:1])[0].tobytes()
    assert out[1].tobytes() == off_the_sphere(pts, pts - dom.centers[0], dom.centers[0], dom.radii[0])[1].tobytes()
    # row 1 sits between the cheap bound and the exact one, so it was checked and kept
    slack = dom.slack_matrix(out[1:2])[0, 0]
    assert dom._least_slack(out[1:2])[0] <= slack < -tol * (1.0 + dom._size)
    assert out[2:].tobytes() == real(pts, pts - dom.centers[0], dom.centers[0], dom.radii[0])[2:].tobytes()


def test_the_reflect_nd_run_never_reaches_the_enumeration(tmp_path, monkeypatch):
    def no_enumeration(self, x):
        raise AssertionError("the disc and orthant rows must not reach _project_on_supports")

    monkeypatch.setattr(ConvexDomain, "_project_on_supports", no_enumeration)
    config = default_config("nd-skorokhod-props", n_paths=200, out_dir=str(tmp_path))
    assert run_experiment(config).exit_code == 0


def test_single_face_projection_divides_by_the_normal_norm():
    # |n| = 1 + 4e-13 is accepted as unit; x - slack n alone would land at (1, 4.0e-13)
    p = NOT_BOXES["scaled_axis"].project(np.array([1.0, -0.5]))
    assert np.max(np.abs(p - [1.0, 0.0])) <= 1e-15


@pytest.mark.parametrize("a", [4.9, 4.99, 4.999])
def test_thin_caps_project_to_their_corners(a):
    # {y >= a} and B(0, 5) meet at (+-sqrt(25 - a^2), a) at an angle that
    # closes as a -> 5; each point below lies in the normal cone of a corner
    dom = ConvexDomain(
        2, normals=[[0.0, 1.0]], offsets=[a], centers=[[0.0, 0.0]], radii=[5.0], interior_point=[0.0, 0.5 * (a + 5.0)]
    )
    pts = np.array([[10.0, a - 1.0], [7.0, 4.0], [100.0, -3.0], [3.0, -20.0], [0.5 * (1.0 + a), 5.5]])
    pts = np.vstack([pts, pts * [-1.0, 1.0]])
    corners = np.stack([np.copysign(np.sqrt(25.0 - a * a), pts[:, 0]), np.full(len(pts), a)], axis=1)
    gap = np.max(np.abs(dom.project_batch(pts) - corners), axis=1)
    assert np.all(gap <= 1e-15 * (1.0 + np.linalg.norm(pts, axis=1)))


def test_lens_projects_to_its_corners():
    # beyond a corner, inside the cone of the two outward ball normals (+-1/2, sqrt(3/4))
    up = np.array([[0.0, 5.0], [0.4, 3.0], [-0.4, 3.0], [0.0, 0.9], [1e6, 2e6]])
    pts = np.vstack([up, up * [1.0, -1.0]])
    corners = np.stack([np.zeros(len(pts)), np.copysign(np.sqrt(0.75), pts[:, 1])], axis=1)
    gap = np.max(np.abs(LENS.project_batch(pts) - corners), axis=1)
    assert np.all(gap <= 1e-15 * (1.0 + np.linalg.norm(pts, axis=1)))


# --- exact projection by support enumeration ---------------------------------------


def _nearest_point_oracle(x, dom):
    """Brute-force primal enumeration, one point at a time.

    Tries every subset of at most d constraints. Its faces and the radical
    hyperplanes of its balls (each sphere's equation minus the first's) must
    have independent normals; x and the first centre c are projected onto
    that affine set by the normal equations, giving x' and c', and with a
    ball the candidate is the point c' + rho (x' - c') / |x' - c'| of the
    sphere of radius rho = sqrt(r^2 - |c - c'|^2) about c'. Keeps the feasible
    candidate nearest to x (x itself when it is inside).
    """
    m, d = dom.offsets.size, dom.dimension
    tol = 1e-14 * (1.0 + np.linalg.norm(x))
    inside = np.min(dom.slack_matrix(x[None])[0]) >= 0.0
    best, best_dist = (x, 0.0) if inside else (None, np.inf)
    for k in range(1, d + 1):
        for support in itertools.combinations(range(dom.n_constraints), k):
            faces = [i for i in support if i < m]
            balls = [i - m for i in support if i >= m]
            n, b = list(dom.normals[faces]), list(dom.offsets[faces])
            c, r = dom.centers[balls], dom.radii[balls]
            for cj, rj in zip(c[1:], r[1:]):
                g = 2.0 * (cj - c[0])
                n.append(g / np.linalg.norm(g))
                b.append((cj @ cj - c[0] @ c[0] - rj**2 + r[0] ** 2) / np.linalg.norm(g))
            n, b = np.array(n).reshape(-1, d), np.array(b)
            if len(b) and np.linalg.svd(n, compute_uv=False)[-1] < 1e-9:
                continue

            def onto(y):
                return y - n.T @ np.linalg.solve(n @ n.T, n @ y - b) if len(b) else y

            p = onto(x)
            if balls:
                center = onto(c[0])
                rho2 = r[0] ** 2 - np.sum((c[0] - center) ** 2)
                if rho2 < 0.0:
                    continue
                toward = p - center
                length = np.linalg.norm(toward)
                p = center + (np.sqrt(rho2) / length) * toward if length else center
            dist = np.linalg.norm(p - x)
            if np.min(dom.slack_matrix(p[None])[0]) >= -tol and dist < best_dist:
                best, best_dist = p, dist
    return best


@pytest.mark.parametrize("name", sorted(n for n, d in NOT_BOXES.items() if not d.radii.size))
def test_polyhedra_never_reach_dykstra(name):
    # no iterative fallback is left: polyhedra project exactly, inside the closure
    assert not hasattr(ConvexDomain, "_dykstra")
    dom = NOT_BOXES[name]
    pts = _probe_points(dom)
    batch = dom.project_batch(pts)
    assert np.all(np.min(dom.slack_matrix(batch), axis=1) >= -1e-12 * (1.0 + np.linalg.norm(pts, axis=1)))
    for x, p in zip(pts, batch):
        assert np.linalg.norm(p - _nearest_point_oracle(x, dom)) <= 1e-14 * (1.0 + np.linalg.norm(x))


def _cone(a):
    """{x2 >= |x1| cot a}: a wedge of half-angle a around e_2, apex at 0."""
    c, s = np.cos(a), np.sin(a)
    return ConvexDomain(2, normals=[[-c, s], [c, s]], offsets=[0.0, 0.0], interior_point=[0.0, 1.0])


@pytest.mark.parametrize("a", [0.05, 0.01])
def test_thin_cone_projects_to_its_apex(a):
    # a cyclic scheme stopped 9.9e-10 away at a = 0.05 and ran out of cycles at 0.01
    assert np.linalg.norm(_cone(a).project(np.array([0.0, -1.0]))) <= 1e-15
    # violates only the face x2 >= x1 cot a, and its closed-form landing lies
    # 1e-12 past the apex, outside the other face by 1e-12 sin 2a: a landing
    # kept to a 1e-12 tolerance would stop there
    c, s = np.cos(a), np.sin(a)
    x = -1e-12 * np.array([s, c]) + np.array([c, -s])
    assert np.linalg.norm(_cone(a).project(x)) <= 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
def test_far_points_reach_a_corner_with_redundant_faces(scale):
    # two redundant faces through the apex of the quadrant. The lifted
    # residuals are ~1/|x| unless each row's offsets are rescaled; at
    # |x| ~ 1e9 a redundant face alone then wins within rounding and its
    # point lies 3e5 outside the quadrant
    dom = ConvexDomain(
        2,
        normals=[[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6]],
        offsets=[0.0] * 4,
        interior_point=[1.0, 1.0],
    )
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 8], dtype=np.uint64)))
    pts = -scale * np.abs(gen.normal(size=(500, 2)))
    apex_gap = np.linalg.norm(dom.project_batch(pts), axis=1)
    assert np.all(apex_gap <= 1e-14 * (1.0 + np.linalg.norm(pts, axis=1)))


@st.composite
def random_polytopes(draw):
    """A 2-d/3-d polyhedron with 2-6 faces, some exact duplicates, and points around it.

    Faces are placed at a positive distance from a witness point; distinct
    faces are kept well apart from dependence, as in polytope_corners.
    """
    d = draw(st.integers(2, 3))
    m = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)
    normals, offsets = [], []
    witness = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    for i in range(m):
        if i and draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, i - 1))
            normals.append(normals[j])
            offsets.append(offsets[j])
            continue
        n = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
        assume(np.linalg.norm(n) >= 0.1)
        normals.append(n / np.linalg.norm(n))
        offsets.append(normals[-1] @ witness - draw(st.floats(0.1, 2.0)))
    distinct = np.unique(np.array(normals), axis=0)
    for k in range(2, d + 1):
        for subset in itertools.combinations(distinct, k):
            assume(np.linalg.svd(np.array(subset), compute_uv=False)[-1] >= 1e-3)
    dom = ConvexDomain(d, normals=normals, offsets=offsets, interior_point=witness)
    offsets_from_witness = st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)
    pts = witness + np.array(draw(st.lists(offsets_from_witness, min_size=1, max_size=12)))
    return dom, pts


@settings(max_examples=200, deadline=None)
@given(random_polytopes())
def test_polytope_projection_matches_enumeration_oracle(case):
    dom, pts = case
    batch = dom.project_batch(pts)
    for x, p in zip(pts, batch):
        assert np.linalg.norm(p - _nearest_point_oracle(x, dom)) <= 1e-14 * (1.0 + np.linalg.norm(x))


@settings(max_examples=200, deadline=None)
@given(random_polytopes(), st.sampled_from([1e3, 1e6, 1e9]), st.data())
def test_far_points_on_slanted_polytopes_land_as_near_as_the_oracle(case, scale, data):
    # pushed out along one face's normal, x's landings carry rounding at |x|'s
    # scale. The point returned must pass the closure test at that scale and be
    # as near x as the oracle's to within that rounding: a vertex O(1) beside
    # the true foot is 1e-4 farther at |x| = 1e3. Positions are not compared,
    # as distances that agree to eps |x| cannot tell the candidates apart
    dom, pts = case
    face = data.draw(st.integers(0, dom.offsets.size - 1))
    far = pts - scale * dom.normals[face]
    batch = dom.project_batch(far)
    for x, p in zip(far, batch):
        tol = 1e-14 * (1.0 + np.linalg.norm(x))
        assert np.min(dom.slack_matrix(p[None])) >= -tol
        assert np.linalg.norm(p - x) <= np.linalg.norm(_nearest_point_oracle(x, dom) - x) + tol


@st.composite
def random_face_ball_domains(draw):
    """A 2-d/3-d domain of 0-3 faces and 1-2 balls around a witness, and points around it.

    Each ball holds the witness at least a tenth of its radius inside; faces
    are placed as in random_polytopes. The face normals and the radical
    direction of two balls (their centres at least 0.1 apart) are kept well
    apart from dependence, as in random_polytopes.
    """
    d = draw(st.integers(2, 3))
    witness = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    vector = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array)
    normals, offsets = [], []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(vector)
        assume(np.linalg.norm(n) >= 0.1)
        normals.append(n / np.linalg.norm(n))
        offsets.append(normals[-1] @ witness - draw(st.floats(0.1, 2.0)))
    centers, radii = [], []
    for _ in range(draw(st.integers(1, 2))):
        radius, shift = draw(st.floats(0.5, 3.0)), draw(vector)
        assume(np.linalg.norm(shift) >= 1e-3)
        centers.append(witness + draw(st.floats(0.0, 0.9)) * radius * shift / np.linalg.norm(shift))
        radii.append(radius)
    directions = list(normals)
    if len(centers) == 2:
        assume(np.linalg.norm(centers[1] - centers[0]) >= 0.1)
        directions.append((centers[1] - centers[0]) / np.linalg.norm(centers[1] - centers[0]))
    for k in range(2, min(len(directions), d) + 1):
        for subset in itertools.combinations(directions, k):
            assume(np.linalg.svd(np.array(subset), compute_uv=False)[-1] >= 1e-3)
    dom = ConvexDomain(
        d,
        normals=np.array(normals).reshape(-1, d),
        offsets=offsets,
        centers=centers,
        radii=radii,
        interior_point=witness,
    )
    offsets_from_witness = st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)
    pts = witness + np.array(draw(st.lists(offsets_from_witness, min_size=1, max_size=12)))
    return dom, pts


@settings(max_examples=200, deadline=None)
@given(random_face_ball_domains())
def test_face_and_ball_projection_matches_enumeration_oracle(case):
    dom, pts = case
    batch = dom.project_batch(pts)
    for x, p in zip(pts, batch):
        assert np.linalg.norm(p - _nearest_point_oracle(x, dom)) <= 1e-14 * (1.0 + np.linalg.norm(x))
    # KKT certificate: the push direction lies in the normal cone at p. A
    # shorter push's direction carries p's rounding divided by its length
    push = np.linalg.norm(batch - pts, axis=1)
    rows = push >= 1e-3
    if rows.any():
        directions = (batch[rows] - pts[rows]) / push[rows, None]
        residuals, _ = normal_cone_residuals(batch[rows], directions, dom)
        assert np.all(residuals <= 1e-12)


# --- normal-cone residuals -------------------------------------------------------


def _check_cone_residuals(dom, pts, dirs):
    """normal_cone_residuals against per-row nnls, with its KKT certificate."""
    from scipy.optimize import nnls

    residuals, weights = normal_cone_residuals(pts, dirs, dom)
    assert weights.shape == (len(pts), dom.n_constraints)
    _, active = _active_generators(pts, dom, None)
    for i, (x, u) in enumerate(zip(pts, dirs)):
        gens = active_normal_cones([x], dom)[0]
        _, oracle = nnls(gens.T, u)
        assert abs(residuals[i] - oracle) <= 1e-14
        # certificate: lam >= 0 on active generators only, and the residual
        # vector r = u - G^T lam lies in the polar cone
        assert np.all(weights[i] >= 0.0)
        assert np.all(weights[i][~active[i]] == 0.0)
        r = u - weights[i][active[i]] @ gens
        assert abs(np.linalg.norm(r) - residuals[i]) <= 1e-14
        assert np.all(gens @ r <= 1e-12)


def _directions(draw, gens, n):
    """Unit directions: uniform ones, and ones in or near the cone of gens."""
    d = gens.shape[1]
    out = []
    for _ in range(n):
        if draw(st.booleans()):
            v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        else:
            lam = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(gens), max_size=len(gens))))
            tilt = np.array(draw(st.lists(st.floats(-1e-6, 1e-6), min_size=d, max_size=d)))
            v = lam @ gens + tilt
        norm = np.linalg.norm(v)
        out.append(v / norm if norm > 1e-3 else gens[0])
    return np.array(out)


@st.composite
def polytope_corners(draw):
    """A pointed polyhedral cone's apex with 3-6 faces, some active and some duplicated.

    Every normal has a positive last coordinate, so the last basis vector is
    a strictly interior witness. Offsets are 0 (active at the origin), a few
    times below the boundary tolerance (still active) or 0.5 (inactive).
    """
    d = draw(st.integers(2, 3))
    m = draw(st.integers(3, 6))
    normals, offsets = [], []
    for i in range(m):
        if i and draw(st.integers(0, 4)) == 0:
            j = draw(st.integers(0, i - 1))  # an exact duplicate of an earlier face
            normals.append(normals[j])
        else:
            tilt = draw(st.lists(st.floats(-2.0, 2.0), min_size=d - 1, max_size=d - 1))
            n = np.array(tilt + [1.0])
            normals.append(n / np.linalg.norm(n))
        offsets.append(0.0 if i == 0 else -draw(st.sampled_from([0.0, 0.0, 3e-9, 0.5])))
    normals = np.array(normals)
    # distinct faces are far from dependent: the comparison with nnls at 1e-14
    # holds for well-conditioned subsets (exact duplicates are fine)
    distinct = np.unique(normals, axis=0)
    for k in range(2, d + 1):
        for subset in itertools.combinations(distinct, k):
            assume(np.linalg.svd(np.array(subset), compute_uv=False)[-1] >= 1e-9)
    dom = ConvexDomain(d, normals=normals, offsets=offsets, interior_point=np.eye(d)[-1])
    pts = np.zeros((1, d))
    dirs = _directions(draw, active_normal_cones(pts[:1], dom)[0], draw(st.integers(1, 6)))
    return dom, np.repeat(pts, len(dirs), axis=0), dirs


@settings(max_examples=150, deadline=None)
@given(polytope_corners())
def test_cone_residuals_match_nnls_on_random_polytopes(case):
    _check_cone_residuals(*case)


DUPLICATED_FACE = ConvexDomain(
    2,
    normals=[[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    offsets=[0.0, 0.0, 0.0],
    interior_point=[1.0, 1.0],
)

CONE_CASES = {
    # the face, the disc, and the two points where both are active
    "capped_halfplane": (
        load_domain_file(DOMAIN_FILES[0].with_name("capped-halfplane.domain")),
        [[5.0, 0.0], [-5.0, 0.0], [1.5, 0.0], [3.0, 4.0]],
    ),
    "duplicated_face": (DUPLICATED_FACE, [[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]]),
    "orthant3": (
        orthant(3),
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(CONE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cone_residuals_match_nnls_on_named_domains(name, data):
    dom, corners = CONE_CASES[name]
    pts, dirs = [], []
    for x in np.array(corners):
        u = _directions(data.draw, active_normal_cones([x], dom)[0], 3)
        pts += [x] * len(u)
        dirs += list(u)
    _check_cone_residuals(dom, np.array(pts), np.array(dirs))


def test_cone_residuals_known_values():
    dom = orthant(2)
    pts = np.zeros((3, 2))
    dirs = np.array([[0.6, 0.8], [-1.0, 0.0], [-0.6, 0.8]])
    residuals, weights = normal_cone_residuals(pts, dirs, dom)
    # inside the cone; opposite it (only lam = 0 is feasible); beside one face
    assert residuals.tolist() == [0.0, 1.0, 0.6]
    assert weights.tolist() == [[0.6, 0.8], [0.0, 0.0], [0.0, 0.8]]
    with pytest.raises(ValueError, match="tol_bd"):
        normal_cone_residuals(np.ones((1, 2)), dirs[:1], dom)
