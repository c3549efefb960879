"""Reflected stochastic differential equations on convex domains.

The scheme is projected Euler: advance with the drift and diffusion over one
step, then project back into the closure; the projection displacement is the
pushing increment, kept explicit so the association conditions (pushing only
at the boundary, along inward normals) can be tested instead of assumed.
Coefficients come in one form: evaluators of a whole batch of states at
once, read at left endpoints only. One stepper advances a batch of paths
through time-major increments (steps, paths, r). Many-path runs step all
paths together over tiles of a few hundred steps, each drawn by
counter-addressed Philox (randomness.normal_tile) on the worker pool before
it is stepped, so a tile holds no more increments than 512 whole paths.
euler_reflected steps one path and returns the batched SkorokhodNdSolution
carrier with that one row: X, phi and the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import ConvexDomain
from .errors import EvaluationFault
from .paths import SampledPath, TimeGrid
from .pool import map_chunks, worker_count
from .randomness import RngSeed, brownian_increments, normal_matrix, normal_tile, path_values
from .reflectnd import SkorokhodNdSolution, solve_skorokhod_continuous


@dataclass(frozen=True, eq=False, kw_only=True)
class SdeCoefficients:
    """Drift b(t, X) and diffusion sigma(t, X) of a reflected SDE.

    Both evaluate a batch of states X, shape (m, d), at one time t: ``b``
    returns the (m, d) drifts and ``sigma`` the (m, d, r) diffusion
    matrices, row i for state X[i] alone. They must be pure functions of
    (t, X): on a non-finite result the stepper reruns the steps since its
    last check. ``b`` may be None for zero drift, which the stepper then
    neither evaluates nor adds. ``lipschitz_K`` declares one constant for
    the Lipschitz and linear-growth bounds of both coefficients;
    coefficient_contract_check spot-checks it on random samples.

    A diffusion that does not depend on (t, x) may be given instead as the
    finite matrix ``constant_sigma``, shape (d, r); ``sigma`` is then
    derived from it and must not be passed. The stepper then forms the
    noise term without evaluating sigma.
    """

    b: Callable[[float, np.ndarray], np.ndarray] | None
    sigma: Callable[[float, np.ndarray], np.ndarray] | None = None
    constant_sigma: np.ndarray | None = None
    lipschitz_K: float
    r: int
    name: str = "custom"

    def __post_init__(self):
        if not self.lipschitz_K > 0.0:
            raise ValueError("lipschitz_K must be positive")
        if self.r < 1:
            raise ValueError("driving dimension r must be >= 1")
        if self.constant_sigma is None:
            if self.sigma is None:
                raise ValueError("give sigma or constant_sigma")
            return
        if self.sigma is not None:
            raise ValueError("constant_sigma replaces sigma; give one or the other")
        S = np.array(self.constant_sigma, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != self.r or not np.all(np.isfinite(S)):
            raise ValueError(f"constant_sigma must be a finite (d, {self.r}) matrix")
        S.setflags(write=False)
        object.__setattr__(self, "constant_sigma", S)
        # repeat, not broadcast_to: a C method, cheap for the contract check's pairs
        object.__setattr__(self, "sigma", lambda t, X: S[None].repeat(len(X), axis=0))


# Paths per block of strong_error_estimate, and the increments a tile of
# simulate_reflected_terminal_batch may hold: as many as this many whole paths.
_PATH_BLOCK = 512
# Paths each draw thread fills at a time: one such scratch of a tile fits in L2.
_DRAW_ROWS = 64


def _shape_error(name: str, out: np.ndarray, X: np.ndarray, shape) -> ValueError:
    """The error for evaluator ``name`` returning ``out`` at states X instead of ``shape``."""
    return ValueError(
        f"{name}(t, X) returned shape {out.shape} for states of shape {X.shape}; expected {shape}"
    )


def _check_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")


def _euler_steps(
    coeffs, domain, state, dB, times, dt, free_out, state_out, total=None, first=(0, 0)
):
    """The steps of _euler_batch; returns the end states.

    With ``total``, the free states are added into it unchecked. Without,
    each step's free states are checked, and the first non-finite row raises
    EvaluationFault, numbered from ``first`` = (first step, first path).
    """
    m, d = state.shape
    b_shape, sigma_shape = (m, d), (m, d, coeffs.r)
    S = coeffs.constant_sigma
    if S is not None and S.shape[0] != d:
        raise ValueError(f"constant_sigma has {S.shape[0]} rows for a state of dimension {d}")
    identity = S is not None and np.array_equal(S, np.eye(d))
    # Python floats: the same values as the array entries, read faster per step
    for k, (dB_k, t, h) in enumerate(zip(dB, times.tolist(), dt.tolist())):
        if coeffs.b is not None:
            drift = np.asarray(coeffs.b(t, state), dtype=np.float64)
            if drift.shape != b_shape:
                raise _shape_error("b", drift, state, b_shape)
        if S is None:
            sig = np.asarray(coeffs.sigma(t, state), dtype=np.float64)
            if sig.shape != sigma_shape:
                raise _shape_error("sigma", sig, state, sigma_shape)
            noise = np.einsum("mdr,mr->md", sig, dB_k)
        else:
            noise = dB_k if identity else dB_k @ S.T
        free = state + noise if coeffs.b is None else state + drift * h + noise
        if total is not None:
            with np.errstate(over="ignore"):  # finite states may overflow the sum
                total += free
        elif not np.all(np.isfinite(free)):
            bad = int(np.argmin(np.all(np.isfinite(free), axis=1)))
            raise EvaluationFault(
                "coefficient evaluation was non-finite",
                step_index=first[0] + k,
                path_index=first[1] + bad,
            )
        state = domain.project_batch(free)
        if free_out is not None:
            free_out[k] = free
            state_out[k] = state
    return state


def _euler_batch(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    state: np.ndarray,
    dB: np.ndarray,
    times: np.ndarray,
    dt: np.ndarray,
    first_step: int = 0,
    first_path: int = 0,
    free_out: np.ndarray | None = None,
    state_out: np.ndarray | None = None,
) -> np.ndarray:
    """Projected Euler for a batch: from states (m, d) through increments (steps, m, r).

    The increments are time-major: dB[k] holds step k of every path. Step k
    evaluates the coefficients at (times[k], state) for all rows at once,
    raising ValueError if an evaluator returns another shape, and makes one
    project_batch call. A drift of None is zero. With ``constant_sigma`` the
    noise term skips sigma: it is the increments themselves for the identity
    and one contraction with the matrix otherwise.

    Finiteness is checked once per call, on the sum of the free states. If
    it is non-finite, the steps are rerun from the start states with a check
    after each, which the coefficients' purity makes exact: a non-finite row
    raises EvaluationFault at the first such step, numbered from
    ``first_step``, and its lowest path, numbered from ``first_path``. An
    exception raised after a non-finite free state is taken as its effect
    and rerun the same way. A rerun that finds no fault (the sum overflowed)
    returns the same states. Buffers ``free_out`` and ``state_out`` shaped
    (steps, m, d), when given, receive every step's free and projected state.
    """
    args = (coeffs, domain, state, dB, times, dt, free_out, state_out)
    total = np.zeros(state.shape)
    try:
        end = _euler_steps(*args, total=total)
    except Exception:
        if np.all(np.isfinite(total)):
            raise
    else:
        if np.all(np.isfinite(total)):
            return end
    return _euler_steps(*args, first=(first_step, first_path))


def euler_reflected(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    grid: TimeGrid,
    rng: RngSeed,
) -> SkorokhodNdSolution:
    """Projected Euler path: Y <- project(Y + b dt + sigma dB) each step.

    A batch of one on the stepper behind simulate_reflected_terminal_batch,
    on the increments ``brownian_increments(rng, 1, grid, r)``. phi sums
    the projection displacements in step order and ``driver`` is the
    Brownian path (dimension r) built from the increments.
    """
    d = domain.dimension
    x0 = np.asarray(x0, dtype=np.float64).reshape(d)
    if not domain.contains(x0):
        raise ValueError("x0 must lie in the closed domain")
    n_steps, r = len(grid) - 1, coeffs.r
    dB = brownian_increments(rng, 1, grid, r)
    X = np.empty((n_steps + 1, d))
    X[0] = x0
    free = np.empty((n_steps, d))
    _euler_batch(
        coeffs, domain, x0[None], dB.transpose(1, 0, 2), grid.times, grid.deltas,
        free_out=free[:, None], state_out=X[1:, None],
    )
    # a leading zero row makes each cumsum add in step order from 0
    dphi = np.zeros((n_steps + 1, d))
    dphi[1:] = X[1:] - free
    norms = np.sqrt(np.vecdot(dphi, dphi))
    pushed = norms > 0.0
    dirs = np.full((n_steps + 1, d), np.nan)
    dirs[pushed] = dphi[pushed] / norms[pushed, None]
    return SkorokhodNdSolution(
        X=SampledPath.continuous(grid, X),
        phi=SampledPath.continuous(grid, np.cumsum(dphi, axis=0)),
        total_variation=np.cumsum(norms),
        directions=dirs,
        driver=SampledPath.continuous(grid, path_values(0.0, dB[0])),
    )


def semimartingale_skorokhod(
    M: SampledPath,
    A: SampledPath,
    domain: ConvexDomain,
    refine_tol: float | None = None,
) -> SkorokhodNdSolution:
    """Reflect the sum of a noise path M and a bounded-variation path A.

    Forms w = M + A on their common grid and delegates to the continuous
    Skorokhod solver.
    """
    if not M.grid.same_as(A.grid):
        raise ValueError("M and A must share a grid")
    if np.any(A.values[:, 0] != 0.0):
        raise ValueError("A must start at 0")
    if not np.all(domain.slack_matrix(M.values[:, 0]) >= 0.0):
        raise ValueError("M must start inside the closed domain")
    w = SampledPath.continuous(M.grid, M.values + A.values)
    return solve_skorokhod_continuous(w, domain, refine_tol=refine_tol)


@dataclass(frozen=True)
class CoefficientContractReport:
    """Observed worst-case ratios for the Lipschitz and growth bounds."""

    lipschitz_K: float
    max_sigma_lipschitz: float
    max_b_lipschitz: float
    max_sigma_growth: float
    max_b_growth: float
    n_samples: int
    passed: bool

    def as_dict(self) -> dict:
        return {
            "lipschitz_K": self.lipschitz_K,
            "max_sigma_lipschitz": self.max_sigma_lipschitz,
            "max_b_lipschitz": self.max_b_lipschitz,
            "max_sigma_growth": self.max_sigma_growth,
            "max_b_growth": self.max_b_growth,
            "n_samples": self.n_samples,
            "passed": self.passed,
        }


def coefficient_contract_check(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    n_samples: int = 256,
    rng: RngSeed = RngSeed(0, 0),
) -> CoefficientContractReport:
    """Spot-check the declared Lipschitz and growth bounds on random samples.

    Sample points are Gaussian clouds around the interior witness at several
    scales, drawn first and then projected into the closure in one batch, so
    unbounded domains get probed far out. Each sample pair (x, y) is
    evaluated as one batch of two states; a drift of None reads as zeros.
    Matrix norms are spectral. Report-only: passes iff every observed ratio
    is at most K (with a 1e-9 slack).
    """
    d = domain.dimension
    b_shape, sigma_shape = (2, d), (2, d, coeffs.r)
    gen = rng.generator()
    base = domain.interior_point
    max_lip_sigma = 0.0
    max_lip_b = 0.0
    max_growth_sigma = 0.0
    max_growth_b = 0.0
    scales = (0.5, 2.0, 10.0, 50.0)
    times = np.empty(n_samples)
    raw = np.empty((n_samples, 2, d))
    for i in range(n_samples):
        times[i] = 10.0 * gen.random()
        spread = scales[i % len(scales)]
        raw[i, 0] = base + spread * gen.standard_normal(d)
        raw[i, 1] = base + spread * gen.standard_normal(d)
    pairs = domain.project_batch(raw.reshape(2 * n_samples, d)).reshape(n_samples, 2, d)
    for t, pair in zip(times.tolist(), pairs):
        x, y = pair
        if coeffs.b is None:
            b = np.zeros(b_shape)
        else:
            b = np.asarray(coeffs.b(t, pair), dtype=np.float64)
        if b.shape != b_shape:
            raise _shape_error("b", b, pair, b_shape)
        sig = np.asarray(coeffs.sigma(t, pair), dtype=np.float64)
        if sig.shape != sigma_shape:
            raise _shape_error("sigma", sig, pair, sigma_shape)
        bx, by, sx, sy = b[0], b[1], sig[0], sig[1]
        gap = float(np.linalg.norm(x - y))
        if gap > 0.0:
            max_lip_sigma = max(max_lip_sigma, float(np.linalg.norm(sx - sy, 2)) / gap)
            max_lip_b = max(max_lip_b, float(np.linalg.norm(bx - by)) / gap)
        gx = float(np.sqrt(1.0 + x @ x))
        gy = float(np.sqrt(1.0 + y @ y))
        max_growth_sigma = max(
            max_growth_sigma,
            float(np.linalg.norm(sx, 2)) / gx,
            float(np.linalg.norm(sy, 2)) / gy,
        )
        max_growth_b = max(
            max_growth_b, float(np.linalg.norm(bx)) / gx, float(np.linalg.norm(by)) / gy
        )
    bound = coeffs.lipschitz_K * (1.0 + 1e-9)
    passed = max(max_lip_sigma, max_lip_b, max_growth_sigma, max_growth_b) <= bound
    return CoefficientContractReport(
        lipschitz_K=coeffs.lipschitz_K,
        max_sigma_lipschitz=max_lip_sigma,
        max_b_lipschitz=max_lip_b,
        max_sigma_growth=max_growth_sigma,
        max_b_growth=max_growth_b,
        n_samples=n_samples,
        passed=passed,
    )


def _level_terminals(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0: np.ndarray,
    T: float,
    steps: list[int],
    n_paths: int,
    rng: RngSeed,
) -> dict[int, np.ndarray]:
    """Terminal states (n_paths, d) per step count, all levels on one driver per path.

    Path i draws its finest increments from stream rng.stream + i; coarse
    increments are sums of consecutive fine ones. Paths run in blocks of
    _PATH_BLOCK.
    """
    d, r = x0.size, coeffs.r
    n_fine = steps[-1]
    terminals = {n: np.empty((n_paths, d)) for n in steps}
    for start in range(0, n_paths, _PATH_BLOCK):
        m = min(_PATH_BLOCK, n_paths - start)
        fine = normal_matrix(rng, m, n_fine * r, first_stream=start).reshape(m, n_fine, r)
        fine *= np.sqrt(T / n_fine)
        for n in steps:
            dB = fine.reshape(m, n, n_fine // n, r).sum(axis=2)
            dt = T / n
            terminals[n][start : start + m] = _euler_batch(
                coeffs, domain, np.tile(x0, (m, 1)), dB.transpose(1, 0, 2),
                np.arange(n) * dt, np.full(n, dt), first_path=start,
            )
    return terminals


def strong_error_estimate(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    T: float,
    dt_levels,
    n_paths: int,
    rng: RngSeed,
) -> list[tuple[float, float]]:
    """RMS terminal gap of coarse step sizes against the finest one.

    All levels of one path share a driver: coarse increments are sums of
    consecutive fine increments, so levels must be dyadically nested (each
    step count divides the finest by a power of 2). Path i draws its fine
    increments from stream ``rng.stream + i``. Every level runs all paths at
    once on the batched projected-Euler stepper shared with
    simulate_reflected_terminal_batch, in blocks of 512 paths. Returns
    (dt, rms) rows, coarsest first; the finest level closes the table with
    rms 0. ``n_paths`` must be at least 1.
    """
    _check_paths(n_paths)
    d = domain.dimension
    x0 = np.asarray(x0, dtype=np.float64).reshape(d)
    if not domain.contains(x0):
        raise ValueError("x0 must lie in the closed domain")
    steps = []
    for dt in sorted(dt_levels, reverse=True):
        n = round(T / dt)
        if n < 1 or abs(n * dt - T) > 1e-9 * T:
            raise ValueError(f"dt={dt} does not divide the horizon")
        steps.append(n)
    n_fine = steps[-1]
    for n in steps:
        ratio = n_fine // n
        if n_fine != n * ratio or ratio & (ratio - 1):
            raise ValueError("dt levels must be dyadically nested")
    terminals = _level_terminals(coeffs, domain, x0, T, steps, n_paths, rng)
    rows = []
    finest = terminals[n_fine]
    for n in steps:
        gap = float(np.sqrt(np.mean(np.sum((terminals[n] - finest) ** 2, axis=1))))
        rows.append((T / n, gap))
    return rows


# Named coefficient presets addressable from the CLI and config files.

def preset_coefficients(name: str, d: int = 1, K: float | None = None) -> SdeCoefficients:
    """Build a named preset: unit-diffusion, constant-drift(v), linear-drift(a),
    sin-diffusion. ``K`` overrides the documented constant (used to exercise
    the contract checker)."""
    base = name.split("(")[0].strip()
    args: list[float] = []
    if "(" in name:
        if not name.endswith(")"):
            raise ValueError(f"malformed coefficient preset {name!r}")
        inner = name[name.index("(") + 1 : -1]
        args = [float(p) for p in inner.split(",")] if inner.strip() else []
    if base == "unit-diffusion":
        return SdeCoefficients(
            constant_sigma=np.eye(d),
            b=None,
            lipschitz_K=K if K is not None else 1.0,
            r=d,
            name=name,
        )
    if base == "constant-drift":
        if not args:
            raise ValueError("constant-drift needs a value, e.g. constant-drift(0.5)")
        v = np.full(d, args[0]) if len(args) == 1 else np.asarray(args, dtype=np.float64)
        if v.size != d:
            raise ValueError("constant-drift dimension mismatch")
        return SdeCoefficients(
            constant_sigma=np.eye(d),
            b=lambda t, X: v[None].repeat(len(X), axis=0),
            lipschitz_K=K if K is not None else max(1.0, float(np.linalg.norm(v))),
            r=d,
            name=name,
        )
    if base == "linear-drift":
        if len(args) != 1:
            raise ValueError("linear-drift needs one value, e.g. linear-drift(2)")
        a = args[0]
        return SdeCoefficients(
            constant_sigma=np.eye(d),
            b=lambda t, X: a * X,
            lipschitz_K=K if K is not None else max(1.0, abs(a)),
            r=d,
            name=name,
        )
    if base == "sin-diffusion":
        def sigma(t, X):
            out = np.zeros((X.shape[0], d, d))
            idx = np.arange(d)
            out[:, idx, idx] = np.sin(X)
            return out

        return SdeCoefficients(
            sigma=sigma,
            b=None,
            lipschitz_K=K if K is not None else 1.0,
            r=d,
            name=name,
        )
    raise ValueError(f"unknown coefficient preset {name!r}")


def _tile_width(n_steps: int, n_paths: int) -> int:
    """Steps per tile: no more increments than _PATH_BLOCK whole paths.

    A multiple of 4, so that every tile starts on a Philox counter block,
    at least 4 and at most n_steps.
    """
    width = _PATH_BLOCK * n_steps // n_paths // 4 * 4
    return min(max(width, 4), n_steps)


def _draw_tile(rng: RngSeed, scale: np.ndarray, k0: int, tile: np.ndarray) -> None:
    """Fill ``tile`` (w, m, r) with steps k0 .. k0 + w of paths 0 .. m - 1.

    Path i's steps equal ``brownian_increments(rng, m, grid, r)[i, k0:k0 + w]``
    bit for bit, ``scale`` being sqrt(grid.deltas). The paths are split
    into one range of whole _DRAW_ROWS blocks per pool thread; each thread
    draws a block at a time into a scratch (normal_tile, its inverse CDF,
    the scale), all without the GIL, and writes it transposed into the tile.
    """
    w, m, r = tile.shape
    step_scale = np.repeat(scale[k0 : k0 + w], r) if r > 1 else scale[k0 : k0 + w]

    def fill(start, stop):
        scratch = np.empty((_DRAW_ROWS, w * r))
        for a in range(start, stop, _DRAW_ROWS):
            n = min(_DRAW_ROWS, stop - a)
            rows = normal_tile(rng, n, k0 * r, w * r, first_stream=a, out=scratch[:n])
            rows *= step_scale
            tile[:, a : a + n] = rows.reshape(n, w, r).transpose(1, 0, 2)

    blocks = -(-m // _DRAW_ROWS)
    map_chunks(fill, m, _DRAW_ROWS * -(-blocks // worker_count()))


def simulate_reflected_terminal_batch(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    grid: TimeGrid,
    rng: RngSeed,
    n_paths: int,
) -> np.ndarray:
    """Terminal states of many projected-Euler paths, one stream per path.

    All paths step together on the batched projected-Euler stepper shared
    with strong_error_estimate, over tiles of steps (_tile_width): each tile
    is drawn on the worker pool, then stepped, so a non-finite coefficient
    is reported at its first step over all paths, then its lowest path.
    Path i draws the increments of euler_reflected on stream
    ``rng.stream + i`` (brownian_increments), which runs them as a batch of
    one on the same stepper, so the two routes can be cross-checked path
    for path. ``n_paths`` must be at least 1.
    """
    _check_paths(n_paths)
    d = domain.dimension
    x0 = np.asarray(x0, dtype=np.float64).reshape(d)
    if not domain.contains(x0):
        raise ValueError("x0 must lie in the closed domain")
    n_steps = len(grid) - 1
    width = _tile_width(n_steps, n_paths)
    tile = np.empty((width, n_paths, coeffs.r))
    scale = np.sqrt(grid.deltas)
    state = np.tile(x0, (n_paths, 1))
    for k0 in range(0, n_steps, width):
        dB = tile[: min(width, n_steps - k0)]
        _draw_tile(rng, scale, k0, dB)
        k1 = k0 + len(dB)
        state = _euler_batch(
            coeffs, domain, state, dB, grid.times[k0:k1], grid.deltas[k0:k1], first_step=k0
        )
    return state
