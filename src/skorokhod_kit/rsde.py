"""Reflected stochastic differential equations on convex domains.

The scheme is projected Euler: advance with the drift and diffusion over one
step, then project back into the closure; the projection displacement is the
pushing increment, kept explicit so the association conditions (pushing only
at the boundary, along inward normals) can be tested instead of assumed.
Coefficients come in one form: evaluators of a whole batch of states at
once, read at left endpoints only. One stepper advances a batch of paths
through time-major increments (steps, paths, r), drawn as counter-addressed
Philox tiles on the pool (randomness.normal_blocks). Stepping stays on one
thread. Many-path runs share one tile loop: each tile of a few hundred
steps, holding no more increments than 512 whole paths, is drawn, then
every level of the run steps all paths through it.
euler_reflected draws all its steps as one tile and returns the paths whole,
as the batched SkorokhodNdSolution carrier: X, phi and the driver.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .domains import ConvexDomain
from .errors import EvaluationFault
from .paths import SampledPath, TimeGrid
from .randomness import RngSeed, normal_blocks, path_values
from .reflectnd import SkorokhodNdSolution, _pushing_record, solve_skorokhod_continuous


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


# The increments a tile of the tile loop (_euler_tiles) may hold: as many as
# this many whole paths.
_PATH_BLOCK = 512


def _shape_error(name: str, out: np.ndarray, X: np.ndarray, shape) -> ValueError:
    """The error for evaluator ``name`` returning ``out`` at states X instead of ``shape``."""
    return ValueError(
        f"{name}(t, X) returned shape {out.shape} for states of shape {X.shape}; expected {shape}"
    )


def _start_point(domain: ConvexDomain, x0) -> np.ndarray:
    """x0 as a (d,) array; ValueError unless it lies in the closed domain."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(domain.dimension)
    if np.min(domain.slack_matrix(x0[None])) < 0.0:
        raise ValueError("x0 must lie in the closed domain")
    return x0


def _check_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")


def _euler_steps(
    coeffs, domain, state, dB, times, dt, free_out, state_out, total=None, first_step=0
):
    """The steps of _euler_batch; returns the end states.

    With ``total``, the free states are added into it unchecked, under the
    caller's errstate. Without, each step's free states are checked, and the
    first non-finite row raises EvaluationFault at that step, numbered from
    ``first_step``, and that row's path.
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
            total += free
        elif not np.all(np.isfinite(free)):
            bad = int(np.argmin(np.all(np.isfinite(free), axis=1)))
            raise EvaluationFault(
                "coefficient evaluation was non-finite",
                step_index=first_step + k,
                path_index=bad,
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
    ``first_step``, and its lowest path (batch row i is path i). An
    exception raised after a non-finite free state is taken as its effect
    and rerun the same way. A rerun that finds no fault (the sum overflowed)
    returns the same states. Buffers ``free_out`` and ``state_out`` shaped
    (steps, m, d), when given, receive every step's free and projected state.
    """
    args = (coeffs, domain, state, dB, times, dt, free_out, state_out)
    total = np.zeros(state.shape)
    try:
        with np.errstate(over="ignore"):  # finite states may overflow the sum
            end = _euler_steps(*args, total=total)
    except Exception:
        if np.all(np.isfinite(total)):
            raise
    else:
        if np.all(np.isfinite(total)):
            return end
    return _euler_steps(*args, first_step=first_step)


def euler_reflected(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    grid: TimeGrid,
    rng: RngSeed,
    n_paths: int = 1,
) -> SkorokhodNdSolution:
    """Projected Euler paths: Y <- project(Y + b dt + sigma dB) each step.

    Path i runs on the increments ``brownian_increments(rng, n_paths, grid,
    r)[i]``, from stream ``rng.stream + i`` as in
    simulate_reflected_terminal_batch, drawn as one time-major tile
    (_draw_tile), and all paths step together on the same stepper. The
    result keeps every path whole: one row per path, with phi the
    projection displacements summed in step order and ``driver`` the
    Brownian path (dimension r) built from the increments, so memory grows
    with n_paths times the steps. ``n_paths`` must be at least 1.
    """
    _check_paths(n_paths)
    x0 = _start_point(domain, x0)
    n_steps, d, r = len(grid) - 1, x0.size, coeffs.r
    # time-major buffers, as the stepper reads and writes them
    dB = np.empty((n_steps, n_paths, r))
    _draw_tile(rng, np.sqrt(grid.deltas), 0, dB)
    X = np.empty((n_steps + 1, n_paths, d))
    X[0] = x0
    free = np.empty((n_steps, n_paths, d))
    _euler_batch(
        coeffs, domain, X[0], dB, grid.times, grid.deltas, free_out=free, state_out=X[1:]
    )
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    # a leading zero row makes each cumsum add in step order from 0
    dphi = np.zeros_like(X)
    np.subtract(X[:, 1:], free.transpose(1, 0, 2), out=dphi[:, 1:])
    tv, dirs = _pushing_record(dphi)
    return SkorokhodNdSolution(
        X=SampledPath.continuous(grid, X),
        phi=SampledPath.continuous(grid, np.cumsum(dphi, axis=1)),
        total_variation=tv,
        directions=dirs,
        driver=SampledPath.continuous(grid, path_values(0.0, dB.transpose(1, 0, 2))),
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
        return asdict(self)


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
    evaluated as one batch of two states at its own time; a drift of None
    reads as zeros. The norms and ratios of all pairs are then taken at
    once. Matrix norms are spectral. Report-only: passes iff every observed
    ratio is at most K (with a 1e-9 slack). A non-finite drift or diffusion
    value raises EvaluationFault naming the first such sample (path_index),
    its time and its two states, before any norm is taken.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    d = domain.dimension
    b_shape, sigma_shape = (2, d), (2, d, coeffs.r)
    gen = rng.generator()
    base = domain.interior_point
    scales = (0.5, 2.0, 10.0, 50.0)
    times = np.empty(n_samples)
    raw = np.empty((n_samples, 2, d))
    for i in range(n_samples):
        times[i] = 10.0 * gen.random()
        spread = scales[i % len(scales)]
        raw[i, 0] = base + spread * gen.standard_normal(d)
        raw[i, 1] = base + spread * gen.standard_normal(d)
    pairs = domain.project_batch(raw.reshape(2 * n_samples, d)).reshape(n_samples, 2, d)
    b = np.zeros((n_samples,) + b_shape)
    sig = np.empty((n_samples,) + sigma_shape)
    for i, (t, pair) in enumerate(zip(times.tolist(), pairs)):
        if coeffs.b is not None:
            b_i = np.asarray(coeffs.b(t, pair), dtype=np.float64)
            if b_i.shape != b_shape:
                raise _shape_error("b", b_i, pair, b_shape)
            b[i] = b_i
        sig_i = np.asarray(coeffs.sigma(t, pair), dtype=np.float64)
        if sig_i.shape != sigma_shape:
            raise _shape_error("sigma", sig_i, pair, sigma_shape)
        sig[i] = sig_i
    bad_b = ~np.isfinite(b).all(axis=(1, 2))
    bad = bad_b | ~np.isfinite(sig).all(axis=(1, 2, 3))
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationFault(
            f"{'b' if bad_b[i] else 'sigma'}(t, X) is non-finite at sample {i}: "
            f"t = {times[i]}, X = {pairs[i].tolist()}",
            path_index=i,
        )

    def norm(v):  # np.linalg.norm of each vector along the last axis
        return np.sqrt(np.vecdot(v, v))

    def worst(ratios):
        return float(np.max(ratios, initial=0.0))

    x, y = pairs[:, 0], pairs[:, 1]
    gap = norm(x - y)
    apart = gap > 0.0
    sig_gap = np.linalg.norm(sig[:, 0] - sig[:, 1], ord=2, axis=(1, 2))
    max_lip_sigma = worst(sig_gap[apart] / gap[apart])
    max_lip_b = worst(norm(b[:, 0] - b[:, 1])[apart] / gap[apart])
    growth = np.sqrt(1.0 + np.vecdot(pairs, pairs))  # (n_samples, 2)
    max_growth_sigma = worst(np.linalg.norm(sig, ord=2, axis=(2, 3)) / growth)
    max_growth_b = worst(norm(b) / growth)
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
    increments from stream ``rng.stream + i``. The levels run on the tile
    loop shared with simulate_reflected_terminal_batch (_euler_tiles): each
    tile of fine steps is drawn once, then every level steps all paths
    through it, coarsest first, so a non-finite coefficient is reported at
    its first tile, then level, then step, then path. Returns (dt, rms)
    rows, coarsest first; the finest level closes the table with rms 0.
    Every entry of ``dt_levels`` must lie in (0, T], and ``n_paths`` must
    be at least 1.
    """
    _check_paths(n_paths)
    x0 = _start_point(domain, x0)
    steps = []
    for dt in sorted(dt_levels, reverse=True):
        if not (0.0 < dt <= T and T / dt < np.inf):  # NaN fails too
            raise ValueError(f"dt_levels needs step sizes in (0, T] with T = {T}, got {dt}")
        n = round(T / dt)
        if abs(n * dt - T) > 1e-9 * T:
            raise ValueError(f"dt={dt} does not divide the horizon")
        if n in steps:
            raise ValueError(f"dt={dt} is repeated in dt_levels")
        steps.append(n)
    if not steps:
        raise ValueError("dt_levels needs at least one step size")
    n_fine = steps[-1]
    if any(n_fine % n or (n_fine // n) & (n_fine // n - 1) for n in steps):
        raise ValueError("dt levels must be dyadically nested")
    levels = [(n_fine // n, np.arange(n) * (T / n), np.full(n, T / n)) for n in steps]
    scale = np.full(n_fine, np.sqrt(T / n_fine))
    terminals = _euler_tiles(coeffs, domain, x0, rng, scale, levels, n_paths)
    finest = terminals[-1]
    return [
        (T / n, float(np.sqrt(np.mean(np.sum((end - finest) ** 2, axis=1)))))
        for n, end in zip(steps, terminals)
    ]


# Named coefficient presets addressable from the CLI and config files.

def _preset_arg(name: str, text: str) -> float:
    """One argument of a coefficient preset: a finite float, else a ValueError naming the preset."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"coefficient preset {name!r}: {text.strip()!r} is not a number") from None
    if not np.isfinite(value):
        raise ValueError(f"coefficient preset {name!r}: {text.strip()!r} is not finite")
    return value


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
        args = [_preset_arg(name, p) for p in inner.split(",")] if inner.strip() else []
    if args and base in ("unit-diffusion", "sin-diffusion"):
        raise ValueError(f"coefficient preset {base} takes no arguments, got {name!r}")
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


def _tile_width(n_steps: int, n_paths: int, multiple: int = 4) -> int:
    """Steps per tile: no more increments than _PATH_BLOCK whole paths.

    A multiple of ``multiple``, itself a multiple of 4 so that every tile
    starts on a Philox counter block, at least ``multiple`` and at most
    n_steps.
    """
    width = _PATH_BLOCK * n_steps // n_paths // multiple * multiple
    return min(max(width, multiple), n_steps)


def _draw_tile(rng: RngSeed, scale: np.ndarray, k0: int, tile: np.ndarray) -> None:
    """Fill ``tile`` (w, m, r) with steps k0 .. k0 + w of paths 0 .. m - 1.

    Path i's steps equal ``brownian_increments(rng, m, grid, r)[i, k0:k0 + w]``
    bit for bit, ``scale`` being sqrt(grid.deltas). The paths are drawn in
    blocks on the pool (randomness.normal_blocks), each block written
    transposed into the tile.
    """
    w, m, r = tile.shape
    step_scale = np.repeat(scale[k0 : k0 + w], r) if r > 1 else scale[k0 : k0 + w]

    def finish(a, rows):
        tile[:, a : a + len(rows)] = rows.reshape(len(rows), w, r).transpose(1, 0, 2)

    normal_blocks(rng, m, k0 * r, step_scale, finish)


def _euler_tiles(coeffs, domain, x0, rng, scale, levels, n_paths) -> list[np.ndarray]:
    """Terminal states (n_paths, d) of each level ``(q, times, dt)``, all on one draw.

    Path i's fine increments come from stream rng.stream + i, step k scaled
    by scale[k], drawn a tile of _tile_width steps at a time (_draw_tile);
    every level steps all paths through a tile before the next is drawn.
    Level q steps on sums of q consecutive fine increments, taken over a
    path-major copy of the tile so they round as over the whole path, at
    ``times`` and ``dt`` (one entry per coarse step). Tiles are a whole
    number of every level's steps wide. A non-finite coefficient is reported
    at its first tile, then level (in the order given), then step, then path.
    """
    n_fine, r = len(scale), coeffs.r
    q_max = max(q for q, _, _ in levels)
    width = _tile_width(n_fine, n_paths, max(4, q_max))
    tile = np.empty((width, n_paths, r))
    states = [np.tile(x0, (n_paths, 1)) for _ in levels]
    for k0 in range(0, n_fine, width):
        fine = tile[: min(width, n_fine - k0)]
        _draw_tile(rng, scale, k0, fine)
        by_path = np.ascontiguousarray(fine.transpose(1, 0, 2)) if q_max > 1 else None
        for i, (q, times, dt) in enumerate(levels):
            j0, j1 = k0 // q, (k0 + len(fine)) // q
            if q == 1:
                dB = fine
            else:
                dB = by_path.reshape(n_paths, j1 - j0, q, r).sum(axis=2).transpose(1, 0, 2)
            states[i] = _euler_batch(
                coeffs, domain, states[i], dB, times[j0:j1], dt[j0:j1], first_step=j0
            )
    return states


def simulate_reflected_terminal_batch(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    grid: TimeGrid,
    rng: RngSeed,
    n_paths: int,
) -> np.ndarray:
    """Terminal states of many projected-Euler paths, one stream per path.

    All paths step together on the tile loop shared with
    strong_error_estimate (_euler_tiles), here with one level of unit
    steps: each tile of steps is drawn on the worker pool, then stepped, so
    a non-finite coefficient is reported at its first step over all paths,
    then its lowest path. Path i draws the increments of euler_reflected's
    path i on stream ``rng.stream + i`` (brownian_increments), and that
    route runs them on the same stepper, so the two can be cross-checked
    path for path. ``n_paths`` must be at least 1.
    """
    _check_paths(n_paths)
    x0 = _start_point(domain, x0)
    levels = [(1, grid.times, grid.deltas)]
    return _euler_tiles(coeffs, domain, x0, rng, np.sqrt(grid.deltas), levels, n_paths)[0]
