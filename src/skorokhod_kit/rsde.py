"""Reflected stochastic differential equations on convex domains.

The scheme is projected Euler: advance with the drift and diffusion over one
step, then project back into the closure; the projection displacement is the
pushing increment, kept explicit so the association conditions (pushing only
at the boundary, along inward normals) can be tested instead of assumed.
Coefficients come in one form: evaluators of a whole batch of states at
once, read at left endpoints only. One stepper advances a batch of paths.
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
from .randomness import RngSeed, brownian_increments, normal_matrix, path_values
from .reflectnd import SkorokhodNdSolution, solve_skorokhod_continuous


@dataclass(frozen=True, eq=False, kw_only=True)
class SdeCoefficients:
    """Drift b(t, X) and diffusion sigma(t, X) of a reflected SDE.

    Both evaluate a batch of states X, shape (m, d), at one time t: ``b``
    returns the (m, d) drifts and ``sigma`` the (m, d, r) diffusion
    matrices, row i for state X[i] alone. They must be pure functions of
    (t, X). ``lipschitz_K`` declares one constant for the Lipschitz and
    linear-growth bounds of both coefficients; coefficient_contract_check
    spot-checks it on random samples.

    A diffusion that does not depend on (t, x) may be given instead as the
    finite matrix ``constant_sigma``, shape (d, r); ``sigma`` is then
    derived from it and must not be passed. The stepper then forms the
    noise term without evaluating sigma.
    """

    b: Callable[[float, np.ndarray], np.ndarray]
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


# Paths per block of the batched stepper: bounds the increments held at once.
_PATH_BLOCK = 512


def _shape_error(name: str, out: np.ndarray, X: np.ndarray, shape) -> ValueError:
    """The error for evaluator ``name`` returning ``out`` at states X instead of ``shape``."""
    return ValueError(
        f"{name}(t, X) returned shape {out.shape} for states of shape {X.shape}; expected {shape}"
    )


def _euler_batch(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0: np.ndarray,
    dB: np.ndarray,
    times: np.ndarray,
    dt: np.ndarray,
    first_path: int = 0,
    free_out: np.ndarray | None = None,
    state_out: np.ndarray | None = None,
) -> np.ndarray:
    """Projected Euler for a batch: from x0 through increments (m, steps, r).

    The state has shape (m, d). Step k evaluates the coefficients at
    (times[k], state) for all rows at once, raising ValueError if an
    evaluator returns another shape, and makes one project_batch call.
    With ``constant_sigma`` the noise term skips sigma: it is the
    increments themselves for the identity and one contraction with the
    matrix otherwise. A non-finite row raises EvaluationFault at the first
    such row in path order, numbered from ``first_path``. Returns the
    terminal states; buffers ``free_out`` and ``state_out`` shaped
    (m, steps, d), when given, receive every step's free and projected state.
    """
    m, d = dB.shape[0], x0.size
    b_shape, sigma_shape = (m, d), (m, d, coeffs.r)
    S = coeffs.constant_sigma
    if S is not None and S.shape[0] != d:
        raise ValueError(f"constant_sigma has {S.shape[0]} rows for a state of dimension {d}")
    identity = S is not None and np.array_equal(S, np.eye(d))
    state = np.tile(x0, (m, 1))
    # Python floats: the same values as the array entries, read faster per step
    for k, (t, h) in enumerate(zip(times.tolist(), dt.tolist())):
        dB_k = dB[:, k, :]
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
        free = state + drift * h + noise
        if not np.all(np.isfinite(free)):
            bad = int(np.argmin(np.all(np.isfinite(free), axis=1)))
            raise EvaluationFault(
                "coefficient evaluation was non-finite",
                step_index=k,
                path_index=first_path + bad,
            )
        state = domain.project_batch(free)
        if free_out is not None:
            free_out[:, k] = free
            state_out[:, k] = state
    return state


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
        coeffs, domain, x0, dB, grid.times, grid.deltas,
        free_out=free[None], state_out=X[None, 1:],
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
    if not all(domain.contains(x0) for x0 in M.values[:, 0]):
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
    scales, projected into the closure so unbounded domains get probed far
    out. Each sample pair (x, y) is evaluated as one batch of two states.
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
    for i in range(n_samples):
        t = float(10.0 * gen.random())
        spread = scales[i % len(scales)]
        x = domain.project(base + spread * gen.standard_normal(d))
        y = domain.project(base + spread * gen.standard_normal(d))
        pair = np.array([x, y])
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
                coeffs, domain, x0, dB, np.arange(n) * dt, np.full(n, dt), first_path=start
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
    rms 0.
    """
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
            b=lambda t, X: np.zeros(X.shape),
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
            b=lambda t, X: np.zeros(X.shape),
            lipschitz_K=K if K is not None else 1.0,
            r=d,
            name=name,
        )
    raise ValueError(f"unknown coefficient preset {name!r}")


def simulate_reflected_terminal_batch(
    coeffs: SdeCoefficients,
    domain: ConvexDomain,
    x0,
    grid: TimeGrid,
    rng: RngSeed,
    n_paths: int,
) -> np.ndarray:
    """Terminal states of many projected-Euler paths, one stream per path.

    Paths run in blocks of 512 on the batched projected-Euler stepper shared
    with strong_error_estimate. Path i draws the increments of
    euler_reflected on stream ``rng.stream + i`` (brownian_increments),
    which runs them as a batch of one on the same stepper, so the two
    routes can be cross-checked path for path.
    """
    d = domain.dimension
    x0 = np.asarray(x0, dtype=np.float64).reshape(d)
    if not domain.contains(x0):
        raise ValueError("x0 must lie in the closed domain")
    out = np.empty((n_paths, d))
    for start in range(0, n_paths, _PATH_BLOCK):
        m = min(_PATH_BLOCK, n_paths - start)
        dB = brownian_increments(rng, m, grid, coeffs.r, start)
        out[start : start + m] = _euler_batch(
            coeffs, domain, x0, dB, grid.times, grid.deltas, first_path=start
        )
    return out
