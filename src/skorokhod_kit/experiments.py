"""Named Monte Carlo experiments behind the CLI.

Every experiment is a pure function of its ExperimentConfig: path i of
component c always draws from stream c * 2^32 + i of the configured seed,
and pooled kernels write each path's results to its own entry, or combine
per-chunk results in chunk order, so reruns are byte-identical no matter
how many workers run (the pool module's SKOROKHOD_KIT_THREADS caps the
worker count). Pooled kernels fan out through pool.fill_then_finish, the
one primitive, in blocks of randomness._block_rows rows.

A runner simulates and returns its summary and the statistics its checks
read. Every check is declared once, in ``GATES``: its conditions, bounds,
detail template and kind. An ``exact`` check holds on every correct output
up to a fixed bound; a ``tolerance`` check's bound is a config key tol_<key>;
a ``statistical`` check fails a correct run at a small share of seeds.
"""

from __future__ import annotations

import operator
import string
import threading
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import pool
from .config import ExperimentConfig
from .domains import ConvexDomain, half_line, orthant, unit_disc, halfplane, strip
from .errors import RefinementLimitError, UsageError
from .itocalc import (
    Integrand,
    brownian_local_time_mean,
    ito_formula_residual,
    ito_isometry_samples,
    local_time_occupation_batch,
    local_time_tanaka_batch,
)
from .paths import SampledPath, TimeGrid
from .pathio import RunArtifacts, write_run_artifacts
from .pool import worker_count  # noqa: F401  the benchmark reads the policy from here
from .randomness import (
    RngSeed,
    _block_rows,
    brownian_path_blocks,
    brownian_paths,
    brownian_sample,
    normal_matrix,
)
from .reflect1d import (
    skorokhod_1d_diagnostics_batch,
    skorokhod_map_1d_batch,
    skorokhod_terminal_1d_batch,
)
from .reflectnd import (
    check_condition_a,
    check_condition_b,
    modulus_gap,
    nd_solution_diagnostics,
    solve_skorokhod_continuous_many,
    solve_skorokhod_step,
    tanaka_inequality_gap,
)
from .rsde import (
    SdeCoefficients,
    coefficient_contract_check,
    euler_reflected,
    preset_coefficients,
    semimartingale_skorokhod,
    simulate_reflected_terminal_batch,
    strong_error_estimate,
)
from .stats import McEstimate, half_normal_cdf, ks_test_against_cdf, ks_test_two_sample

STREAM_BLOCK = 1 << 32
CHUNK = 256
ROOT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return asdict(self)


class Tol(NamedTuple):
    """A bound: ``factor`` times the tolerance ``key`` (config key tol_<key>, else ``default``)."""

    key: str
    default: float
    factor: float = 1.0


class Stat(NamedTuple):
    """A bound: ``factor`` times the named statistic, one the library or the run computes."""

    name: str
    factor: float = 1.0


class Gate(NamedTuple):
    """A check's name, (stat, op, bound) conditions, detail template and kind."""

    name: str
    conds: tuple
    detail: str
    kind: str


_OPS = {
    "<=": operator.le, ">=": operator.ge, "==": operator.eq, ">": operator.gt,
    "in": lambda value, span: span[0] <= value <= span[1],
    "near": lambda value, bound: abs(value - bound[0]) <= bound[1],
    "contains": operator.contains,  # the stat contains the bound
    "within": lambda pair, k: pair[0].within(pair[1], k),  # (McEstimate, target), k std errors
}
_FIELDS = string.Formatter()  # reads a stat by its format field name


def _bound(bound, fields: dict, config: ExperimentConfig):
    if isinstance(bound, Tol):
        return bound.factor * config.tolerance(bound.key, bound.default)
    if isinstance(bound, Stat):
        return bound.factor * _FIELDS.get_field(bound.name, (), fields)[0]
    return bound


def _checks(experiment: str, stats: dict, config: ExperimentConfig) -> list[Check]:
    """The experiment's checks, one per gate of its GATES entry, in table order.

    A stat is named as a format field is (``"ks_half_normal[passed]"``, ``"occ[0].mean"``).
    A gate passes when its conditions hold, tried in order, so one can guard
    the next. Names and details are formatted from the stats; ``{bound}`` is
    the last bound. Gates named with ``{case}`` come first and run once per
    name in ``stats["cases"]``, on that case's stats.
    """
    gates = GATES[experiment]
    group = [gate for gate in gates if "{case}" in gate.name]
    cases = stats.get("cases", ())
    scoped = [(gate, {**stats[case], "case": case}) for case in cases for gate in group]
    checks = []
    for gate, fields in scoped + [(gate, stats) for gate in gates if gate not in group]:
        passed = all(_OPS[op](_FIELDS.get_field(stat, (), fields)[0], _bound(bound, fields, config))
                     for stat, op, bound in gate.conds)
        fields = {**fields, "bound": _bound(gate.conds[-1][2], fields, config)}
        checks.append(Check(_FIELDS.vformat(gate.name, (), fields), passed,
                            _FIELDS.vformat(gate.detail, (), fields)))
    return checks


def map_chunks(fn, n_items: int, chunk: int = CHUNK) -> list:
    """fn(start, stop) over the ranges of ``chunk`` items; results in range order.

    The ranges are pool.fill_then_finish blocks with an empty fill, the
    pool's one fan-out: they run on this thread and worker_count() - 1
    helpers, each once, in any order, and the error raised is that of the
    lowest failing range, after every helper has joined. ito-formula's row
    chunks are the one library caller; the benchmark's tracer hooks the
    experiments' fan-out by this name.
    """
    starts = range(0, n_items, chunk)
    results = [None] * len(starts)

    def run(i, _):
        results[i] = fn(starts[i], min(starts[i] + chunk, n_items))

    pool.fill_then_finish(lambda i, buf: None, run, len(starts), (0,))
    return results


# ---------------------------------------------------------------------------
# skorokhod-1d-props


def _skorokhod_1d_columns(config: ExperimentConfig) -> dict:
    """The map's diagnostics per path on Brownian paths from 0, path i from stream i.

    The decomposition defect is relative to max(1, max |v|) of its path.
    """
    grid = TimeGrid.uniform(config.horizon, config.n_steps)
    keys = ("decomposition_max_abs", "min_h_increment", "h_start", "complementarity_mass",
            "min_g")
    col = {key: np.empty(config.n_paths) for key in keys}
    buffers = threading.local()

    def finish(a, dB, v):
        # g, h and the diagnostics' scratch, all in this thread's buffer
        g, h, scratch = pool.thread_rows(buffers, (3,) + v.shape)
        skorokhod_map_1d_batch(v, out=(g, h))
        diag = skorokhod_1d_diagnostics_batch(g, h, v, scratch=scratch)
        diag["decomposition_max_abs"] /= np.maximum(1.0, np.max(np.abs(v, out=scratch), axis=1))
        for key in keys:
            col[key][a : a + len(v)] = diag[key]

    brownian_path_blocks(RngSeed(config.seed), config.n_paths, grid, finish)
    return col


def _run_skorokhod_1d_props(config: ExperimentConfig):
    col = _skorokhod_1d_columns(config)
    agg = {
        "max_decomposition": float(np.max(col["decomposition_max_abs"])),
        "min_h_increment": float(np.min(col["min_h_increment"])),
        "max_h_start": float(np.max(np.abs(col["h_start"]))),
        "total_complementarity_mass": float(np.sum(np.abs(col["complementarity_mass"]))),
        "min_g": float(np.min(col["min_g"])),
    }
    return {"aggregates": agg, "n_paths": config.n_paths, "n_steps": config.n_steps}, agg, {}


# ---------------------------------------------------------------------------
# rbm-density


def _rbm_terminals(config: ExperimentConfig, block: int) -> np.ndarray:
    """Terminal values of reflected Brownian motion from 0, path i from stream block * 2^32 + i."""
    grid = TimeGrid.uniform(config.horizon, config.n_steps)
    terminals = np.empty(config.n_paths)

    def finish(a, dB, v):
        terminals[a : a + len(v)] = skorokhod_terminal_1d_batch(v)

    brownian_path_blocks(RngSeed(config.seed, block * STREAM_BLOCK), config.n_paths, grid, finish)
    return terminals


def _run_rbm_density(config: ExperimentConfig):
    X = _rbm_terminals(config, block=0)
    absB = np.abs(normal_matrix(RngSeed(config.seed, STREAM_BLOCK), 1, config.n_paths)[0])
    absB *= np.sqrt(config.horizon)

    ks_half = ks_test_against_cdf(np.sort(X), half_normal_cdf, alpha=config.alpha)
    ks_two = ks_test_two_sample(X, absB, alpha=config.alpha)
    mean_x = McEstimate.from_samples(X)
    # phi(T) for a start at 0 is the reflected running minimum
    grid = TimeGrid.uniform(config.horizon, 1000)
    driver = brownian_sample(grid, 1, 0.0, RngSeed(config.seed, 2 * STREAM_BLOCK))
    g, _ = skorokhod_map_1d_batch(driver.values[..., 0])

    summary = {
        "ks_half_normal": ks_half.as_dict(),
        "ks_two_sample": ks_two.as_dict(),
        "terminal_mean": mean_x.as_dict(),
        "n_paths": config.n_paths,
        "n_steps": config.n_steps,
    }
    stats = {"terminal": (mean_x, ROOT_2_OVER_PI)}
    return summary, stats, {"rbm_pair": (driver, SampledPath.continuous(grid, g[0]))}


# ---------------------------------------------------------------------------
# ito-isometry


def _run_ito_isometry(config: ExperimentConfig):
    rng = RngSeed(config.seed)
    f_state = Integrand(lambda t, x: x)
    samples = ito_isometry_samples(f_state, config.horizon, config.n_paths, rng, config.n_steps)
    lhs, rhs = map(McEstimate.from_samples, samples)
    joint_se = float(np.hypot(lhs.std_error, rhs.std_error))
    const = Integrand.constant(1.0)
    samples = ito_isometry_samples(const, config.horizon, 2000, rng, 200, STREAM_BLOCK)
    lhs1, rhs1 = map(McEstimate.from_samples, samples)
    summary = {
        "lhs": lhs.as_dict(),
        "rhs": rhs.as_dict(),
        "joint_se": joint_se,
        "constant_case": {"lhs": lhs1.as_dict(), "rhs": rhs1.as_dict()},
    }
    stats = dict(lhs_vs_half=(lhs, 0.5), rhs_vs_half=(rhs, 0.5),
                 lhs_rhs_gap=abs(lhs.mean - rhs.mean),
                 constant_rhs_error=abs(rhs1.mean - config.horizon),
                 constant_lhs_vs_T=(lhs1, config.horizon))
    return summary, stats, {}


# ---------------------------------------------------------------------------
# ito-formula


def _cubic_residuals(config: ExperimentConfig, n_steps: int, n_paths: int) -> np.ndarray:
    """Residuals of F = x^3 against the model bracket, path i from stream i."""
    grid = TimeGrid.uniform(config.horizon, n_steps)
    qv = SampledPath.continuous(grid, grid.times)
    rng = RngSeed(config.seed)

    def chunk_residuals(start, stop):
        B = brownian_paths(rng, stop - start, grid, first_stream=start)
        return ito_formula_residual(
            lambda t, x: x**3,
            lambda t, x: 0.0 * x,
            lambda t, x: 3.0 * x**2,
            lambda t, x: 6.0 * x,
            SampledPath.continuous(grid, B),
            qv,
        )

    # normal_blocks' rows per block; residuals are per-row, so no bit depends on it
    return np.concatenate(map_chunks(chunk_residuals, n_paths, chunk=_block_rows(len(grid))))


def _run_ito_formula(config: ExperimentConfig):
    n_paths = config.n_paths
    res_coarse = _cubic_residuals(config, config.n_steps, n_paths)
    res_fine = _cubic_residuals(config, 4 * config.n_steps, n_paths)
    rms_coarse = float(np.sqrt(np.mean(res_coarse**2)))
    rms_fine = float(np.sqrt(np.mean(res_fine**2)))
    ratio = rms_coarse / rms_fine
    summary = {
        "rms_coarse": rms_coarse,
        "rms_fine": rms_fine,
        "ratio": ratio,
        "n_paths": n_paths,
        "n_steps_coarse": config.n_steps,
    }
    return summary, {"n_steps_fine": 4 * config.n_steps}, {}


# ---------------------------------------------------------------------------
# local-time


def _local_time_pass(
    seed: int, first_stream: int, n_paths: int, grid: TimeGrid, level: float, eps_list
):
    """Occupation estimates per eps, and Tanaka estimates, of paths from 0."""
    occ = np.empty((len(eps_list), n_paths))
    tan = np.empty(n_paths)

    def finish(a, dB, x):
        occ[:, a : a + len(x)] = local_time_occupation_batch(x, grid, level, eps_list)
        tan[a : a + len(x)] = local_time_tanaka_batch(x, level)

    brownian_path_blocks(RngSeed(seed, first_stream), n_paths, grid, finish)
    return list(occ), tan


def _run_local_time(config: ExperimentConfig):
    level = config.real_option("level", 0.0)
    eps = config.real_option("eps", 0.01)
    fine_steps = config.count_option("fine_steps", 100_000)
    fine_paths = config.count_option("fine_paths", 400)
    fine_eps = config.real_option("fine_eps", 0.005)
    for key, bandwidth in (("eps", eps), ("fine_eps", fine_eps)):
        if not bandwidth > 0.0:
            raise ValueError(f"config key {key} must be positive, got {bandwidth!r}")
    target = brownian_local_time_mean(level, config.horizon)

    # estimator means at the coarse grid
    grid = TimeGrid.uniform(config.horizon, config.n_steps)
    (occ,), tan = _local_time_pass(config.seed, 0, config.n_paths, grid, level, [eps])
    occ_est = McEstimate.from_samples(occ)
    tan_est = McEstimate.from_samples(tan)
    coarse_rms = float(np.sqrt(np.mean((occ - tan) ** 2)))

    # cross-estimator agreement on a fine grid, where the left-point Tanaka sum
    # is accurate enough for a per-path comparison; the same sweep checks that
    # shrinking the bandwidth brings the two estimators together monotonically
    eps_ladder = [0.08, 0.04, 0.02, 0.01, fine_eps]
    fine_grid = TimeGrid.uniform(config.horizon, fine_steps)
    fine_occs, fine_tan = _local_time_pass(
        config.seed, STREAM_BLOCK, fine_paths, fine_grid, level, eps_ladder
    )
    ladder_rms = [float(np.sqrt(np.mean((o - fine_tan) ** 2))) for o in fine_occs]
    cross_rms = ladder_rms[-1]

    summary = {
        "occupation": occ_est.as_dict(),
        "tanaka": tan_est.as_dict(),
        "coarse_cross_rms": coarse_rms,
        "fine_cross_rms": cross_rms,
        "eps_ladder": eps_ladder,
        "eps_ladder_rms": ladder_rms,
        "eps": eps,
        "level": level,
    }
    stats = dict(occ=(occ_est, target), tan=(tan_est, target), fine_eps=fine_eps,
                 fine_steps=fine_steps, fine_paths=fine_paths, ladder_eps=eps_ladder[:4],
                 ladder_rms=["%.4f" % r for r in ladder_rms[:4]],
                 ladder_monotone=all(ladder_rms[i] > ladder_rms[i + 1] for i in range(3)))
    return summary, stats, {}


# ---------------------------------------------------------------------------
# nd-skorokhod-props


def _nd_domain_batch(config: ExperimentConfig, domain: ConvexDomain, start_point, block: int):
    n_paths = config.n_paths
    n_steps = config.n_steps
    grid = TimeGrid.uniform(config.horizon, n_steps)
    mod_indices = [(0, n_steps), (n_steps // 3, (2 * n_steps) // 3)]
    rng = RngSeed(config.seed, block * STREAM_BLOCK)
    w = SampledPath.step(grid, brownian_paths(rng, n_paths, grid, domain.dimension, start_point))
    sol = solve_skorokhod_step(w, domain)
    column = nd_solution_diagnostics(sol, w, domain)
    modulus = [modulus_gap(sol, grid.times[a], grid.times[b]) for a, b in mod_indices]
    # each path against the one before it
    tanaka = tanaka_inequality_gap(sol[:-1], sol[1:]) if n_paths > 1 else [np.inf]
    return {
        "decomposition": float(np.max(column["decomposition_max_abs"])),
        "containment_slack": float(np.min(column["containment_worst_slack"])),
        # a running sum in path order, not np.sum's pairwise one
        "interior_mass": float(np.cumsum(column["interior_pushing_mass"])[-1]),
        "angular_gap": float(np.max(column["max_angular_gap"])),
        "tv_defect": float(np.max(column["tv_increment_defect"])),
        "tanaka_gap": float(np.min(tanaka)),
        "modulus_gap": float(np.min(modulus)),
    }


def _nd_refinement_checks(config: ExperimentConfig, domain: ConvexDomain, start_point, block: int):
    refine_tol = config.tolerance("refine", 0.02)
    n0 = config.count_option("refine_n0", 128)
    n_drivers = config.count_option("refine_drivers", 12)
    grid = TimeGrid.uniform(config.horizon, n0)
    rng = RngSeed(config.seed, block * STREAM_BLOCK)
    w = SampledPath.continuous(
        grid, brownian_paths(rng, n_drivers, grid, domain.dimension, start_point)
    )
    schedules = []
    failures = []
    for max_levels, factor in ((6, 2), (4, 3)):
        try:
            schedules.append(
                solve_skorokhod_continuous_many(
                    w, domain, refine_tol=refine_tol, max_levels=max_levels, refine_factor=factor
                )
            )
        except RefinementLimitError as err:
            failures.append(err)
    if failures:
        # a per-driver run (dyadic, then triadic, driver by driver) stops at
        # the first failure in that order
        raise min(failures, key=lambda err: err.driver)
    worst = 0.0
    gap_tail = 0.0
    for dyadic, triadic in zip(*schedules):
        stride_d = (len(dyadic.X.grid) - 1) // n0
        stride_t = (len(triadic.X.grid) - 1) // n0
        diff = dyadic.X.values[0, ::stride_d] - triadic.X.values[0, ::stride_t]
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=1))))
        gap_tail = max(gap_tail, dyadic.refine_gaps[-1], triadic.refine_gaps[-1])
    return worst, gap_tail


def _nd_1d_crosscheck(config: ExperimentConfig, block: int):
    n_drivers = 20
    n_steps = 512
    grid = TimeGrid.uniform(config.horizon, n_steps)
    domain = half_line()
    refine_tol = None  # solver default: 1e-4 * path scale
    worst = 0.0
    drivers = brownian_paths(RngSeed(config.seed, block * STREAM_BLOCK), n_drivers, grid, 1, 0.5)
    w = SampledPath.continuous(grid, drivers)
    for values, sol in zip(drivers[..., 0], solve_skorokhod_continuous_many(w, domain, refine_tol)):
        fine_w = np.interp(sol.X.grid.times, grid.times, values)
        # the free path as x0 + f with f(0) = 0, the form the 1-d map is defined on
        g, _ = skorokhod_map_1d_batch((float(fine_w[0]) + (fine_w - fine_w[0]))[None])
        worst = max(worst, float(np.max(np.abs(sol.X.scalar_values - g[0]))))
    return worst, float(np.max(1e-4 * w.scale()))


def _run_nd_skorokhod_props(config: ExperimentConfig):
    configured = config.resolve_domain()
    if configured is not None:
        cases = [("configured_domain", configured, configured.interior_point, 0)]
    else:
        cases = [
            ("unit_disc", unit_disc(), [0.0, 0.0], 0),
            ("orthant", orthant(2), [0.25, 0.25], 1),
        ]
    summary = {case[0]: _nd_domain_batch(config, *case[1:]) for case in cases}
    ref_worst = 0.0
    for name, domain, start, block in cases:
        try:
            w, tail = _nd_refinement_checks(config, domain, start, block + 2)
        except RefinementLimitError as err:
            summary["refinement_failure"] = {"domain": name, "gaps": list(err.gaps)}
            ref_worst = np.inf  # no finite disagreement to report: the gate fails
            break
        ref_worst = max(ref_worst, w)
        summary[f"{name}_refinement"] = {"dyadic_vs_triadic": w, "achieved_gap": tail}
    cross_worst, cross_tol = _nd_1d_crosscheck(config, block=4)
    summary["one_d_crosscheck"] = {"max_gap": cross_worst, "refine_tol": cross_tol}
    return summary, {"cases": [case[0] for case in cases], "ref_worst": ref_worst}, {}


# ---------------------------------------------------------------------------
# rsde-consistency


def _run_rsde_consistency(config: ExperimentConfig):
    summary: dict = {}
    route_steps = config.count_option("route_steps", 1000)

    # deterministic pushdown against the wall: drift (0,-1), no noise
    plane = halfplane()
    grid = TimeGrid.uniform(config.horizon, route_steps)
    down = np.array([[0.0, -1.0]])
    pushdown = SdeCoefficients(
        constant_sigma=np.zeros((2, 1)),
        b=lambda t, X: down.repeat(len(X), axis=0),
        lipschitz_K=1.0,
        r=1,
        name="pushdown",
    )
    path = euler_reflected(pushdown, plane, [0.0, 0.0], grid, RngSeed(config.seed))
    pin_gap = float(np.max(np.abs(path.X.values)))
    phi_gap = float(
        np.max(np.abs(path.phi.values - np.column_stack([np.zeros(len(grid)), grid.times])))
    )
    summary["pushdown"] = {"max_abs_X": pin_gap, "max_phi_gap": phi_gap}

    # reflected unit diffusion is reflecting Brownian motion
    line = half_line()
    unit = preset_coefficients("unit-diffusion", d=1)
    ks_grid = TimeGrid.uniform(config.horizon, config.n_steps)
    terminals = simulate_reflected_terminal_batch(
        unit, line, [0.0], ks_grid, RngSeed(config.seed), config.n_paths
    )[:, 0]
    ks = ks_test_against_cdf(np.sort(terminals), half_normal_cdf, alpha=config.alpha)
    summary["ks_half_normal"] = ks.as_dict()

    # the scheme against the explicit 1d map of its own driver
    paths = euler_reflected(unit, line, [0.0], ks_grid, RngSeed(config.seed), n_paths=3)
    g, _ = skorokhod_map_1d_batch(paths.driver.values[..., 0])
    map_gap = float(np.max(np.abs(paths.X.values[..., 0] - g)))
    summary["route_gaps"] = {"scheme_vs_map": map_gap}

    # coefficient contracts: accept the configured preset at its documented
    # constant, reject a drift declared with too small a constant
    accept_name = config.coefficients or "unit-diffusion"
    accepted = preset_coefficients(accept_name, d=1)
    accept = coefficient_contract_check(accepted, line, n_samples=256, rng=RngSeed(config.seed))
    overdeclared = preset_coefficients("linear-drift(2)", d=1, K=1.0)
    reject = coefficient_contract_check(
        overdeclared, line, n_samples=256, rng=RngSeed(config.seed)
    )
    summary["contract_accept"] = {"name": accept_name, **accept.as_dict()}
    summary["contract_reject"] = {"name": "linear-drift(2) with K=1", **reject.as_dict()}

    # two routes to the same drifted reflected diffusion on the disc
    disc = unit_disc()
    drift_coeffs = preset_coefficients("constant-drift(1,0)", d=2)
    stream = RngSeed(config.seed, 3 * STREAM_BLOCK)
    M = brownian_sample(grid, 2, [0.0, 0.0], stream)
    A = SampledPath.continuous(grid, np.column_stack([grid.times, np.zeros(len(grid))]))
    try:
        semi = semimartingale_skorokhod(M, A, disc, refine_tol=config.tolerance("refine", 0.02))
    except RefinementLimitError as err:
        summary["semimartingale_refinement_failure"] = {"gaps": list(err.gaps)}
        route_gap = np.inf  # no finite gap to report: the gate fails
    else:
        euler_route = euler_reflected(drift_coeffs, disc, [0.0, 0.0], grid, stream)
        stride = (len(semi.X.grid) - 1) // (len(grid) - 1)
        route_gap = float(
            np.max(np.linalg.norm(semi.X.values[0, ::stride] - euler_route.X.values[0], axis=1))
        )
        summary["semimartingale_route_gap"] = route_gap
    stats = {"preset": accept_name.split("(")[0], "semimartingale_route_gap": route_gap,
             "accept_ratio": max(accept.max_sigma_growth, accept.max_b_lipschitz)}
    return summary, stats, {"rsde_path": path}


# ---------------------------------------------------------------------------
# condition-checks


def _run_condition_checks(config: ExperimentConfig):
    reports = {}
    a_orthant = check_condition_a(orthant(2))
    a_plane = check_condition_a(halfplane())
    a_strip = check_condition_a(strip())
    a_disc = check_condition_a(unit_disc())
    b_disc = check_condition_b(unit_disc())
    b_plane = check_condition_b(halfplane())
    b_orthant3 = check_condition_b(orthant(3))
    reports["condition_a"] = {
        "orthant2": {"status": a_orthant.status, "c": a_orthant.c},
        "halfplane": {"status": a_plane.status, "c": a_plane.c},
        "strip": {"status": a_strip.status, "detail": a_strip.detail},
        "unit_disc": {"status": a_disc.status, "detail": a_disc.detail},
    }
    reports["condition_b"] = {
        "unit_disc": {"status": b_disc.status, "reason": b_disc.reason},
        "halfplane": {"status": b_plane.status, "reason": b_plane.reason},
        "orthant3": {"status": b_orthant3.status, "reason": b_orthant3.reason},
    }
    configured = config.resolve_domain()
    if configured is not None:
        a_cfg = check_condition_a(configured)
        b_cfg = check_condition_b(configured)
        reports["configured_domain"] = {
            "condition_a": {"status": a_cfg.status, "c": a_cfg.c, "detail": a_cfg.detail},
            "condition_b": {"status": b_cfg.status, "reason": b_cfg.reason},
        }
    results = dict(a_orthant=a_orthant, a_plane=a_plane, a_strip=a_strip, b_disc=b_disc,
                   b_plane=b_plane, b_orthant3=b_orthant3)
    return reports, results, {}


# ---------------------------------------------------------------------------
# strong-error


def _run_strong_error(config: ExperimentConfig):
    dt_levels = config.option("dt_levels", (1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512))
    if not isinstance(dt_levels, tuple):  # one step size; real_option names a non-number
        dt_levels = (config.real_option("dt_levels", dt_levels),)
    if len(dt_levels) < 2:
        # the finest level is the reference, so the gaps need two levels
        raise ValueError(f"config key dt_levels needs at least 2 step sizes, got {len(dt_levels)}")
    n_paths = config.n_paths
    unit = preset_coefficients("unit-diffusion", d=1)
    rows_reflected = strong_error_estimate(
        unit, half_line(), [0.0], config.horizon, dt_levels, n_paths, RngSeed(config.seed)
    )
    wide = ConvexDomain(1, normals=[[1.0]], offsets=[-1e6], interior_point=[0.0])
    rows_free = strong_error_estimate(
        unit, wide, [0.0], config.horizon, dt_levels, n_paths, RngSeed(config.seed, STREAM_BLOCK)
    )
    gaps = [g for _, g in rows_reflected][:-1]
    summary = {
        "reflected": [{"dt": dt, "rms_gap": g} for dt, g in rows_reflected],
        "free": [{"dt": dt, "rms_gap": g} for dt, g in rows_free],
    }
    stats = dict(gaps=["%.4f" % g for g in gaps], finest_gap=gaps[-1],
                 gaps_decrease=all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)),
                 free_max=max(g for _, g in rows_free))
    return summary, stats, {}


# ---------------------------------------------------------------------------
# registry and runner

EXPERIMENTS = {
    "skorokhod-1d-props": (
        _run_skorokhod_1d_props,
        {"seed": 1001, "n_paths": 1000, "n_steps": 10_000},
    ),
    "rbm-density": (_run_rbm_density, {"seed": 42, "n_paths": 10_000, "n_steps": 10_000}),
    "ito-isometry": (_run_ito_isometry, {"seed": 0, "n_paths": 100_000, "n_steps": 1000}),
    "ito-formula": (_run_ito_formula, {"seed": 11, "n_paths": 100, "n_steps": 10_000}),
    "local-time": (_run_local_time, {"seed": 5, "n_paths": 10_000, "n_steps": 10_000}),
    "nd-skorokhod-props": (
        _run_nd_skorokhod_props,
        {"seed": 9, "n_paths": 1000, "n_steps": 256},
    ),
    "rsde-consistency": (_run_rsde_consistency, {"seed": 1, "n_paths": 10_000, "n_steps": 10_000}),
    "condition-checks": (_run_condition_checks, {"seed": 0, "n_paths": 2, "n_steps": 2}),
    "strong-error": (_run_strong_error, {"seed": 13, "n_paths": 256, "n_steps": 512}),
}

# Every check of every experiment, in report order. A stat is a format field
# name of the runner's summary and extra stats, which _checks reads.
GATES = {
    "skorokhod-1d-props": (
        Gate("decomposition_identity", (("max_decomposition", "<=", Tol("decomposition", 1e-12)),),
             "max relative defect {max_decomposition:.3e} <= {bound:.1e}", "tolerance"),
        Gate("h_nondecreasing_exact", (("min_h_increment", ">=", 0.0), ("max_h_start", "==", 0.0)),
             "min increment {min_h_increment:.3e}, |h(0)| max {max_h_start:.3e}", "exact"),
        Gate("complementarity_mass_zero", (("total_complementarity_mass", "==", 0.0),),
             "summed mass {total_complementarity_mass:.3e}", "exact"),
        Gate("g_nonnegative", (("min_g", ">=", 0.0),), "min g {min_g:.3e}", "exact"),
    ),
    "rbm-density": (
        Gate("ks_half_normal", (("ks_half_normal[passed]", "==", True),),
             "D={ks_half_normal[statistic]:.5f} < {ks_half_normal[threshold]:.5f}", "statistical"),
        Gate("ks_two_sample_vs_abs", (("ks_two_sample[passed]", "==", True),),
             "D={ks_two_sample[statistic]:.5f} < {ks_two_sample[threshold]:.5f}", "statistical"),
        Gate("mean_terminal_within_3se", (("terminal", "within", 3.0),),
             "mean {terminal[0].mean:.5f} vs {terminal[1]:.5f} (se {terminal[0].std_error:.5f})",
             "statistical"),
    ),
    "ito-isometry": (
        Gate("lhs_within_3se_of_half", (("lhs_vs_half", "within", 3.0),),
             "lhs {lhs[mean]:.5f} (se {lhs[std_error]:.5f})", "statistical"),
        Gate("rhs_within_3se_of_half", (("rhs_vs_half", "within", 3.0),),
             "rhs {rhs[mean]:.5f} (se {rhs[std_error]:.5f})", "statistical"),
        Gate("isometry_within_4_joint_se", (("lhs_rhs_gap", "<=", Stat("joint_se", 4.0)),),
             "|lhs-rhs| {lhs_rhs_gap:.5f} vs 4*{joint_se:.5f}", "statistical"),
        Gate("constant_integrand_exact_rhs",
             (("constant_rhs_error", "<=", 1e-12), ("constant_case[rhs][std_error]", "<=", 1e-15)),
             "rhs {constant_case[rhs][mean]:.15f}", "exact"),
        Gate("constant_integrand_lhs_within_3se", (("constant_lhs_vs_T", "within", 3.0),),
             "lhs {constant_case[lhs][mean]:.5f} (se {constant_case[lhs][std_error]:.5f})",
             "statistical"),
    ),
    "ito-formula": (
        Gate("residual_rms_small", (("rms_coarse", "<=", 0.05),), "rms {rms_coarse:.5f} <= {bound}",
             "statistical"),
        Gate("rms_ratio_order_half", (("ratio", "in", (1.5, 3.0)),),
             "rms({n_steps_coarse}) / rms({n_steps_fine}) = {ratio:.3f}", "statistical"),
    ),
    "local-time": (
        Gate("occupation_within_3se", (("occ", "within", 3.0),),
             "mean {occ[0].mean:.5f} vs {occ[1]:.5f} (se {occ[0].std_error:.5f})", "statistical"),
        Gate("tanaka_within_3se", (("tan", "within", 3.0),),
             "mean {tan[0].mean:.5f} vs {tan[1]:.5f} (se {tan[0].std_error:.5f})", "statistical"),
        Gate("cross_estimator_rms", (("fine_cross_rms", "<=", 0.05),),
             "rms gap {fine_cross_rms:.5f} <= {bound} (eps {fine_eps}, {fine_steps} steps, "
             "{fine_paths} paths)", "statistical"),
        Gate("bandwidth_ladder_monotone", (("ladder_monotone", "==", True),),
             "rms along eps {ladder_eps}: {ladder_rms}", "statistical"),
    ),
    "nd-skorokhod-props": (
        Gate("{case}_containment", (("containment_slack", ">=", -1e-9),),
             "worst slack {containment_slack:.3e}", "exact"),
        Gate("{case}_decomposition", (("decomposition", "<=", 1e-9),),
             "max |X - w - phi| {decomposition:.3e}", "exact"),
        Gate("{case}_interior_mass_zero", (("interior_mass", "==", 0.0),),
             "interior pushing mass {interior_mass:.3e}", "exact"),
        Gate("{case}_normal_directions", (("angular_gap", "<=", 1e-6),),
             "max angular gap {angular_gap:.3e}", "exact"),
        Gate("{case}_pairwise_gap", (("tanaka_gap", ">=", -1e-9),),
             "min pairwise-contraction slack {tanaka_gap:.3e}", "exact"),
        Gate("{case}_modulus_gap", (("modulus_gap", ">=", -1e-9),),
             "min oscillation slack {modulus_gap:.3e}", "exact"),
        Gate("dyadic_vs_triadic", (("ref_worst", "<=", Tol("refine", 0.02, 2.0)),),
             "max schedule disagreement {ref_worst:.4f} <= {bound:.4f}", "tolerance"),
        Gate("one_d_crosscheck",
             (("one_d_crosscheck[max_gap]", "<=", Stat("one_d_crosscheck[refine_tol]")),),
             "max gap to explicit map {one_d_crosscheck[max_gap]:.3e} <= {bound:.3e}", "exact"),
    ),
    "rsde-consistency": (
        Gate("pushdown_pinned", (("pushdown[max_abs_X]", "==", 0.0),),
             "max |X| {pushdown[max_abs_X]:.3e}", "exact"),
        Gate("pushdown_phi_linear", (("pushdown[max_phi_gap]", "<=", 1e-12),),
             "max |phi - (0,t)| {pushdown[max_phi_gap]:.3e}", "exact"),
        Gate("ks_half_normal", (("ks_half_normal[passed]", "==", True),),
             "D={ks_half_normal[statistic]:.5f} < {ks_half_normal[threshold]:.5f}", "statistical"),
        Gate("scheme_matches_explicit_map", (("route_gaps[scheme_vs_map]", "<=", 1e-12),),
             "max gap {route_gaps[scheme_vs_map]:.3e}", "exact"),
        Gate("contract_accepts_{preset}", (("contract_accept[passed]", "==", True),),
             "max ratio {accept_ratio:.3f} <= K={contract_accept[lipschitz_K]}", "exact"),
        Gate("contract_rejects_overdeclared_drift", (("contract_reject[passed]", "==", False),),
             "observed drift Lipschitz ratio {contract_reject[max_b_lipschitz]:.3f} "
             "> {contract_reject[lipschitz_K]:g}", "exact"),
        Gate("semimartingale_route_agrees_with_scheme",
             (("semimartingale_route_gap", "<=", Tol("route_agreement", 0.1)),),
             "max gap {semimartingale_route_gap:.4f} <= {bound}", "tolerance"),
    ),
    "condition-checks": (
        Gate("orthant_condition_a", (("a_orthant.status", "==", "holds"),
                                     ("a_orthant.c", "near", (float(1.0 / np.sqrt(2.0)), 1e-6))),
             "c = {a_orthant.c} vs {bound[0]}", "exact"),
        Gate("halfplane_condition_a",
             (("a_plane.status", "==", "holds"), ("a_plane.c", "near", (1.0, 1e-9))),
             "c = {a_plane.c}", "exact"),
        Gate("strip_condition_a_fails", (("a_strip.status", "==", "fails"),), "{a_strip.detail}",
             "exact"),
        Gate("disc_condition_b_bounded",
             (("b_disc.status", "==", "holds"), ("b_disc.reason", "contains", "bounded")),
             "{b_disc.reason}", "exact"),
        Gate("halfplane_condition_b_d2", (("b_plane.status", "==", "holds"),), "{b_plane.reason}",
             "exact"),
        Gate("orthant3_condition_b_unknown", (("b_orthant3.status", "==", "unknown"),),
             "{b_orthant3.reason}", "exact"),
    ),
    "strong-error": (
        Gate("reflected_gaps_decrease", (("gaps_decrease", "==", True), ("finest_gap", ">", 0.0)),
             "gaps {gaps}", "statistical"),
        Gate("free_scheme_exact", (("free_max", "<=", 1e-12),), "max free gap {free_max:.3e}",
             "exact"),
    ),
}

# the option and tol_ keys each experiment reads; run_experiment rejects others
READ_KEYS = {
    "skorokhod-1d-props": ("tol_decomposition",),
    "local-time": ("level", "eps", "fine_steps", "fine_paths", "fine_eps"),
    "nd-skorokhod-props": ("tol_refine", "refine_n0", "refine_drivers"),
    "rsde-consistency": ("route_steps", "tol_refine", "tol_route_agreement"),
    "strong-error": ("dt_levels",),
}
# config fields only some experiments read, with their readers; others reject them when set
FIELD_READERS = {
    "coefficients": ("rsde-consistency",),
    "domain": ("nd-skorokhod-props", "condition-checks"),
    "domain_file": ("nd-skorokhod-props", "condition-checks"),
}


def experiment_defaults(experiment: str) -> dict:
    """ExperimentConfig keywords of a named experiment's defaults; UsageError if unknown."""
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    return {**EXPERIMENTS[experiment][1], "experiment": experiment}


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**experiment_defaults(experiment), **overrides})


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    checks: tuple
    summary: dict
    artifacts: RunArtifacts


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one named experiment, write its artifacts, and report pass/fail."""
    experiment_defaults(config.experiment)  # fail before running if the name is unknown
    read = READ_KEYS.get(config.experiment, ())  # and on a key it would ignore
    for key in [*config.options, *(f"tol_{name}" for name in config.tolerances)]:
        if key not in read:
            raise UsageError(f"config key {key} is not read by {config.experiment}; "
                             f"its option and tol_ keys are: {', '.join(read) or 'none'}")
    for key, readers in FIELD_READERS.items():
        if getattr(config, key) is not None and config.experiment not in readers:
            raise UsageError(f"config key {key} is not read by {config.experiment}, "
                             f"only by {' and '.join(readers)}")
    if config.tolerances.get("refine") == 0.0:  # a zero refinement gap is never reached
        raise ValueError("config key tol_refine must be positive, got 0.0")
    config.resolve_domain()  # fail before running if a referenced file is bad
    if config.coefficients is not None:
        preset_coefficients(config.coefficients)  # same for presets
    fn, _ = EXPERIMENTS[config.experiment]
    summary, stats, payloads = fn(config)
    checks = _checks(config.experiment, {**summary, **stats}, config)
    summary["experiment"] = config.experiment
    summary["checks"] = [c.as_dict() for c in checks]
    all_passed = all(c.passed for c in checks)
    summary["all_passed"] = all_passed
    artifacts = write_run_artifacts(
        config.out_dir,
        config.as_dict(),
        summary,
        payloads if config.emit_paths else {},
    )
    return RunResult(
        exit_code=0 if all_passed else 1,
        checks=tuple(checks),
        summary=summary,
        artifacts=artifacts,
    )
