"""Named Monte Carlo experiments behind the CLI.

Every experiment is a pure function of its ExperimentConfig: path i of
component c always draws from stream c * 2^32 + i of the configured seed,
and chunked fan-out combines per-chunk results in chunk order, so reruns
are byte-identical no matter how many workers run (the pool module's
SKOROKHOD_KIT_THREADS caps the worker count).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import pool
from .config import ExperimentConfig
from .domains import ConvexDomain, half_line, orthant, unit_disc, halfplane, strip
from .errors import EvaluationFault, RefinementLimitError, UsageError
from .itocalc import (
    _ISOMETRY_BLOCK,
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
    InitialLaw,
    RngSeed,
    brownian_increments,
    brownian_paths,
    brownian_sample,
    standard_normals,
)
from .reflect1d import (
    rbm_from_skorokhod,
    skorokhod_1d_diagnostics_batch,
    skorokhod_map_1d,
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
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _ks_check(name: str, ks) -> Check:
    return Check(name, ks.passed, f"D={ks.statistic:.5f} < {ks.threshold:.5f}")


def _mean_check(name: str, est: McEstimate, target: float) -> Check:
    detail = f"mean {est.mean:.5f} vs {target:.5f} (se {est.std_error:.5f})"
    return Check(name, est.within(target, 3.0), detail)


def map_chunks(fn, n_items: int, chunk: int = CHUNK) -> list:
    """pool.map_chunks over chunks of CHUNK paths unless told otherwise.

    Defined in this module, not re-exported, because the benchmark's tracer
    hooks the experiments' fan-out by this function.
    """
    return pool.map_chunks(fn, n_items, chunk)


def _thread_rows(buffers: threading.local, shape) -> np.ndarray:
    """A float64 array of this shape kept in ``buffers``, one per thread.

    The chunks a pool thread runs reuse it: freeing chunk-sized arrays lets
    glibc trim a worker's heap and fault the pages back in for the next chunk.
    """
    size = int(np.prod(shape))
    if getattr(buffers, "rows", np.empty(0)).size < size:
        buffers.rows = np.empty(size)
    return buffers.rows[:size].reshape(shape)


def _row_chunk(n_cols: int) -> int:
    """Rows per chunk so that one float64 chunk array is about 1 MiB.

    Such a chunk fits in L2. Narrow chunks also give the pool enough of them
    to balance when paths are long: one row per chunk past 65,536 points.
    """
    return max(1, min(CHUNK, (1 << 17) // n_cols))


# ---------------------------------------------------------------------------
# skorokhod-1d-props


def _run_skorokhod_1d_props(config: ExperimentConfig):
    n_paths, n_steps = config.n_paths, config.n_steps
    grid = TimeGrid.uniform(config.horizon, n_steps)
    tol_decomp = config.tolerance("decomposition", 1e-12)
    rng = RngSeed(config.seed)
    buffers = threading.local()

    def chunk_stats(start, stop):
        rows = _thread_rows(buffers, (stop - start, len(grid), 1))
        v = brownian_paths(rng, stop - start, grid, first_stream=start, out=rows)[..., 0]
        g, h = skorokhod_map_1d_batch(v)
        diag = skorokhod_1d_diagnostics_batch(g, h, v)
        diag["decomposition_max_abs"] /= np.maximum(1.0, np.max(np.abs(v), axis=1))
        return diag

    parts = map_chunks(chunk_stats, n_paths, chunk=_row_chunk(len(grid)))
    col = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    agg = {
        "max_decomposition": float(np.max(col["decomposition_max_abs"])),
        "min_h_increment": float(np.min(col["min_h_increment"])),
        "max_h_start": float(np.max(np.abs(col["h_start"]))),
        "total_complementarity_mass": float(np.sum(np.abs(col["complementarity_mass"]))),
        "min_g": float(np.min(col["min_g"])),
    }

    checks = [
        Check(
            "decomposition_identity",
            agg["max_decomposition"] <= tol_decomp,
            f"max relative defect {agg['max_decomposition']:.3e} <= {tol_decomp:.1e}",
        ),
        Check(
            "h_nondecreasing_exact",
            agg["min_h_increment"] >= 0.0 and agg["max_h_start"] == 0.0,
            f"min increment {agg['min_h_increment']:.3e}, |h(0)| max {agg['max_h_start']:.3e}",
        ),
        Check(
            "complementarity_mass_zero",
            agg["total_complementarity_mass"] == 0.0,
            f"summed mass {agg['total_complementarity_mass']:.3e}",
        ),
        Check("g_nonnegative", agg["min_g"] >= 0.0, f"min g {agg['min_g']:.3e}"),
    ]
    summary = {"aggregates": agg, "n_paths": n_paths, "n_steps": n_steps}
    return summary, checks, {}


# ---------------------------------------------------------------------------
# rbm-density


def _rbm_terminals(config: ExperimentConfig, block: int) -> np.ndarray:
    grid = TimeGrid.uniform(config.horizon, config.n_steps)

    def chunk_terminals(start, stop):
        rng = RngSeed(config.seed, block * STREAM_BLOCK)
        dB = brownian_increments(rng, stop - start, grid, first_stream=start)[..., 0]
        # in place: with a second chunk-sized temporary, glibc trims the
        # worker's heap when a chunk frees it and faults the pages back in
        # for the next chunk; v(0) = 0 is left out, as the terminal map allows
        return skorokhod_terminal_1d_batch(np.cumsum(dB, axis=1, out=dB))

    parts = map_chunks(chunk_terminals, config.n_paths, chunk=_row_chunk(len(grid)))
    return np.concatenate(parts)


def _run_rbm_density(config: ExperimentConfig):
    X = _rbm_terminals(config, block=0)
    gen_abs = RngSeed(config.seed, STREAM_BLOCK).generator()
    absB = np.abs(standard_normals(gen_abs, config.n_paths)) * np.sqrt(config.horizon)

    ks_half = ks_test_against_cdf(np.sort(X), half_normal_cdf, alpha=config.alpha)
    ks_two = ks_test_two_sample(X, absB, alpha=config.alpha)
    mean_x = McEstimate.from_samples(X)
    # phi(T) for a start at 0 is the reflected running minimum
    grid = TimeGrid.uniform(config.horizon, 1000)
    driver = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(config.seed, 2 * STREAM_BLOCK))
    sol = rbm_from_skorokhod(driver, InitialLaw.point_mass(0.0))

    checks = [
        _ks_check("ks_half_normal", ks_half),
        _ks_check("ks_two_sample_vs_abs", ks_two),
        _mean_check("mean_terminal_within_3se", mean_x, ROOT_2_OVER_PI),
    ]
    summary = {
        "ks_half_normal": ks_half.as_dict(),
        "ks_two_sample": ks_two.as_dict(),
        "terminal_mean": mean_x.as_dict(),
        "n_paths": config.n_paths,
        "n_steps": config.n_steps,
    }
    return summary, checks, {"rbm_pair": (driver, sol.g)}


# ---------------------------------------------------------------------------
# ito-isometry


# Paths per isometry chunk: a fixed 16 blocks, so the chunk layout depends
# on n_paths alone and never on the worker count.
ISOMETRY_CHUNK = 16 * _ISOMETRY_BLOCK


def _pooled_isometry(
    f: Integrand, T: float, n_paths: int, rng: RngSeed, n_steps: int, first_stream: int = 0
):
    """ito_isometry_check's estimates, with the stream ranges run on the pool."""

    def chunk(start, stop):
        try:
            return ito_isometry_samples(f, T, stop - start, rng, n_steps, first_stream + start)
        except EvaluationFault as err:
            # name the path by its index in the whole run, not in its chunk
            raise EvaluationFault(str(err), err.step_index, start + err.path_index) from err

    parts = map_chunks(chunk, n_paths, chunk=ISOMETRY_CHUNK)
    lhs = np.concatenate([part[0] for part in parts])
    rhs = np.concatenate([part[1] for part in parts])
    return McEstimate.from_samples(lhs), McEstimate.from_samples(rhs)


def _run_ito_isometry(config: ExperimentConfig):
    rng = RngSeed(config.seed)
    f_state = Integrand.of_state(lambda t, x: x, m2_bound=0.5)
    lhs, rhs = _pooled_isometry(f_state, config.horizon, config.n_paths, rng, config.n_steps)
    joint_se = float(np.hypot(lhs.std_error, rhs.std_error))
    const = Integrand.constant(1.0)
    lhs1, rhs1 = _pooled_isometry(const, config.horizon, 2000, rng, 200, STREAM_BLOCK)
    target = 0.5
    checks = [
        Check(
            "lhs_within_3se_of_half",
            lhs.within(target, 3.0),
            f"lhs {lhs.mean:.5f} (se {lhs.std_error:.5f})",
        ),
        Check(
            "rhs_within_3se_of_half",
            rhs.within(target, 3.0),
            f"rhs {rhs.mean:.5f} (se {rhs.std_error:.5f})",
        ),
        Check(
            "isometry_within_4_joint_se",
            abs(lhs.mean - rhs.mean) <= 4.0 * joint_se,
            f"|lhs-rhs| {abs(lhs.mean - rhs.mean):.5f} vs 4*{joint_se:.5f}",
        ),
        Check(
            "constant_integrand_exact_rhs",
            abs(rhs1.mean - config.horizon) <= 1e-12 and rhs1.std_error <= 1e-15,
            f"rhs {rhs1.mean:.15f}",
        ),
        Check(
            "constant_integrand_lhs_within_3se",
            lhs1.within(config.horizon, 3.0),
            f"lhs {lhs1.mean:.5f} (se {lhs1.std_error:.5f})",
        ),
    ]
    summary = {
        "lhs": lhs.as_dict(),
        "rhs": rhs.as_dict(),
        "joint_se": joint_se,
        "constant_case": {"lhs": lhs1.as_dict(), "rhs": rhs1.as_dict()},
    }
    return summary, checks, {}


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

    return np.concatenate(map_chunks(chunk_residuals, n_paths, chunk=_row_chunk(len(grid))))


def _run_ito_formula(config: ExperimentConfig):
    n_paths = config.n_paths
    res_coarse = _cubic_residuals(config, config.n_steps, n_paths)
    res_fine = _cubic_residuals(config, 4 * config.n_steps, n_paths)
    rms_coarse = float(np.sqrt(np.mean(res_coarse**2)))
    rms_fine = float(np.sqrt(np.mean(res_fine**2)))
    ratio = rms_coarse / rms_fine
    checks = [
        Check("residual_rms_small", rms_coarse <= 0.05, f"rms {rms_coarse:.5f} <= 0.05"),
        Check(
            "rms_ratio_order_half",
            1.5 <= ratio <= 3.0,
            f"rms({config.n_steps}) / rms({4 * config.n_steps}) = {ratio:.3f}",
        ),
    ]
    summary = {
        "rms_coarse": rms_coarse,
        "rms_fine": rms_fine,
        "ratio": ratio,
        "n_paths": n_paths,
        "n_steps_coarse": config.n_steps,
    }
    return summary, checks, {}


# ---------------------------------------------------------------------------
# local-time


def _local_time_pass(
    seed: int, first_stream: int, n_paths: int, grid: TimeGrid, level: float, eps_list
):
    """Occupation estimates per eps, and Tanaka estimates, of paths from 0."""
    rng = RngSeed(seed, first_stream)
    buffers = threading.local()

    def chunk_pair(start, stop):
        rows = _thread_rows(buffers, (stop - start, len(grid), 1))
        x = brownian_paths(rng, stop - start, grid, first_stream=start, out=rows)[..., 0]
        occ = local_time_occupation_batch(x, grid, level, eps_list)
        return occ, local_time_tanaka_batch(x, level)

    parts = map_chunks(chunk_pair, n_paths, chunk=_row_chunk(len(grid)))
    occ = np.concatenate([p[0] for p in parts], axis=1)
    return list(occ), np.concatenate([p[1] for p in parts])


def _run_local_time(config: ExperimentConfig):
    level = float(config.option("level", 0.0))
    eps = float(config.option("eps", 0.01))
    fine_steps = config.count_option("fine_steps", 100_000)
    fine_paths = config.count_option("fine_paths", 400)
    fine_eps = float(config.option("fine_eps", 0.005))
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
    ladder_monotone = all(ladder_rms[i] > ladder_rms[i + 1] for i in range(3))

    checks = [
        _mean_check("occupation_within_3se", occ_est, target),
        _mean_check("tanaka_within_3se", tan_est, target),
        Check(
            "cross_estimator_rms",
            cross_rms <= 0.05,
            f"rms gap {cross_rms:.5f} <= 0.05 "
            f"(eps {fine_eps}, {fine_steps} steps, {fine_paths} paths)",
        ),
        Check(
            "bandwidth_ladder_monotone",
            ladder_monotone,
            "rms along eps {}: {}".format(
                eps_ladder[:4], ["%.4f" % r for r in ladder_rms[:4]]
            ),
        ),
    ]
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
    return summary, checks, {}


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
    return worst, gap_tail, refine_tol


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
        fine_grid = sol.X.grid
        fine_w = np.interp(fine_grid.times, grid.times, values)
        f = SampledPath.continuous(fine_grid, fine_w - fine_w[0])
        explicit = skorokhod_map_1d(f, float(fine_w[0]))
        worst = max(worst, float(np.max(np.abs(sol.X.scalar_values - explicit.g.scalar_values))))
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
    summary: dict = {}
    checks: list[Check] = []
    for name, domain, start, block in cases:
        worst = _nd_domain_batch(config, domain, start, block)
        summary[name] = worst
        checks += [
            Check(
                f"{name}_containment",
                worst["containment_slack"] >= -1e-9,
                f"worst slack {worst['containment_slack']:.3e}",
            ),
            Check(
                f"{name}_decomposition",
                worst["decomposition"] <= 1e-9,
                f"max |X - w - phi| {worst['decomposition']:.3e}",
            ),
            Check(
                f"{name}_interior_mass_zero",
                worst["interior_mass"] == 0.0,
                f"interior pushing mass {worst['interior_mass']:.3e}",
            ),
            Check(
                f"{name}_normal_directions",
                worst["angular_gap"] <= 1e-6,
                f"max angular gap {worst['angular_gap']:.3e}",
            ),
            Check(
                f"{name}_pairwise_gap",
                worst["tanaka_gap"] >= -1e-9,
                f"min pairwise-contraction slack {worst['tanaka_gap']:.3e}",
            ),
            Check(
                f"{name}_modulus_gap",
                worst["modulus_gap"] >= -1e-9,
                f"min oscillation slack {worst['modulus_gap']:.3e}",
            ),
        ]
    ref_worst = 0.0
    refine_tol = config.tolerance("refine", 0.02)
    refinement_converged = True
    refinement_note = ""
    for name, domain, start, block in cases:
        try:
            w, tail, refine_tol = _nd_refinement_checks(config, domain, start, block + 2)
        except RefinementLimitError as err:
            refinement_converged = False
            refinement_note = f"{name}: gaps {err.gaps}"
            break
        ref_worst = max(ref_worst, w)
        summary[f"{name}_refinement"] = {"dyadic_vs_triadic": w, "achieved_gap": tail}
    checks.append(
        Check(
            "dyadic_vs_triadic",
            refinement_converged and ref_worst <= 2.0 * refine_tol,
            refinement_note
            or f"max schedule disagreement {ref_worst:.4f} <= {2 * refine_tol:.4f}",
        )
    )
    cross_worst, cross_tol = _nd_1d_crosscheck(config, block=4)
    summary["one_d_crosscheck"] = {"max_gap": cross_worst, "refine_tol": cross_tol}
    checks.append(
        Check(
            "one_d_crosscheck",
            cross_worst <= cross_tol,
            f"max gap to explicit map {cross_worst:.3e} <= {cross_tol:.3e}",
        )
    )
    return summary, checks, {}


# ---------------------------------------------------------------------------
# rsde-consistency


def _run_rsde_consistency(config: ExperimentConfig):
    checks: list[Check] = []
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
    checks += [
        Check("pushdown_pinned", pin_gap == 0.0, f"max |X| {pin_gap:.3e}"),
        Check("pushdown_phi_linear", phi_gap <= 1e-12, f"max |phi - (0,t)| {phi_gap:.3e}"),
    ]
    summary["pushdown"] = {"max_abs_X": pin_gap, "max_phi_gap": phi_gap}

    # reflected unit diffusion is reflecting Brownian motion
    line = half_line()
    unit = preset_coefficients("unit-diffusion", d=1)
    ks_grid = TimeGrid.uniform(config.horizon, config.n_steps)
    terminals = simulate_reflected_terminal_batch(
        unit, line, [0.0], ks_grid, RngSeed(config.seed), config.n_paths
    )[:, 0]
    ks = ks_test_against_cdf(np.sort(terminals), half_normal_cdf, alpha=config.alpha)
    checks.append(_ks_check("ks_half_normal", ks))
    summary["ks_half_normal"] = ks.as_dict()

    # the scheme against the explicit 1d map of its own driver
    singles = [
        euler_reflected(unit, line, [0.0], ks_grid, RngSeed(config.seed, i)) for i in range(3)
    ]
    g, _ = skorokhod_map_1d_batch(np.stack([s.driver.scalar_values for s in singles]))
    map_gap = float(np.max(np.abs(np.stack([s.X.scalar_values for s in singles]) - g)))
    checks.append(
        Check("scheme_matches_explicit_map", map_gap <= 1e-12, f"max gap {map_gap:.3e}")
    )
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
    checks += [
        Check(
            f"contract_accepts_{accept_name.split('(')[0]}",
            accept.passed,
            f"max ratio {max(accept.max_sigma_growth, accept.max_b_lipschitz):.3f} "
            f"<= K={accepted.lipschitz_K}",
        ),
        Check(
            "contract_rejects_overdeclared_drift",
            not reject.passed,
            f"observed drift Lipschitz ratio {reject.max_b_lipschitz:.3f} > 1",
        ),
    ]
    summary["contract_accept"] = {"name": accept_name, **accept.as_dict()}
    summary["contract_reject"] = {"name": "linear-drift(2) with K=1", **reject.as_dict()}

    # two routes to the same drifted reflected diffusion on the disc
    disc = unit_disc()
    route_grid = TimeGrid.uniform(config.horizon, route_steps)
    drift_coeffs = preset_coefficients("constant-drift(1,0)", d=2)
    stream = RngSeed(config.seed, 3 * STREAM_BLOCK)
    M = brownian_sample(route_grid, 2, InitialLaw.point_mass([0.0, 0.0]), stream)
    A = SampledPath.continuous(
        route_grid, np.column_stack([route_grid.times, np.zeros(len(route_grid))])
    )
    refine_tol = config.tolerance("refine", 0.02)
    semi = semimartingale_skorokhod(M, A, disc, refine_tol=refine_tol)
    euler_route = euler_reflected(drift_coeffs, disc, [0.0, 0.0], route_grid, stream)
    stride = (len(semi.X.grid) - 1) // (len(route_grid) - 1)
    route_gap = float(
        np.max(np.linalg.norm(semi.X.values[0, ::stride] - euler_route.X.values[0], axis=1))
    )
    route_tol = config.tolerance("route_agreement", 0.1)
    checks.append(
        Check(
            "semimartingale_route_agrees_with_scheme",
            route_gap <= route_tol,
            f"max gap {route_gap:.4f} <= {route_tol}",
        )
    )
    summary["semimartingale_route_gap"] = route_gap
    return summary, checks, {"rsde_path": path}


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
    c_target = float(1.0 / np.sqrt(2.0))
    checks = [
        Check(
            "orthant_condition_a",
            a_orthant.status == "holds" and abs(a_orthant.c - c_target) <= 1e-6,
            f"c = {a_orthant.c} vs {c_target}",
        ),
        Check(
            "halfplane_condition_a",
            a_plane.status == "holds" and abs(a_plane.c - 1.0) <= 1e-9,
            f"c = {a_plane.c}",
        ),
        Check("strip_condition_a_fails", a_strip.status == "fails", a_strip.detail),
        Check(
            "disc_condition_b_bounded",
            b_disc.status == "holds" and "bounded" in b_disc.reason,
            b_disc.reason,
        ),
        Check("halfplane_condition_b_d2", b_plane.status == "holds", b_plane.reason),
        Check("orthant3_condition_b_unknown", b_orthant3.status == "unknown", b_orthant3.reason),
    ]
    return reports, checks, {}


# ---------------------------------------------------------------------------
# strong-error


def _run_strong_error(config: ExperimentConfig):
    dt_levels = config.option("dt_levels", (1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512))
    dt_levels = list(dt_levels) if isinstance(dt_levels, tuple) else [dt_levels]
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
    monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    free_max = max(g for _, g in rows_free)
    checks = [
        Check(
            "reflected_gaps_decrease",
            monotone and gaps[-1] > 0.0,
            f"gaps {['%.4f' % g for g in gaps]}",
        ),
        Check("free_scheme_exact", free_max <= 1e-12, f"max free gap {free_max:.3e}"),
    ]
    summary = {
        "reflected": [{"dt": dt, "rms_gap": g} for dt, g in rows_reflected],
        "free": [{"dt": dt, "rms_gap": g} for dt, g in rows_free],
    }
    return summary, checks, {}


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
    config.resolve_domain()  # fail before running if a referenced file is bad
    if config.coefficients is not None:
        preset_coefficients(config.coefficients)  # same for presets
    fn, _ = EXPERIMENTS[config.experiment]
    summary, checks, payloads = fn(config)
    summary = dict(summary)
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
