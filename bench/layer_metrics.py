"""Per-layer metrics of one traced experiment set.

Counts are taken at the layer boundaries from each call's arguments and
result (normals and streams asked for, rows projected, path steps stepped),
so ratios such as ns per normal divide time and work measured at the same
boundary. Busy times are thread-seconds of self time; ``<layer>.self_s`` is
the layer's share of wall time (see tracer.wall_shares), and these shares add
up to the traced wall time less the benchmark's own bookkeeping between
experiments.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict

from tracer import LAYERS, Tracer, self_times, wall_shares

NORMAL_SOURCES = ("randomness.standard_normals", "randomness.normal_matrix",
                  "randomness.brownian_sample")
PROJECT = ("domains.ConvexDomain.project", "domains.project")
BATCH = "domains.ConvexDomain.project_batch"
REFLECT_SOLVERS = ("reflectnd.solve_skorokhod_step", "reflectnd.solve_skorokhod_continuous")


UNITS = {
    "randomness.normals": "count",
    "randomness.ns_per_normal": "ns",
    "randomness.streams": "count",
    "randomness.us_per_stream": "us",
    "randomness.busy_s": "s",
    "domains.project_calls": "count",
    "domains.us_per_project": "us",
    "domains.batch_rows": "count",
    "domains.ns_per_batch_row": "ns",
    "domains.push_share": "share",
    "domains.busy_s": "s",
    "reflectnd.path_steps": "count",
    "reflectnd.us_per_path_step": "us",
    "reflectnd.refine_levels": "count",
    "reflectnd.refine_failures": "count",
    "reflectnd.diagnostics_s": "s",
    "rsde.path_steps": "count",
    "rsde.ns_per_path_step": "ns",
    "rsde.busy_s": "s",
    "itocalc.calls": "count",
    "reflect1d.calls": "count",
    "reflect1d.busy_s": "s",
    "experiments.kernel_s": "s",
    "experiments.pool_share": "share",
    "experiments.pool_utilization": "share",
    "experiments.speedup_2v1": "ratio",
    "stats.busy_s": "s",
    "pathio.busy_s": "s",
    "pathio.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead_share": "share",
    "trace_attributed_share": "share",
    "trace.spans": "count",
}


def make_counters() -> dict:
    """Counter per traced entry point: what work one call was asked to do."""
    import numpy as np
    from skorokhod_kit import randomness, reflectnd, rsde

    def binder(fn):
        signature = inspect.signature(fn)

        def bind(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        return bind

    def standard_normals(args, kwargs, result, error):
        return {"normals": args[1] if len(args) > 1 else kwargs["n"]}

    bind_matrix = binder(randomness.normal_matrix)

    def normal_matrix(args, kwargs, result, error):
        a = bind_matrix(args, kwargs)
        return {"normals": a["n_rows"] * a["n_cols"], "streams": a["n_rows"]}

    bind_brownian = binder(randomness.brownian_sample)

    def brownian_sample(args, kwargs, result, error):
        a = bind_brownian(args, kwargs)
        return {"normals": (len(a["grid"]) - 1) * a["d"], "streams": 1}

    def generator(args, kwargs, result, error):
        return {"streams": 1}

    def project(args, kwargs, result, error):
        if result is None:
            return None
        x = args[1] if len(args) > 1 else kwargs["x"]
        if type(x) is not np.ndarray or x.dtype != np.float64:
            x = np.asarray(x, dtype=np.float64)
        return {"pushed": int(x.tobytes() != result.tobytes())}

    def module_project(args, kwargs, result, error):
        return project((None, *args), kwargs, result, error)

    def project_batch(args, kwargs, result, error):
        points = np.asarray(args[1] if len(args) > 1 else kwargs["points"], dtype=np.float64)
        if result is None:
            return {"rows": len(points)}
        moved = np.any(result != points, axis=1) if points.ndim == 2 else result != points
        return {"rows": len(points), "pushed": int(np.count_nonzero(moved))}

    def solve_step(args, kwargs, result, error):
        w = args[0] if args else kwargs["w"]
        return {"steps": len(w.grid) - 1}

    bind_continuous = binder(reflectnd.solve_skorokhod_continuous)

    def solve_continuous(args, kwargs, result, error):
        a = bind_continuous(args, kwargs)
        n0, factor = len(a["w"].grid) - 1, a["refine_factor"]
        if result is not None:
            levels = len(result.tv_by_level)
            extra = {"refine_levels": len(result.refine_gaps), "refine_failures": 0}
        else:
            levels = a["max_levels"] + 1
            extra = {"refine_levels": 0, "refine_failures": 1}
        extra["steps"] = sum(n0 * factor**level for level in range(levels))
        return extra

    bind_euler = binder(rsde.euler_reflected)

    def euler_reflected(args, kwargs, result, error):
        return {"steps": len(bind_euler(args, kwargs)["grid"]) - 1}

    bind_batch = binder(rsde.simulate_reflected_terminal_batch)

    def terminal_batch(args, kwargs, result, error):
        a = bind_batch(args, kwargs)
        return {"steps": a["n_paths"] * (len(a["grid"]) - 1)}

    bind_strong = binder(rsde.strong_error_estimate)

    def strong_error(args, kwargs, result, error):
        a = bind_strong(args, kwargs)
        per_path = sum(round(a["T"] / dt) for dt in a["dt_levels"])
        return {"steps": a["n_paths"] * per_path}

    def written(args, kwargs, result, error):
        return {"bytes": 0 if result is None else result.stat().st_size}

    def run_artifacts(args, kwargs, result, error):
        if result is None:
            return {"bytes": 0}
        files = [result.manifest, result.summary, *result.csv_files]
        return {"bytes": sum(f.stat().st_size for f in files)}

    counters = {
        "randomness.standard_normals": standard_normals,
        "randomness.normal_matrix": normal_matrix,
        "randomness.brownian_sample": brownian_sample,
        "randomness.RngSeed.generator": generator,
        "domains.ConvexDomain.project": project,
        "domains.project": module_project,
        "domains.ConvexDomain.project_batch": project_batch,
        "reflectnd.solve_skorokhod_step": solve_step,
        "reflectnd.solve_skorokhod_continuous": solve_continuous,
        "rsde.euler_reflected": euler_reflected,
        "rsde.simulate_reflected_terminal_batch": terminal_batch,
        "rsde.strong_error_estimate": strong_error,
        "pathio.write_run_artifacts": run_artifacts,
        "pathio.write_json": written,
        "pathio.write_csv": written,
        "pathio.emit_plot_data": written,
    }
    return counters


def traced_set(run):
    """Run ``run() -> (wall, record)`` under the tracer; returns (wall, record, spans)."""
    tracer = Tracer("skorokhod_kit", make_counters())
    with tracer:
        wall, record = run()
    return wall, record, tracer.take()


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(spans, traced_wall: float, untraced_wall: float, serial_wall: float) -> dict:
    """Every per-layer metric (name -> value; units in UNITS)."""
    busy = self_times(spans)
    share = wall_shares(spans)
    layer_busy = defaultdict(float)
    layer_share = defaultdict(float)
    name_busy = defaultdict(float)
    name_calls = defaultdict(int)
    layer_calls = defaultdict(int)
    work = defaultdict(float)  # (layer, key) -> summed counter value
    pool_wall = pool_capacity = chunk_time = diagnostics = 0.0
    chunks_of = defaultdict(int)
    for s in spans:
        if s.name == "chunk":
            chunks_of[s.parent] += 1
    for s in spans:
        layer_busy[s.layer] += busy[s.id]
        layer_share[s.layer] += share[s.id]
        name_busy[s.name] += busy[s.id]
        name_calls[s.name] += 1
        layer_calls[s.layer] += 1
        for key, value in (s.extra or {}).items():
            work[s.layer, key] += value
        duration = s.end - s.start
        if s.name == "map_chunks":
            pool_wall += duration
            workers = max(1, min(s.extra["workers"], chunks_of[s.id]))
            pool_capacity += workers * duration
        elif s.name == "chunk":
            chunk_time += duration
        elif s.name == "reflectnd.nd_solution_diagnostics":
            diagnostics += duration

    normals = work["randomness", "normals"]
    project_calls = sum(name_calls[n] for n in PROJECT)
    batch_rows = work["domains", "rows"]
    nd_steps = work["reflectnd", "steps"]
    rsde_steps = work["rsde", "steps"]
    metrics = {
        "randomness.normals": normals,
        "randomness.ns_per_normal": 1e9 * _div(sum(name_busy[n] for n in NORMAL_SOURCES), normals),
        "randomness.streams": work["randomness", "streams"],
        "randomness.us_per_stream": 1e6 * _div(
            name_busy["randomness.RngSeed.generator"], name_calls["randomness.RngSeed.generator"]
        ),
        "randomness.busy_s": layer_busy["randomness"],
        "domains.project_calls": project_calls,
        "domains.us_per_project": 1e6 * _div(sum(name_busy[n] for n in PROJECT), project_calls),
        "domains.batch_rows": batch_rows,
        "domains.ns_per_batch_row": 1e9 * _div(name_busy[BATCH], batch_rows),
        "domains.push_share": _div(work["domains", "pushed"], project_calls + batch_rows),
        "domains.busy_s": layer_busy["domains"],
        "reflectnd.path_steps": nd_steps,
        "reflectnd.us_per_path_step": 1e6 * _div(
            sum(name_busy[n] for n in REFLECT_SOLVERS), nd_steps
        ),
        "reflectnd.refine_levels": work["reflectnd", "refine_levels"],
        "reflectnd.refine_failures": work["reflectnd", "refine_failures"],
        "reflectnd.diagnostics_s": diagnostics,
        "rsde.path_steps": rsde_steps,
        "rsde.ns_per_path_step": 1e9 * _div(layer_busy["rsde"], rsde_steps),
        "rsde.busy_s": layer_busy["rsde"],
        "itocalc.calls": layer_calls["itocalc"],
        "reflect1d.calls": layer_calls["reflect1d"],
        "reflect1d.busy_s": layer_busy["reflect1d"],
        "experiments.kernel_s": name_busy["chunk"],
        "experiments.pool_share": _div(pool_wall, traced_wall),
        "experiments.pool_utilization": _div(chunk_time, pool_capacity),
        "experiments.speedup_2v1": _div(serial_wall, untraced_wall),
        "stats.busy_s": layer_busy["stats"],
        "pathio.busy_s": layer_busy["pathio"],
        "pathio.bytes": work["pathio", "bytes"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_share[layer]
    metrics["trace_overhead_share"] = _div(traced_wall - untraced_wall, untraced_wall)
    metrics["trace_attributed_share"] = _div(sum(layer_share.values()), traced_wall)
    metrics["trace.spans"] = len(spans)
    return metrics


def write_spans(spans, path) -> None:
    """Spans as JSON rows [id, name, start, end, parent, thread], times from 0."""
    if not spans:
        return
    origin = spans[0].start
    threads = {}
    rows = [
        [s.id, s.name, s.start - origin, s.end - origin, s.parent,
         threads.setdefault(s.thread, len(threads))]
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
                   "rows": rows}, f, separators=(",", ":"))
