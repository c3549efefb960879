"""CSV and JSON artifact writers.

Paths go to CSV with a header row and 17 significant digits, summaries to
JSON with sorted keys. Summaries carry no timestamps so a rerun with the
same config is byte-identical; the manifest records the clock instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .paths import SampledPath
from .reflectnd import SkorokhodNdSolution


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(out, text: str) -> Path:
    """Write ``text`` to a new file at ``out``, unlinking any old one first.

    A rerun into the same directory then creates each file afresh: ext4
    forces out the blocks of a file truncated to zero and rewritten
    (auto_da_alloc), and back-to-back reruns stalled tens of milliseconds per
    file on it, against microseconds for a new file.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    out.write_text(text)
    return out


def write_csv(out, header: list[str], columns: list[np.ndarray]) -> Path:
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt(c[i]) for c in columns))
    return _write_text(out, "\n".join(lines) + "\n")


def _one_path(n_paths: int) -> None:
    if n_paths != 1:
        raise ValueError(f"a CSV holds one path, got a batch of {n_paths}")


def emit_plot_data(path_like, out) -> Path:
    """Write a path-like object as a CSV file and return the path written.

    Accepts a SampledPath (t plus one column per coordinate), a
    (driver, reflected) pair of scalar paths (t, B, Xplus), or an n-d
    solution, projected-Euler paths included (t, state, pushing term, its
    total variation). Batched paths and solutions must hold one path; a
    larger batch is a ValueError.
    """
    if isinstance(path_like, SampledPath):
        _one_path(path_like.n_paths)
        t = path_like.grid.times
        d = path_like.dim
        header = ["t"] + ([f"x{i + 1}" for i in range(d)] if d > 1 else ["x"])
        columns = [t] + [path_like.values[0, :, i] for i in range(d)]
        return write_csv(out, header, columns)
    if isinstance(path_like, tuple) and len(path_like) == 2:
        driver, reflected = path_like
        if not driver.grid.same_as(reflected.grid):
            raise ValueError("pair members must share a grid")
        return write_csv(
            out,
            ["t", "B", "Xplus"],
            [driver.grid.times, driver.scalar_values, reflected.scalar_values],
        )
    if isinstance(path_like, SkorokhodNdSolution):
        _one_path(path_like.X.n_paths)
        d = path_like.X.dim
        header = ["t", *(f"x{i + 1}" for i in range(d)), *(f"phi{i + 1}" for i in range(d))]
        X, phi = path_like.X.values[0], path_like.phi.values[0]
        columns = [path_like.X.grid.times, *X.T, *phi.T, path_like.total_variation[0]]
        return write_csv(out, header + ["phi_tv"], columns)
    raise TypeError(f"cannot serialize {type(path_like).__name__}")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(out, payload: dict) -> Path:
    return _write_text(out, json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    manifest: Path
    summary: Path
    csv_files: tuple


def write_run_artifacts(out_dir, config_dict: dict, summary: dict, csv_payloads: dict) -> RunArtifacts:
    """Write manifest.json, summary.json, and any path CSVs for one run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = write_json(
        out_dir / "manifest.json",
        {
            "config": config_dict,
            "library_version": __version__,
            "seed": config_dict.get("seed"),
            "written_at": datetime.now(timezone.utc).isoformat(),
        },
    )
    summary_path = write_json(out_dir / "summary.json", summary)
    csv_files = []
    for name, payload in csv_payloads.items():
        csv_files.append(emit_plot_data(payload, out_dir / f"{name}.csv"))
    return RunArtifacts(
        out_dir=out_dir,
        manifest=manifest,
        summary=summary_path,
        csv_files=tuple(csv_files),
    )
