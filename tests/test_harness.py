import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skorokhod_kit
from skorokhod_kit import (
    InitialLaw,
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    skorokhod_map_1d,
    solve_skorokhod_step,
)
from skorokhod_kit import experiments
from skorokhod_kit.cli import main
from skorokhod_kit.config import ExperimentConfig
from skorokhod_kit.experiments import (
    EXPERIMENTS,
    STREAM_BLOCK,
    UsageError,
    _local_time_pass,
    default_config,
    experiment_defaults,
    run_experiment,
)
from skorokhod_kit.itocalc import local_time_occupation, local_time_tanaka
from skorokhod_kit.pathio import emit_plot_data
from skorokhod_kit.randomness import standard_normals


def small_1d_config(tmp_path, **overrides):
    params = {"n_paths": 50, "n_steps": 200}
    params.update(overrides)
    return default_config("skorokhod-1d-props", out_dir=str(tmp_path / "run"), **params)


# --- package import ---------------------------------------------------------


def test_package_import_leaves_scipy_optimize_unloaded():
    # linprog and nnls are imported where they are used, not at package import
    src = str(Path(skorokhod_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, skorokhod_kit; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"



def test_nd_diagnostics_leave_scipy_optimize_unloaded():
    # the normal-cone residual is computed in-house, without nnls
    src = str(Path(skorokhod_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from skorokhod_kit import InitialLaw, PathKind, RngSeed, TimeGrid, brownian_sample\n"
        "from skorokhod_kit import solve_skorokhod_step, unit_disc\n"
        "from skorokhod_kit.reflectnd import nd_solution_diagnostics\n"
        "grid = TimeGrid.uniform(1.0, 64)\n"
        "law = InitialLaw.point_mass([0.0, 0.0])\n"
        "w = brownian_sample(grid, 2, law, RngSeed(5)).with_kind(PathKind.STEP)\n"
        "sol = solve_skorokhod_step(w, unit_disc())\n"
        "assert sol.total_variation[0, -1] > 0.0\n"
        "diag = nd_solution_diagnostics(sol, w, unit_disc())\n"
        "print(diag['max_angular_gap'][0] <= 1e-6, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True False"

# --- emit_plot_data ---------------------------------------------------------


def test_emit_constant_path(tmp_path):
    grid = TimeGrid.uniform(1.0, 2)
    p = SampledPath.continuous(grid, np.full(3, 1.25))
    out = emit_plot_data(p, tmp_path / "const.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 4
    assert all(line.endswith("1.25") for line in lines[1:])


def test_emit_driver_reflected_pair(tmp_path):
    grid = TimeGrid.uniform(1.0, 100)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(1))
    sol = skorokhod_map_1d(B, 0.0)
    out = emit_plot_data((B, sol.g), tmp_path / "pair.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,B,Xplus"
    assert len(lines) == 102
    first_row = lines[1].split(",")
    assert len(first_row) == 3


def test_emit_nd_solution(tmp_path):
    w = SampledPath.step(
        TimeGrid(np.array([0.0, 1.0])), np.array([[0.0, 1.0], [1.0, -1.0]])
    )
    from skorokhod_kit import halfplane

    sol = solve_skorokhod_step(w, halfplane())
    out = emit_plot_data(sol, tmp_path / "nd.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,phi1,phi2,phi_tv"


def test_emit_refuses_a_batch_of_more_than_one_path(tmp_path):
    grid = TimeGrid(np.array([0.0, 1.0]))
    w = SampledPath.step(grid, np.array([[[0.0, 1.0], [1.0, -1.0]], [[0.0, 2.0], [0.5, 1.0]]]))
    from skorokhod_kit import halfplane

    sol = solve_skorokhod_step(w, halfplane())
    for payload in (w, sol):
        with pytest.raises(ValueError, match="batch of 2"):
            emit_plot_data(payload, tmp_path / "batch.csv")
    assert not (tmp_path / "batch.csv").exists()
    one = emit_plot_data(sol[1], tmp_path / "row.csv").read_text().splitlines()
    assert one[2] == "1,0.5,1,0,0,0"


def test_emit_seventeen_digit_roundtrip(tmp_path):
    grid = TimeGrid.uniform(1.0, 1)
    value = 0.1234567890123456789
    p = SampledPath.continuous(grid, np.array([value, np.pi]))
    out = emit_plot_data(p, tmp_path / "digits.csv")
    rows = out.read_text().splitlines()[1:]
    parsed = [float(r.split(",")[1]) for r in rows]
    assert parsed[0] == np.float64(value)
    assert parsed[1] == np.float64(np.pi)


def test_emit_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError):
        emit_plot_data({"not": "a path"}, tmp_path / "x.csv")


def test_emit_pair_grid_mismatch(tmp_path):
    a = SampledPath.continuous(TimeGrid.uniform(1.0, 2), np.zeros(3))
    b = SampledPath.continuous(TimeGrid.uniform(1.0, 3), np.zeros(4))
    with pytest.raises(ValueError):
        emit_plot_data((a, b), tmp_path / "x.csv")


# --- run_experiment ---------------------------------------------------------


def test_unknown_experiment_is_usage_error(tmp_path):
    with pytest.raises(UsageError):
        run_experiment(ExperimentConfig(experiment="does-not-exist", out_dir=str(tmp_path)))
    with pytest.raises(UsageError):
        default_config("does-not-exist")
    with pytest.raises(UsageError, match="unknown experiment 'does-not-exist'; choose from"):
        experiment_defaults("does-not-exist")


def test_experiment_defaults_name_the_experiment():
    for name, (_, defaults) in EXPERIMENTS.items():
        assert experiment_defaults(name) == {**defaults, "experiment": name}
        assert default_config(name) == ExperimentConfig(**experiment_defaults(name))
    # a fresh dict each call: the registry is not changed through it
    experiment_defaults("strong-error")["n_paths"] = 1
    assert experiment_defaults("strong-error")["n_paths"] == EXPERIMENTS["strong-error"][1]["n_paths"]


def test_run_writes_manifest_and_summary(tmp_path):
    config = small_1d_config(tmp_path)
    result = run_experiment(config)
    assert result.exit_code == 0
    manifest = json.loads(result.artifacts.manifest.read_text())
    summary = json.loads(result.artifacts.summary.read_text())
    assert manifest["seed"] == config.seed
    assert manifest["config"]["experiment"] == "skorokhod-1d-props"
    assert "written_at" in manifest
    assert summary["all_passed"] is True
    assert "written_at" not in summary  # summaries stay timestamp-free
    assert {c["name"] for c in summary["checks"]} >= {"decomposition_identity"}


def test_rerun_is_byte_identical(tmp_path):
    a = run_experiment(small_1d_config(tmp_path / "a"))
    b = run_experiment(small_1d_config(tmp_path / "b"))
    assert a.artifacts.summary.read_bytes() == b.artifacts.summary.read_bytes()


def test_rerun_into_the_same_directory_rewrites_each_file(tmp_path):
    # emit_paths adds CSVs; each old file is unlinked and written anew
    config = default_config(
        "rsde-consistency", n_paths=200, n_steps=100, out_dir=str(tmp_path), emit_paths=True
    )
    first = run_experiment(config)
    names = sorted(p.name for p in tmp_path.iterdir())
    before = {n: (tmp_path / n).read_bytes() for n in names if n != "manifest.json"}
    second = run_experiment(config)
    assert first.exit_code == second.exit_code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert {n: (tmp_path / n).read_bytes() for n in before} == before
    assert len(before) >= 2  # summary.json and at least one CSV


def _load_run_all():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_prints_summary_digest(tmp_path, monkeypatch, capsys):
    run_all = _load_run_all()
    name = "skorokhod-1d-props"
    monkeypatch.setattr(run_all, "EXPERIMENTS", {name: EXPERIMENTS[name]})
    monkeypatch.setattr(
        run_all, "default_config", lambda n, **kw: default_config(n, n_paths=50, n_steps=200, **kw)
    )
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--out", str(tmp_path)])
    assert run_all.main() == 0
    summary = tmp_path / name / "summary.json"
    digest = hashlib.sha256(summary.read_bytes()).hexdigest()[:16]
    assert run_all.summary_digest(summary) == digest
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(name) and line.endswith(f"sha256 {digest}")
    # the same config reruns to the same digest
    rerun = run_experiment(small_1d_config(tmp_path / "again"))
    assert run_all.summary_digest(rerun.artifacts.summary) == digest


def test_emit_paths_writes_csv(tmp_path):
    config = default_config(
        "rbm-density",
        n_paths=200,
        n_steps=200,
        out_dir=str(tmp_path / "rbm"),
        emit_paths=True,
    )
    result = run_experiment(config)
    names = {p.name for p in result.artifacts.csv_files}
    assert names == {"rbm_pair.csv"}


def test_emit_paths_writes_the_pushdown_path(tmp_path):
    config = default_config(
        "rsde-consistency",
        n_paths=200,
        n_steps=200,
        options={"route_steps": 50},
        out_dir=str(tmp_path / "rsde"),
        emit_paths=True,
    )
    result = run_experiment(config)
    (csv,) = result.artifacts.csv_files
    assert csv.name == "rsde_path.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,phi1,phi2,phi_tv"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (51, 6)
    assert np.array_equal(rows[:, 0], TimeGrid.uniform(1.0, 50).times)
    assert np.all(rows[:, 1:3] == 0.0)
    assert np.array_equal(rows[:, 4], rows[:, 0])


def test_unresolvable_domain_fails_before_running(tmp_path):
    config = small_1d_config(tmp_path).replace(domain_file="/missing.domain")
    with pytest.raises(ValueError):
        run_experiment(config)


def test_single_path_hits_estimator_precondition(tmp_path):
    config = default_config("local-time", n_paths=1, n_steps=100, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="2 samples"):
        run_experiment(config)


# --- CLI --------------------------------------------------------------------


def test_cli_unknown_experiment_exits_2(capsys):
    assert main(["no-such-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_success_and_output(tmp_path, capsys):
    code = main(["condition-checks", "--out", str(tmp_path / "cond")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert (tmp_path / "cond" / "summary.json").is_file()


def test_cli_config_file_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "experiment = skorokhod-1d-props\nn_paths = 40\nN = 100\nseed = 77\n"
        f"out = {tmp_path / 'from-config'}\n"
    )
    code = main(["skorokhod-1d-props", "--config", str(cfg), "--seed", "99"])
    assert code == 0
    manifest = json.loads((tmp_path / "from-config" / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["n_paths"] == 40


def test_cli_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = rbm-density\n")
    assert main(["local-time", "--config", str(cfg)]) == 2


def test_cli_missing_config_file(capsys):
    assert main(["local-time", "--config", "/nope.cfg"]) == 2


def test_cli_failing_check_exits_1(tmp_path, capsys):
    # a 1e-2 step makes the change-of-variables residual far too big to pass
    code = main(
        ["ito-formula", "--config", str(_write_cfg(tmp_path)), "--out", str(tmp_path / "fail")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL]" in captured.out
    assert "failed checks" in captured.err


def test_cli_non_integer_thread_cap_exits_2(tmp_path, monkeypatch, capsys):
    for env in ("x", "0", "-2", "1.5"):
        monkeypatch.setenv("SKOROKHOD_KIT_THREADS", env)
        with pytest.raises(UsageError, match=f"SKOROKHOD_KIT_THREADS .* got '{env}'"):
            experiments.worker_count()
        assert main(["skorokhod-1d-props", "--out", str(tmp_path / "bad")]) == 2
        assert "SKOROKHOD_KIT_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "summary.json").exists()


@pytest.mark.parametrize("experiment", ["skorokhod-1d-props", "strong-error", "ito-formula"])
@pytest.mark.parametrize("line,key", [("n_paths = 0", "n_paths"), ("N = 0", "N")])
def test_cli_empty_sizes_exit_2_naming_the_key(tmp_path, capsys, experiment, line, key):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"experiment = {experiment}\n{line}\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2
    assert f"config key {key} must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "empty" / "summary.json").exists()


COUNT_MESSAGE = "config key {} must be at least 1, got 0"
WHOLE_MESSAGE = "config key {} must be a whole number, got {}"
# the finest strong-error level is the reference, so one level leaves no gap
LEVELS_MESSAGE = "config key dt_levels needs at least 2 step sizes, got {}"


@pytest.mark.parametrize(
    "experiment,line,message",
    [
        ("local-time", "fine_paths = 0", COUNT_MESSAGE.format("fine_paths")),
        ("local-time", "fine_steps = 0", COUNT_MESSAGE.format("fine_steps")),
        ("nd-skorokhod-props", "refine_drivers = 0", COUNT_MESSAGE.format("refine_drivers")),
        ("nd-skorokhod-props", "refine_n0 = 0", COUNT_MESSAGE.format("refine_n0")),
        ("rsde-consistency", "route_steps = 0", COUNT_MESSAGE.format("route_steps")),
        ("strong-error", "dt_levels = (0.5)", LEVELS_MESSAGE.format(1)),
        ("strong-error", "dt_levels = 0.5", LEVELS_MESSAGE.format(1)),
        ("strong-error", "dt_levels = ()", LEVELS_MESSAGE.format(0)),
        # counts and seeds are whole numbers, never truncated
        ("local-time", "n_paths = 2.5", WHOLE_MESSAGE.format("n_paths", 2.5)),
        ("local-time", "N = true", WHOLE_MESSAGE.format("N", True)),
        ("local-time", "seed = 3.7", WHOLE_MESSAGE.format("seed", 3.7)),
        ("local-time", "fine_paths = 0.5", WHOLE_MESSAGE.format("fine_paths", 0.5)),
        ("nd-skorokhod-props", "refine_n0 = yes", WHOLE_MESSAGE.format("refine_n0", True)),
        ("rsde-consistency", "route_steps = many", WHOLE_MESSAGE.format("route_steps", "'many'")),
    ],
)
def test_cli_unusable_options_exit_2_naming_the_key(tmp_path, capsys, experiment, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\nn_paths = 20\nN = 16\n{line}\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad" / "summary.json").exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        (["dimension = 2.7"], WHOLE_MESSAGE.format("dimension", 2.7)),
        (["dimension = true"], WHOLE_MESSAGE.format("dimension", True)),
        (["dimension = 2", "halfspace = {normal = (nan, 1), offset = 0}"], "normals must be finite"),
    ],
)
def test_cli_unusable_domain_file_exits_2(tmp_path, capsys, lines, message):
    domain_file = tmp_path / "bad.domain"
    body = lines + ["halfspace = {normal = (0, 1), offset = 0}", "interior_point = (0, 1)"]
    domain_file.write_text("\n".join(body) + "\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = condition-checks\ndomain_file = {domain_file}\n")
    out = tmp_path / "out"
    assert main(["condition-checks", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def _write_cfg(tmp_path):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("experiment = ito-formula\nn_paths = 10\nN = 100\n")
    return cfg


def test_emit_1d_solution(tmp_path):
    grid = TimeGrid.uniform(1.0, 20)
    B = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(2))
    sol = skorokhod_map_1d(B, 0.0)
    out = emit_plot_data(sol, tmp_path / "sol.csv")
    assert out.read_text().splitlines()[0] == "t,g,h"


def test_domain_file_drives_condition_checks(tmp_path):
    domain_file = tmp_path / "quarter.domain"
    domain_file.write_text(
        "dimension = 2\n"
        "halfspace = {normal = (1, 0), offset = 0}\n"
        "halfspace = {normal = (0, 1), offset = 0}\n"
        "interior_point = (1, 1)\n"
    )
    config = default_config(
        "condition-checks", out_dir=str(tmp_path / "out"), domain_file=str(domain_file)
    )
    result = run_experiment(config)
    cfg_report = result.summary["configured_domain"]
    assert cfg_report["condition_a"]["status"] == "holds"
    assert cfg_report["condition_a"]["c"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
    assert cfg_report["condition_b"]["status"] == "holds"


def test_domain_file_drives_nd_props(tmp_path):
    domain_file = tmp_path / "halfplane.domain"
    domain_file.write_text(
        "dimension = 2\n"
        "halfspace = {normal = (0, 1), offset = 0}\n"
        "interior_point = (0, 1)\n"
    )
    config = default_config(
        "nd-skorokhod-props",
        n_paths=5,
        n_steps=32,
        out_dir=str(tmp_path / "out"),
        domain_file=str(domain_file),
        options={"refine_drivers": 2, "refine_n0": 32},
    )
    result = run_experiment(config)
    assert result.exit_code == 0
    assert "configured_domain" in result.summary


def test_coefficient_preset_flows_into_contract_check(tmp_path):
    config = default_config(
        "rsde-consistency",
        n_paths=100,
        n_steps=100,
        coefficients="sin-diffusion",
        out_dir=str(tmp_path / "sin"),
        options={"route_steps": 50},
    )
    result = run_experiment(config)
    assert result.summary["contract_accept"]["name"] == "sin-diffusion"
    assert result.summary["contract_accept"]["passed"] is True


def test_thread_cap_env_and_determinism(tmp_path, monkeypatch):
    from skorokhod_kit.experiments import worker_count

    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "1")
    assert worker_count() == 1
    single = run_experiment(small_1d_config(tmp_path / "w1", n_paths=600))
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "3")
    assert worker_count() == 3
    multi = run_experiment(small_1d_config(tmp_path / "w3", n_paths=600))
    assert single.artifacts.summary.read_bytes() == multi.artifacts.summary.read_bytes()

    # local-time at a size where both of its passes span several chunks
    def local_time(out):
        return run_experiment(
            default_config(
                "local-time",
                n_paths=600,
                n_steps=500,
                out_dir=str(out),
                options={"fine_steps": 5000, "fine_paths": 60},
            )
        ).artifacts.summary.read_bytes()

    many = local_time(tmp_path / "lt3")
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "1")
    assert local_time(tmp_path / "lt1") == many


def test_ito_isometry_summary_independent_of_workers(tmp_path, monkeypatch):
    # ito-isometry, 2100 paths: three pool chunks of 1024 paths, the last one
    # short, and a short last block of 64 paths within it. ito-formula, 70
    # paths: row chunks of 65 paths on the 2000-step grid and of 16 on the
    # 8000-step one, each with a short last chunk
    def summary(name, n_paths, n_steps, workers):
        monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
        config = default_config(
            name, n_paths=n_paths, n_steps=n_steps, out_dir=str(tmp_path / name / workers)
        )
        return run_experiment(config).artifacts.summary.read_bytes()

    for case in (("ito-isometry", 2100, 50), ("ito-formula", 70, 2000)):
        assert summary(*case, "1") == summary(*case, "3")


# --- 1-d chunk kernels ------------------------------------------------------

LT_EPS = [0.08, 0.01]


def _local_time_oracle(seed, first_stream, n_paths, grid, level, eps_list):
    """Per-path reference for _local_time_pass: one 1-D stream draw per path.

    The Tanaka sum runs over the path's own increments, np.diff of its values.
    """
    occ = np.empty((len(eps_list), n_paths))
    tan = np.empty(n_paths)
    for i in range(n_paths):
        z = standard_normals(RngSeed(seed, first_stream + i).generator(), len(grid) - 1)
        dB = z * np.sqrt(grid.deltas)
        x = np.concatenate(([0.0], np.cumsum(dB)))
        left = x[:-1]
        for j, eps in enumerate(eps_list):
            inside = np.abs(left - level) < eps
            occ[j, i] = np.where(inside, grid.deltas, 0.0).sum() / (4.0 * eps)
        crossing = np.sum((left > level) * np.diff(x))
        tan[i] = max(x[-1] - level, 0.0) - max(x[0] - level, 0.0) - crossing
    return occ, tan


@pytest.mark.parametrize("workers, rows", [("1", None), ("3", None), ("2", 7)])
def test_local_time_pass_matches_per_path_oracle(monkeypatch, workers, rows):
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    if rows is not None:
        monkeypatch.setattr(experiments, "_row_chunk", lambda n_cols: rows)
    grid = TimeGrid.uniform(1.0, 5000)  # 26 rows per chunk: 60 paths make 3 chunks
    occ, tan = _local_time_pass(5, STREAM_BLOCK, 60, grid, 0.1, LT_EPS)
    ref_occ, ref_tan = _local_time_oracle(5, STREAM_BLOCK, 60, grid, 0.1, LT_EPS)
    assert np.array_equal(np.array(occ), ref_occ)
    assert np.array_equal(tan, ref_tan)


@pytest.mark.parametrize("n_steps", [200, 5000, 20_000])
def test_local_time_pass_rows_equal_library_occupation(n_steps):
    grid = TimeGrid.uniform(1.0, n_steps)
    occ, _ = _local_time_pass(3, 0, 8, grid, 0.0, LT_EPS)
    law = InitialLaw.point_mass(0.0)
    for i in range(8):
        B = brownian_sample(grid, 1, law, RngSeed(3, i))
        for j, eps in enumerate(LT_EPS):
            assert occ[j][i] == local_time_occupation(B, 0.0, eps).value


@pytest.mark.parametrize("level", [0.0, 0.1, -0.3])
def test_local_time_pass_rows_match_per_path_estimators(level):
    # the batch kernel against the per-path library estimators, at the 1e-10
    # tolerance of the former in-experiment check; a level below the start
    # needs Tanaka's -(X_0 - a)^+ term
    grid = TimeGrid.uniform(1.0, 2000)
    eps = 0.01
    (occ,), tan = _local_time_pass(5, 0, 6, grid, level, [eps])
    law = InitialLaw.point_mass(0.0)
    for i in range(6):
        B = brownian_sample(grid, 1, law, RngSeed(5, i))
        assert abs(occ[i] - local_time_occupation(B, level, eps).value) <= 1e-10
        assert abs(tan[i] - local_time_tanaka(B, level).value) <= 1e-10


def test_local_time_means_at_a_negative_level(tmp_path):
    # both estimators center on E(B_T - a)^+ - (-a)^+, not on 1/sqrt(2 pi)
    config = default_config(
        "local-time",
        n_paths=2000,
        n_steps=2000,
        out_dir=str(tmp_path / "run"),
        options={"level": -0.3, "fine_steps": 400, "fine_paths": 20},
    )
    result = run_experiment(config)
    verdicts = {c.name: c.passed for c in result.checks}
    assert verdicts["occupation_within_3se"]
    assert verdicts["tanaka_within_3se"]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_rbm_terminals_equal_library_map(monkeypatch, workers):
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    config = default_config("rbm-density", n_paths=60, n_steps=5000)
    terminals = experiments._rbm_terminals(config, block=0)
    grid = TimeGrid.uniform(config.horizon, config.n_steps)
    law = InitialLaw.point_mass(0.0)
    paths = [brownian_sample(grid, 1, law, RngSeed(config.seed, i)) for i in range(60)]
    expected = [skorokhod_map_1d(B, 0.0).g.scalar_values[-1] for B in paths]
    assert np.array_equal(terminals, expected)


def test_local_time_pass_independent_of_blas_threads():
    # a BLAS product would split its long reduction across BLAS threads
    src = str(Path(skorokhod_kit.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np\n"
        "from skorokhod_kit import TimeGrid\n"
        "from skorokhod_kit.experiments import _local_time_pass\n"
        "grid = TimeGrid.uniform(1.0, 100_000)\n"
        "occ, tan = _local_time_pass(5, 0, 20, grid, 0.0, [0.08, 0.01])\n"
        "sys.stdout.write(np.concatenate(occ + [tan]).tobytes().hex())\n"
    )
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=src,
            OPENBLAS_NUM_THREADS=blas_threads,
            SKOROKHOD_KIT_THREADS="2",
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout)
    assert len(outputs[0]) == 2 * 8 * 3 * 20
    assert outputs[0] == outputs[1]


def test_isometry_samples_independent_of_blas_threads():
    # OpenBLAS splits a dot product of more than about 10,000 terms across
    # its threads, which changes the sum's bits; the isometry sums call no BLAS
    src = str(Path(skorokhod_kit.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np\n"
        "from skorokhod_kit import Integrand, RngSeed, ito_isometry_samples\n"
        "f = Integrand.of_state(lambda t, x: x)\n"
        "lhs, rhs = ito_isometry_samples(f, 1.0, 8, RngSeed(3), n_steps=50_000)\n"
        "sys.stdout.write(np.concatenate([lhs, rhs]).tobytes().hex())\n"
    )
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas_threads)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout)
    assert len(outputs[0]) == 2 * 8 * 2 * 8
    assert outputs[0] == outputs[1]


def test_all_experiments_registered():
    assert set(EXPERIMENTS) == {
        "skorokhod-1d-props",
        "rbm-density",
        "ito-isometry",
        "ito-formula",
        "local-time",
        "nd-skorokhod-props",
        "rsde-consistency",
        "condition-checks",
        "strong-error",
    }
