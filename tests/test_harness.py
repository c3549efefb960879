import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import skorokhod_kit
from skorokhod_kit import (
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    skorokhod_map_1d_batch,
    solve_skorokhod_step,
)
from skorokhod_kit import experiments, randomness
from skorokhod_kit.cli import main
from skorokhod_kit.config import ExperimentConfig, parse_kv_file
from skorokhod_kit.experiments import (
    EXPERIMENTS,
    GATES,
    STREAM_BLOCK,
    Stat,
    Tol,
    UsageError,
    _local_time_pass,
    default_config,
    experiment_defaults,
    run_experiment,
)
from skorokhod_kit.itocalc import local_time_occupation_batch, local_time_tanaka_batch
from skorokhod_kit.pathio import emit_plot_data
from skorokhod_kit.randomness import normal_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_1d_config(tmp_path, **overrides):
    params = {"n_paths": 50, "n_steps": 200}
    params.update(overrides)
    return default_config("skorokhod-1d-props", out_dir=str(tmp_path / "run"), **params)


# --- package import ---------------------------------------------------------


def run_fresh(code, **env):
    """Run code in a fresh interpreter with this package on its path; return its stdout."""
    src = str(Path(skorokhod_kit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


# the library's ndtr and ndtri are scipy.special's own objects, whichever
# route loaded them
SAME_UFUNCS = (
    "import scipy.special, scipy.stats\n"
    "from skorokhod_kit import itocalc, randomness, stats\n"
    "assert scipy.special.ndtri is randomness.ndtri\n"
    "assert scipy.special.ndtr is stats.ndtr is itocalc.ndtr\n"
    "print('same')\n"
)


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is slow to import, and no module of the package uses it;
    # nor is scipy.special's init run for the two ufuncs the package takes
    code = (
        "import sys, scipy, skorokhod_kit\n"
        "heavy = [k for k in sys.modules if k == 'scipy.optimize'\n"
        "         or k == 'scipy.special' or k.startswith('scipy.special.')]\n"
        "print(heavy, 'special' in vars(scipy))\n"
    )
    assert run_fresh(code + SAME_UFUNCS) == "[] False\nsame\n"


def test_ufuncs_fall_back_to_the_plain_import_when_the_light_route_fails():
    # a finder refuses scipy.special._ufuncs while the stand-in package is
    # in place, as a scipy with another layout would
    code = (
        "import sys\n"
        "class Refuse:\n"
        "    hits = 0\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        parent = sys.modules.get('scipy.special')\n"
        "        if name == 'scipy.special._ufuncs' and not hasattr(parent, '__file__'):\n"
        "            Refuse.hits += 1\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "import skorokhod_kit\n"
        "print(Refuse.hits, sys.modules['scipy.special'].__file__.endswith('__init__.py'))\n"
    )
    assert run_fresh(code + SAME_UFUNCS) == "1 True\nsame\n"


def test_ufuncs_come_from_an_already_imported_scipy_special():
    # the plain import then loads nothing more of scipy
    code = (
        "import sys, scipy.special\n"
        "before = set(sys.modules)\n"
        "import skorokhod_kit\n"
        "print(sorted(k for k in set(sys.modules) - before if k.startswith('scipy')))\n"
    )
    assert run_fresh(code + SAME_UFUNCS) == "[]\nsame\n"


def test_every_exported_name_resolves():
    missing = [name for name in skorokhod_kit.__all__ if not hasattr(skorokhod_kit, name)]
    assert not missing
    assert len(set(skorokhod_kit.__all__)) == len(skorokhod_kit.__all__)


def test_nd_diagnostics_leave_scipy_optimize_unloaded():
    # the normal-cone residual and condition B's boundedness are computed
    # in-house, without nnls or linprog
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from skorokhod_kit import ConvexDomain, PathKind, RngSeed, TimeGrid\n"
        "from skorokhod_kit import brownian_sample, check_condition_b, orthant\n"
        "from skorokhod_kit import solve_skorokhod_step, unit_disc\n"
        "from skorokhod_kit.reflectnd import nd_solution_diagnostics\n"
        "grid = TimeGrid.uniform(1.0, 64)\n"
        "w = brownian_sample(grid, 2, [0.0, 0.0], RngSeed(5)).with_kind(PathKind.STEP)\n"
        "sol = solve_skorokhod_step(w, unit_disc())\n"
        "assert sol.total_variation[0, -1] > 0.0\n"
        "diag = nd_solution_diagnostics(sol, w, unit_disc())\n"
        "assert check_condition_b(orthant(3)).status == 'unknown'\n"
        "simplex = ConvexDomain(3, normals=np.vstack([np.eye(3), -np.ones((1, 3)) / 3 ** 0.5]),\n"
        "                       offsets=[0, 0, 0, -(3 ** -0.5)], interior_point=[0.25] * 3)\n"
        "assert check_condition_b(simplex).status == 'holds'\n"
        "print(diag['max_angular_gap'][0] <= 1e-6, 'scipy.optimize' in sys.modules)\n"
    )
    assert run_fresh(code).strip() == "True False"


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
    B = brownian_sample(grid, 1, 0.0, RngSeed(1))
    g, _ = skorokhod_map_1d_batch(B.values[..., 0])
    out = emit_plot_data((B, SampledPath.continuous(grid, g[0])), tmp_path / "pair.csv")
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


def _load_script(name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_prints_summary_digest(tmp_path, monkeypatch, capsys):
    run_all = _load_script("run_all_experiments")
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


def test_run_all_names_each_digest_that_differs_from_the_expected_file(tmp_path, monkeypatch, capsys):
    run_all = _load_script("run_all_experiments")
    expected = {"a": "0123456789abcdef", "b": "fedcba9876543210", "c": "00000000000000ff"}
    assert run_all.digest_mismatches(dict(expected), expected) == []
    got = {"a": "0123456789abcdef", "b": "1111111111111111", "d": "2222222222222222"}
    assert run_all.digest_mismatches(got, expected) == [
        "b: sha256 1111111111111111, expected fedcba9876543210",
        "c: sha256 not run, expected 00000000000000ff",
        "d: sha256 2222222222222222, expected none",
    ]
    listing = tmp_path / "digests.txt"
    listing.write_text("# header\n\na 0123456789abcdef  # trailing note\nb fedcba9876543210\n")
    assert run_all.read_digests(listing) == {"a": "0123456789abcdef", "b": "fedcba9876543210"}
    listing.write_text("a 0123456789abcdef extra\n")
    with pytest.raises(ValueError, match="expected 'experiment digest'"):
        run_all.read_digests(listing)
    # the committed file lists every experiment; main fails naming each one it did not match
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "default_digests.txt"
    assert sorted(run_all.read_digests(shipped)) == sorted(EXPERIMENTS)
    monkeypatch.setattr(run_all, "EXPERIMENTS", {})
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--expect", str(shipped)])
    assert run_all.main() == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1].strip() for line in err] == sorted(EXPERIMENTS)


@pytest.mark.parametrize(
    "name",
    ["skorokhod-1d-props", "rbm-density", "local-time", "ito-isometry", "ito-formula",
     "nd-skorokhod-props", "rsde-consistency"],
)
def test_normal_blocks_kernels_keep_their_default_digests(name, tmp_path):
    # at their default configs, against the committed digests: the kernels that
    # draw their paths through randomness.brownian_path_blocks, ito-formula,
    # whose row chunks take normal_blocks' rows per block, and the two
    # experiments that build n-d solutions, whose pushing record is derived from phi
    run_all = _load_script("run_all_experiments")
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "default_digests.txt"
    result = run_experiment(default_config(name, out_dir=str(tmp_path)))
    assert run_all.summary_digest(result.artifacts.summary) == run_all.read_digests(shipped)[name]


def test_figure_script_writes_both_csvs(tmp_path, monkeypatch):
    figure = _load_script("figure_brownian_reflection")
    argv = ["figure_brownian_reflection.py", "--steps", "64", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert figure.main() == 0
    pair = np.loadtxt(tmp_path / "brownian_reflection.csv", delimiter=",", skiprows=1)
    disc = (tmp_path / "disc_reflection.csv").read_text().splitlines()
    assert (tmp_path / "brownian_reflection.csv").read_text().startswith("t,B,Xplus\n")
    assert disc[0] == "t,x1,x2,phi1,phi2,phi_tv" and len(disc) == 66
    # 17 significant digits round-trip, so Xplus is the batch map of B exactly
    assert pair.shape == (65, 3)
    g, _ = skorokhod_map_1d_batch(pair[None, :, 1])
    assert np.array_equal(pair[:, 2], g[0]) and np.any(pair[:, 2] != pair[:, 1])


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
    config = default_config("condition-checks", out_dir=str(tmp_path / "run"), domain_file="/missing.domain")
    with pytest.raises(ValueError, match="domain file not found"):
        run_experiment(config)
    assert not (tmp_path / "run" / "summary.json").exists()


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
STEP_MESSAGE = "dt_levels needs step sizes in (0, T] with T = 1.0, got {}"
NUMBER_MESSAGE = "config key {} must be a number, got {}"
FINITE_MESSAGE = "config key {} must be finite, got {}"
UNREAD_MESSAGE = "config key {} is not read by {}; its option and tol_ keys are: {}"
ND_KEYS = "tol_refine, refine_n0, refine_drivers"
FIELD_MESSAGE = "config key {} is not read by {}, only by {}"
ND_READERS = "nd-skorokhod-props and condition-checks"


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
        ("strong-error", "dt_levels = (0.25, 0.25)", "dt=0.25 is repeated in dt_levels"),
        # every step size lies in (0, T], and a value that is no number is named
        ("strong-error", "dt_levels = (0.5, 0.25, 0)", STEP_MESSAGE.format(0.0)),
        ("strong-error", "dt_levels = (0.5, nan)", STEP_MESSAGE.format("nan")),
        ("strong-error", "dt_levels = (0.5, -0.25)", STEP_MESSAGE.format(-0.25)),
        ("strong-error", "dt_levels = abc", NUMBER_MESSAGE.format("dt_levels", "'abc'")),
        ("strong-error", "dt_levels = yes", NUMBER_MESSAGE.format("dt_levels", True)),
        ("strong-error", "dt_levels = (0.5, abc)",
         "line 4: key dt_levels: could not convert string to float: ' abc'"),
        # real-valued options name their key
        ("local-time", "eps = abc", NUMBER_MESSAGE.format("eps", "'abc'")),
        ("local-time", "level = abc", NUMBER_MESSAGE.format("level", "'abc'")),
        ("local-time", "fine_eps = (0.1, 0.2)", NUMBER_MESSAGE.format("fine_eps", "(0.1, 0.2)")),
        ("local-time", "T = yes", NUMBER_MESSAGE.format("T", True)),
        ("local-time", "tol_x = abc", NUMBER_MESSAGE.format("tol_x", "'abc'")),
        # and reject nan and inf; the horizon is positive
        ("local-time", "level = nan", FINITE_MESSAGE.format("level", "nan")),
        ("local-time", "eps = inf", FINITE_MESSAGE.format("eps", "inf")),
        ("local-time", "fine_eps = -inf", FINITE_MESSAGE.format("fine_eps", "-inf")),
        ("local-time", "T = nan", FINITE_MESSAGE.format("T", "nan")),
        ("local-time", "T = inf", FINITE_MESSAGE.format("T", "inf")),
        ("local-time", "T = -1", "config key T must be positive, got -1.0"),
        ("local-time", "T = 0", "config key T must be positive, got 0.0"),
        # so are the bandwidths, and a refinement tolerance that could never be met
        ("local-time", "eps = 0", "config key eps must be positive, got 0.0"),
        ("local-time", "eps = -0.1", "config key eps must be positive, got -0.1"),
        ("local-time", "fine_eps = 0", "config key fine_eps must be positive, got 0.0"),
        ("nd-skorokhod-props", "tol_refine = 0", "config key tol_refine must be positive, got 0.0"),
        ("rsde-consistency", "tol_refine = 0", "config key tol_refine must be positive, got 0.0"),
        # a tolerance is finite and at least 0, so no gate is poisoned or switched off
        ("skorokhod-1d-props", "tol_decomposition = nan",
         FINITE_MESSAGE.format("tol_decomposition", "nan")),
        ("nd-skorokhod-props", "tol_refine = inf", FINITE_MESSAGE.format("tol_refine", "inf")),
        ("nd-skorokhod-props", "tol_refine = -0.1",
         "config key tol_refine must be at least 0, got -0.1"),
        # a key the experiment does not read is a usage error, not a default run
        ("nd-skorokhod-props", "refine_drivrs = 2",
         UNREAD_MESSAGE.format("refine_drivrs", "nd-skorokhod-props", ND_KEYS)),
        ("nd-skorokhod-props", "tol_refin = 5",
         UNREAD_MESSAGE.format("tol_refin", "nd-skorokhod-props", ND_KEYS)),
        ("ito-formula", "eps = 0.1", UNREAD_MESSAGE.format("eps", "ito-formula", "none")),
        # so is a domain or coefficient preset given to an experiment that ignores it
        ("condition-checks", "coefficients = sin-diffusion",
         FIELD_MESSAGE.format("coefficients", "condition-checks", "rsde-consistency")),
        ("nd-skorokhod-props", "coefficients = unit-diffusion",
         FIELD_MESSAGE.format("coefficients", "nd-skorokhod-props", "rsde-consistency")),
        ("rsde-consistency", "domain = unit-disc",
         FIELD_MESSAGE.format("domain", "rsde-consistency", ND_READERS)),
        ("strong-error", "domain_file = configs/domains/quarter-plane.domain",
         FIELD_MESSAGE.format("domain_file", "strong-error", ND_READERS)),
        ("skorokhod-1d-props", "domain = orthant2",
         FIELD_MESSAGE.format("domain", "skorokhod-1d-props", ND_READERS)),
        # counts and seeds are whole numbers, never truncated
        ("local-time", "n_paths = 2.5", WHOLE_MESSAGE.format("n_paths", 2.5)),
        ("local-time", "N = true", WHOLE_MESSAGE.format("N", True)),
        ("local-time", "seed = 3.7", WHOLE_MESSAGE.format("seed", 3.7)),
        ("local-time", "fine_paths = 0.5", WHOLE_MESSAGE.format("fine_paths", 0.5)),
        ("nd-skorokhod-props", "refine_n0 = yes", WHOLE_MESSAGE.format("refine_n0", True)),
        ("rsde-consistency", "route_steps = many", WHOLE_MESSAGE.format("route_steps", "'many'")),
        # a preset without parameters rejects them, one with parameters rejects
        # non-finite ones; alpha has a tabulated critical value
        ("rsde-consistency", "coefficients = unit-diffusion(5)", "unit-diffusion takes no arguments"),
        ("rsde-consistency", "coefficients = linear-drift(nan)", "'nan' is not finite"),
        ("rbm-density", "alpha = 0.02", "config key alpha must be one of [0.01, 0.05], got 0.02"),
    ],
)
def test_cli_unusable_options_exit_2_naming_the_key(tmp_path, capsys, experiment, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\nn_paths = 20\nN = 16\n{line}\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad" / "summary.json").exists()


@pytest.mark.parametrize("cfg", sorted(CONFIGS.glob("*.cfg")), ids=lambda cfg: cfg.stem)
def test_shipped_configs_use_only_keys_their_experiment_reads(cfg):
    config = ExperimentConfig.from_mapping(parse_kv_file(cfg))
    given = {*config.options, *(f"tol_{name}" for name in config.tolerances)}
    assert given <= set(experiments.READ_KEYS.get(config.experiment, ()))


@pytest.mark.parametrize(
    "lines, message",
    [
        (["dimension = 2.7"], WHOLE_MESSAGE.format("dimension", 2.7)),
        (["dimension = true"], WHOLE_MESSAGE.format("dimension", True)),
        (["dimension = 2", "halfspace = {normal = (nan, 1), offset = 0}"], "normals must be finite"),
        (["dimension = 0"], "config key dimension must be at least 1, got 0"),
        # a group value that does not parse names the group kind, the key and the value
        (["dimension = 2", "halfspace = {normal = (0, 1), offset = abc}"],
         "domain file halfspace offset must be a number, got 'abc'"),
        (["dimension = 2", "halfspace = {normal = (0, 1, 2), offset = 0}"],
         "domain file halfspace normal must be a tuple of 2 numbers, got (0.0, 1.0, 2.0)"),
        (["dimension = 2", "ball = {center = (0, 0), radius = (1, 2)}"],
         "domain file ball radius must be a number, got (1.0, 2.0)"),
        (["dimension = 2", "ball = {center = origin, radius = 1}"],
         "domain file ball center must be a tuple of 2 numbers, got 'origin'"),
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


DOMAIN_FILES = sorted((Path(__file__).resolve().parents[1] / "configs" / "domains").glob("*.domain"))


@pytest.mark.parametrize("domain_file", DOMAIN_FILES, ids=[f.stem for f in DOMAIN_FILES])
@pytest.mark.parametrize("experiment", ["nd-skorokhod-props", "condition-checks"])
def test_shipped_domain_files_pass_every_check(tmp_path, experiment, domain_file):
    sizes = {"n_paths": 40, "options": {"refine_drivers": 2}} if experiment == "nd-skorokhod-props" else {}
    config = default_config(experiment, out_dir=str(tmp_path / "out"), domain_file=str(domain_file), **sizes)
    result = run_experiment(config)
    assert "configured_domain" in result.summary
    failed = [c["name"] for c in result.summary["checks"] if not c["passed"]]
    assert not failed and result.exit_code == 0


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
    # ito-isometry, 2100 paths: 33 blocks of 64 paths, the last one short,
    # filled on the calling thread and finished on the pool's threads in any
    # order (two helpers at 3 workers). ito-formula, 70
    # paths: row chunks of 64 paths on the 2000-step grid and of 16 on the
    # 8000-step one, each with a short last chunk, run by map_chunks on the
    # calling thread and two helpers. skorokhod-1d-props and rbm-density, 60
    # paths of 5000 steps: normal_blocks blocks of 26, 26 and 8 rows, whose
    # running sums and minima run one row per call on the pool's threads.
    # rsde-consistency, 150 paths: three 64-path draw blocks per tile (the
    # last one short), filled on the calling thread and finished by two
    # helpers at 3 workers. strong-error steps its levels on the same tiles:
    # one of 512 fine steps at 150 paths, and tiles of 224, 224 and 64 at
    # 1100 paths, each a whole number of the coarsest level's steps of 16
    def summary(name, n_paths, n_steps, workers):
        monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
        config = default_config(
            name, n_paths=n_paths, n_steps=n_steps, out_dir=str(tmp_path / name / workers)
        )
        return run_experiment(config).artifacts.summary.read_bytes()

    for case in (
        ("ito-isometry", 2100, 50),
        ("ito-formula", 70, 2000),
        ("skorokhod-1d-props", 60, 5000),
        ("rbm-density", 60, 5000),
        ("rsde-consistency", 150, 50),
        ("strong-error", 150, 50),
        ("strong-error", 1100, 50),
    ):
        assert summary(*case, "1") == summary(*case, "3")


def test_ito_formula_summary_independent_of_its_chunk_rows(tmp_path, monkeypatch):
    # 70 paths: 2 chunks on the 2000-step grid and 5 on the 8000-step one by
    # default, 10 on each when forced to 7 rows; residuals are per row
    def summary(out):
        config = default_config("ito-formula", n_paths=70, n_steps=2000, out_dir=str(out))
        return run_experiment(config).artifacts.summary.read_bytes()

    default = summary(tmp_path / "default")
    widths = []
    monkeypatch.setattr(experiments, "_block_rows", lambda n_cols: widths.append(n_cols) or 7)
    assert summary(tmp_path / "seven") == default
    assert widths == [2001, 8001]


# --- 1-d chunk kernels ------------------------------------------------------

LT_EPS = [0.08, 0.01]


def _local_time_oracle(seed, first_stream, n_paths, grid, level, eps_list):
    """Per-path reference for _local_time_pass: one 1-D stream draw per path.

    The Tanaka sum runs over the path's own increments, np.diff of its values.
    """
    occ = np.empty((len(eps_list), n_paths))
    tan = np.empty(n_paths)
    for i in range(n_paths):
        z = normal_matrix(RngSeed(seed, first_stream + i), 1, len(grid) - 1)[0]
        dB = z * np.sqrt(grid.deltas)
        x = np.concatenate(([0.0], np.cumsum(dB)))
        left = x[:-1]
        for j, eps in enumerate(eps_list):
            inside = np.abs(left - level) < eps
            occ[j, i] = np.where(inside, grid.deltas, 0.0).sum() / (4.0 * eps)
        crossing = np.sum((left > level) * np.diff(x))
        tan[i] = max(x[-1] - level, 0.0) - max(x[0] - level, 0.0) - crossing
    return occ, tan


# worker count, and rows per normal_blocks block: None keeps the 1 MiB rule
# (26 rows on a 5000-step grid, so 60 paths make blocks of 26, 26 and 8); 7
# makes eight blocks of 7 and a short one of 4
BLOCK_LAYOUTS = [("1", None), ("2", None), ("3", None), ("2", 7)]


def _set_layout(monkeypatch, workers, rows):
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    if rows is not None:
        monkeypatch.setattr(randomness, "_block_rows", lambda n_cols: rows)


@pytest.mark.parametrize("workers, rows", BLOCK_LAYOUTS)
def test_local_time_pass_matches_per_path_oracle(monkeypatch, workers, rows):
    _set_layout(monkeypatch, workers, rows)
    grid = TimeGrid.uniform(1.0, 5000)
    occ, tan = _local_time_pass(5, STREAM_BLOCK, 60, grid, 0.1, LT_EPS)
    ref_occ, ref_tan = _local_time_oracle(5, STREAM_BLOCK, 60, grid, 0.1, LT_EPS)
    assert np.array_equal(np.array(occ), ref_occ)
    assert np.array_equal(tan, ref_tan)


@pytest.mark.parametrize("n_steps", [200, 5000, 20_000])
def test_local_time_pass_rows_equal_library_occupation(n_steps):
    grid = TimeGrid.uniform(1.0, n_steps)
    occ, _ = _local_time_pass(3, 0, 8, grid, 0.0, LT_EPS)
    for i in range(8):
        B = brownian_sample(grid, 1, 0.0, RngSeed(3, i))
        one = local_time_occupation_batch(B.values[..., 0], grid, 0.0, LT_EPS)
        for j in range(len(LT_EPS)):
            assert occ[j][i] == one[j, 0]


@pytest.mark.parametrize("level", [0.0, 0.1, -0.3])
def test_local_time_pass_rows_match_per_path_estimators(level):
    # the batch kernel against the library estimators on a batch of one, at the 1e-10
    # tolerance of the former in-experiment check; a level below the start
    # needs Tanaka's -(X_0 - a)^+ term
    grid = TimeGrid.uniform(1.0, 2000)
    eps = 0.01
    (occ,), tan = _local_time_pass(5, 0, 6, grid, level, [eps])
    for i in range(6):
        B = brownian_sample(grid, 1, 0.0, RngSeed(5, i))
        one = B.values[..., 0]
        assert abs(occ[i] - local_time_occupation_batch(one, grid, level, [eps])[0, 0]) <= 1e-10
        assert abs(tan[i] - local_time_tanaka_batch(one, level)[0]) <= 1e-10


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


@pytest.mark.parametrize("workers, rows", BLOCK_LAYOUTS, ids=["1", "2", "3", "2-7"])
def test_rbm_terminals_equal_library_map(monkeypatch, workers, rows):
    _set_layout(monkeypatch, workers, rows)
    config = default_config("rbm-density", n_paths=60, n_steps=5000)
    terminals = experiments._rbm_terminals(config, block=0)
    grid = TimeGrid.uniform(config.horizon, config.n_steps)
    paths = [brownian_sample(grid, 1, 0.0, RngSeed(config.seed, i)) for i in range(60)]
    expected = [skorokhod_map_1d_batch(B.values[..., 0])[0][0, -1] for B in paths]
    assert np.array_equal(terminals, expected)


def _skorokhod_1d_oracle(seed, n_paths, grid):
    """Per-path reference for _skorokhod_1d_columns: the running-minimum map, one path at a time."""
    col = {key: np.empty(n_paths) for key in (
        "decomposition_max_abs", "min_h_increment", "h_start", "complementarity_mass", "min_g")}
    for i in range(n_paths):
        z = normal_matrix(RngSeed(seed, i), 1, len(grid) - 1)[0]
        v = np.concatenate(([0.0], np.cumsum(z * np.sqrt(grid.deltas))))
        h = -np.minimum.accumulate(np.minimum(v, 0.0))
        g = v + h
        dh = np.diff(h)
        col["decomposition_max_abs"][i] = np.max(np.abs(g - (v + h))) / max(1.0, np.max(np.abs(v)))
        col["min_h_increment"][i] = np.min(dh)
        col["h_start"][i] = h[0]
        col["complementarity_mass"][i] = np.sum(dh * (g[1:] > 0.0))
        col["min_g"][i] = np.min(g)
    return col


@pytest.mark.parametrize("workers, rows", BLOCK_LAYOUTS)
def test_skorokhod_1d_columns_match_per_path_oracle(monkeypatch, workers, rows):
    _set_layout(monkeypatch, workers, rows)
    config = default_config("skorokhod-1d-props", n_paths=60, n_steps=5000)
    col = experiments._skorokhod_1d_columns(config)
    expected = _skorokhod_1d_oracle(config.seed, 60, TimeGrid.uniform(config.horizon, 5000))
    assert col.keys() == expected.keys()
    for key in col:
        assert np.array_equal(col[key], expected[key]), key


def test_local_time_pass_independent_of_blas_threads():
    # a BLAS product would split its long reduction across BLAS threads
    code = (
        "import sys, numpy as np\n"
        "from skorokhod_kit import TimeGrid\n"
        "from skorokhod_kit.experiments import _local_time_pass\n"
        "grid = TimeGrid.uniform(1.0, 100_000)\n"
        "occ, tan = _local_time_pass(5, 0, 20, grid, 0.0, [0.08, 0.01])\n"
        "sys.stdout.write(np.concatenate(occ + [tan]).tobytes().hex())\n"
    )
    outputs = [
        run_fresh(code, OPENBLAS_NUM_THREADS=blas_threads, SKOROKHOD_KIT_THREADS="2")
        for blas_threads in ("1", "2")
    ]
    assert len(outputs[0]) == 2 * 8 * 3 * 20
    assert outputs[0] == outputs[1]


def test_isometry_samples_independent_of_blas_threads():
    # OpenBLAS splits a dot product of more than about 10,000 terms across
    # its threads, which changes the sum's bits; the isometry sums call no BLAS
    code = (
        "import sys, numpy as np\n"
        "from skorokhod_kit import Integrand, RngSeed, ito_isometry_samples\n"
        "f = Integrand(lambda t, x: x)\n"
        "lhs, rhs = ito_isometry_samples(f, 1.0, 8, RngSeed(3), n_steps=50_000)\n"
        "sys.stdout.write(np.concatenate([lhs, rhs]).tobytes().hex())\n"
    )
    outputs = [run_fresh(code, OPENBLAS_NUM_THREADS=blas_threads) for blas_threads in ("1", "2")]
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


# --- the gate table -----------------------------------------------------------

# every gate's name, conditions with their bounds, and kind, written out so that
# moving a bound or a kind fails here
PINNED_GATES = {
    "skorokhod-1d-props": [
        ("decomposition_identity",
         (("max_decomposition", "<=", Tol("decomposition", 1e-12)),), "tolerance"),
        ("h_nondecreasing_exact", (("min_h_increment", ">=", 0.0), ("max_h_start", "==", 0.0)), "exact"),
        ("complementarity_mass_zero", (("total_complementarity_mass", "==", 0.0),), "exact"),
        ("g_nonnegative", (("min_g", ">=", 0.0),), "exact"),
    ],
    "rbm-density": [
        ("ks_half_normal", (("ks_half_normal[passed]", "==", True),), "statistical"),
        ("ks_two_sample_vs_abs", (("ks_two_sample[passed]", "==", True),), "statistical"),
        ("mean_terminal_within_3se", (("terminal", "within", 3.0),), "statistical"),
    ],
    "ito-isometry": [
        ("lhs_within_3se_of_half", (("lhs_vs_half", "within", 3.0),), "statistical"),
        ("rhs_within_3se_of_half", (("rhs_vs_half", "within", 3.0),), "statistical"),
        ("isometry_within_4_joint_se", (("lhs_rhs_gap", "<=", Stat("joint_se", 4.0)),), "statistical"),
        ("constant_integrand_exact_rhs",
         (("constant_rhs_error", "<=", 1e-12), ("constant_case[rhs][std_error]", "<=", 1e-15)), "exact"),
        ("constant_integrand_lhs_within_3se", (("constant_lhs_vs_T", "within", 3.0),), "statistical"),
    ],
    "ito-formula": [
        ("residual_rms_small", (("rms_coarse", "<=", 0.05),), "statistical"),
        ("rms_ratio_order_half", (("ratio", "in", (1.5, 3.0)),), "statistical"),
    ],
    "local-time": [
        ("occupation_within_3se", (("occ", "within", 3.0),), "statistical"),
        ("tanaka_within_3se", (("tan", "within", 3.0),), "statistical"),
        ("cross_estimator_rms", (("fine_cross_rms", "<=", 0.05),), "statistical"),
        ("bandwidth_ladder_monotone", (("ladder_monotone", "==", True),), "statistical"),
    ],
    "nd-skorokhod-props": [
        ("{case}_containment", (("containment_slack", ">=", -1e-9),), "exact"),
        ("{case}_decomposition", (("decomposition", "<=", 1e-9),), "exact"),
        ("{case}_interior_mass_zero", (("interior_mass", "==", 0.0),), "exact"),
        ("{case}_normal_directions", (("angular_gap", "<=", 1e-6),), "exact"),
        ("{case}_pairwise_gap", (("tanaka_gap", ">=", -1e-9),), "exact"),
        ("{case}_modulus_gap", (("modulus_gap", ">=", -1e-9),), "exact"),
        ("dyadic_vs_triadic", (("ref_worst", "<=", Tol("refine", 0.02, 2.0)),), "tolerance"),
        ("one_d_crosscheck",
         (("one_d_crosscheck[max_gap]", "<=", Stat("one_d_crosscheck[refine_tol]")),), "exact"),
    ],
    "rsde-consistency": [
        ("pushdown_pinned", (("pushdown[max_abs_X]", "==", 0.0),), "exact"),
        ("pushdown_phi_linear", (("pushdown[max_phi_gap]", "<=", 1e-12),), "exact"),
        ("ks_half_normal", (("ks_half_normal[passed]", "==", True),), "statistical"),
        ("scheme_matches_explicit_map", (("route_gaps[scheme_vs_map]", "<=", 1e-12),), "exact"),
        ("contract_accepts_{preset}", (("contract_accept[passed]", "==", True),), "exact"),
        ("contract_rejects_overdeclared_drift", (("contract_reject[passed]", "==", False),), "exact"),
        ("semimartingale_route_agrees_with_scheme",
         (("semimartingale_route_gap", "<=", Tol("route_agreement", 0.1)),), "tolerance"),
    ],
    "condition-checks": [
        ("orthant_condition_a",
         (("a_orthant.status", "==", "holds"), ("a_orthant.c", "near", (0.7071067811865475, 1e-6))),
         "exact"),
        ("halfplane_condition_a",
         (("a_plane.status", "==", "holds"), ("a_plane.c", "near", (1.0, 1e-9))), "exact"),
        ("strip_condition_a_fails", (("a_strip.status", "==", "fails"),), "exact"),
        ("disc_condition_b_bounded",
         (("b_disc.status", "==", "holds"), ("b_disc.reason", "contains", "bounded")), "exact"),
        ("halfplane_condition_b_d2", (("b_plane.status", "==", "holds"),), "exact"),
        ("orthant3_condition_b_unknown", (("b_orthant3.status", "==", "unknown"),), "exact"),
    ],
    "strong-error": [
        ("reflected_gaps_decrease", (("gaps_decrease", "==", True), ("finest_gap", ">", 0.0)),
         "statistical"),
        ("free_scheme_exact", (("free_max", "<=", 1e-12),), "exact"),
    ],
}


def test_gate_table_pins_every_bound_and_kind():
    assert list(GATES) == list(PINNED_GATES) and set(GATES) == set(EXPERIMENTS)
    for experiment, gates in GATES.items():
        # repr tells a Tol or Stat bound from a literal tuple with the same fields
        got = [(g.name, repr(g.conds), g.kind) for g in gates]
        assert got == [(n, repr(c), k) for n, c, k in PINNED_GATES[experiment]], experiment
        for gate in gates:
            assert gate.kind in ("exact", "tolerance", "statistical")
            assert all(op in experiments._OPS for _, op, _ in gate.conds)
            # a tolerance gate's bound, and only its bound, is read from a tol_ key
            tols = [bound for _, _, bound in gate.conds if isinstance(bound, Tol)]
            assert (gate.kind == "tolerance") == bool(tols), gate.name


def test_statistical_gates_are_the_benchmarks_monte_carlo_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workload = importlib.import_module("workload")
    for experiment, gates in GATES.items():
        statistical = {g.name for g in gates if g.kind == "statistical"}
        assert statistical == set(workload.MONTE_CARLO_CHECKS.get(experiment, ())), experiment


def test_every_tolerance_bound_is_a_key_its_experiment_reads():
    for experiment, gates in GATES.items():
        for gate in gates:
            for _, _, bound in gate.conds:
                if isinstance(bound, Tol):
                    assert f"tol_{bound.key}" in experiments.READ_KEYS.get(experiment, ()), gate.name


def test_checks_come_out_in_table_order(tmp_path):
    spec = importlib.util.spec_from_file_location("acceptance", Path(__file__).with_name("test_acceptance.py"))
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    for experiment, overrides in acceptance.SMALL_SCALE.items():
        config = default_config(experiment, out_dir=str(tmp_path / experiment), **overrides)
        result = run_experiment(config)
        expected = []
        for gate in GATES[experiment]:
            if "{case}" not in gate.name:
                expected.append(gate.name.format(preset="unit-diffusion"))
        if experiment == "nd-skorokhod-props":
            group = [g.name for g in GATES[experiment] if "{case}" in g.name]
            expected = [n.format(case=c) for c in ("unit_disc", "orthant") for n in group] + expected
        assert [c.name for c in result.checks] == expected, experiment
        assert [c["name"] for c in result.summary["checks"]] == expected


def test_a_refinement_failure_fails_its_gate_and_names_domain_and_gaps(tmp_path):
    config = default_config(
        "nd-skorokhod-props",
        n_paths=4,
        n_steps=32,
        out_dir=str(tmp_path / "out"),
        tolerances={"refine": 1e-12},
        options={"refine_drivers": 2, "refine_n0": 16},
    )
    result = run_experiment(config)
    verdicts = {c.name: c.passed for c in result.checks}
    assert verdicts.pop("dyadic_vs_triadic") is False and all(verdicts.values())
    (detail,) = [c.detail for c in result.checks if c.name == "dyadic_vs_triadic"]
    assert detail == "max schedule disagreement inf <= 0.0000"
    assert result.exit_code == 1
    written = json.loads(result.artifacts.summary.read_text())
    failure = written["refinement_failure"]
    assert failure["domain"] == "unit_disc"
    assert len(failure["gaps"]) >= 2 and failure["gaps"][-1] > 2e-12
    assert "unit_disc_refinement" not in written and "orthant_refinement" not in written


def test_cli_semimartingale_refinement_failure_fails_its_gate_with_artifacts(tmp_path, capsys):
    cfg = tmp_path / "route.cfg"
    cfg.write_text("experiment = rsde-consistency\nn_paths = 100\nN = 100\nroute_steps = 50\n"
                   "tol_refine = 0.0001\n")
    out = tmp_path / "out"
    assert main(["rsde-consistency", "--config", str(cfg), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "[FAIL] semimartingale_route_agrees_with_scheme: max gap inf <= 0.1" in printed.out
    assert "failed checks: semimartingale_route_agrees_with_scheme\n" in printed.err
    # standard JSON: parse_constant sees Infinity and NaN, which it rejects here
    written = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    verdicts = {c["name"]: c["passed"] for c in written["checks"]}
    assert verdicts.pop("semimartingale_route_agrees_with_scheme") is False
    assert all(verdicts.values())
    gaps = written["semimartingale_refinement_failure"]["gaps"]
    assert len(gaps) >= 2 and gaps[-1] > 0.0001
    assert "semimartingale_route_gap" not in written


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


def test_checks_stop_at_a_failed_guard_and_show_the_resolved_bound(monkeypatch):
    # gates run on hand-set stats: a Tol bound scaled by its factor, a Stat
    # bound read from the stats, and a guard that fails before what it guards
    gates = tuple(g for g in GATES["nd-skorokhod-props"] if "{case}" not in g.name)
    monkeypatch.setitem(GATES, "nd-skorokhod-props", gates)
    config = default_config("nd-skorokhod-props", tolerances={"refine": 0.25})
    stats = {"ref_worst": 0.5 + 1e-16, "one_d_crosscheck": {"max_gap": 1.0, "refine_tol": 0.5}}
    dyadic, cross = experiments._checks("nd-skorokhod-props", stats, config)
    assert not dyadic.passed and dyadic.detail == "max schedule disagreement 0.5000 <= 0.5000"
    assert not cross.passed and cross.detail == "max gap to explicit map 1.000e+00 <= 5.000e-01"
    stats.update(ref_worst=0.5, one_d_crosscheck={"max_gap": 0.5, "refine_tol": 0.5})
    dyadic, cross = experiments._checks("nd-skorokhod-props", stats, config)
    assert dyadic.passed and cross.passed
    # condition A's c is None unless it holds; the status guard keeps it from the comparison
    monkeypatch.setitem(GATES, "condition-checks", GATES["condition-checks"][:1])
    failing = types.SimpleNamespace(status="fails", c=None)
    (check,) = experiments._checks("condition-checks", {"a_orthant": failing}, config)
    assert not check.passed and check.detail == "c = None vs 0.7071067811865475"


def test_run_all_prints_each_failed_check_with_its_kind():
    run_all = _load_script("run_all_experiments")
    checks = [
        experiments.Check("orthant_modulus_gap", False, "min oscillation slack -1.000e-03"),
        experiments.Check("dyadic_vs_triadic", False, "max schedule disagreement 0.0300 <= 0.0400"),
        experiments.Check("one_d_crosscheck", True, "max gap to explicit map 0 <= 1e-4"),
    ]
    assert run_all.failure_lines("nd-skorokhod-props", checks) == [
        "    failed exact check: orthant_modulus_gap: min oscillation slack -1.000e-03"
        " (the output is wrong)",
        "    failed tolerance check: dyadic_vs_triadic: max schedule disagreement 0.0300 <= 0.0400"
        " (the output is off by more than its tol_ key allows)",
    ]
    (line,) = run_all.failure_lines("rsde-consistency", [
        experiments.Check("ks_half_normal", False, "D=0.03000 < 0.02000"),
        experiments.Check("contract_accepts_linear-drift", True, "max ratio 1.000 <= K=2.0"),
    ])
    assert line == ("    failed statistical check: ks_half_normal: D=0.03000 < 0.02000"
                    " (a correct run fails this at some seeds: rerun at another)")
    assert run_all.check_kind("rsde-consistency", "contract_accepts_linear-drift") == "exact"
    with pytest.raises(KeyError, match="no gate"):
        run_all.check_kind("rsde-consistency", "contract_accepts")
