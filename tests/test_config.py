import re

import numpy as np
import pytest

from skorokhod_kit.cli import main
from skorokhod_kit.config import (
    BUILTIN_DOMAINS,
    ExperimentConfig,
    domain_from_mapping,
    load_domain_file,
    parse_kv_text,
    parse_value,
)

DOMAIN_DOC = """
# quarter plane with a corner ball cut
dimension = 2
halfspace = {normal = (1, 0), offset = 0.0}
halfspace = {normal = (0, 1), offset = 0.0}
ball = {center = (0, 0), radius = 4}
interior_point = (1, 1)
"""


def test_parse_scalars_tuples_groups():
    doc = parse_kv_text(
        """
        name = rbm-density   # trailing comment
        seed = 42
        alpha = 0.01
        emit_paths = true
        point = (1.5, -2)
        group = {a = 1, b = (2, 3)}
        """
    )
    assert doc["name"] == ["rbm-density"]
    assert doc["seed"] == [42]
    assert doc["alpha"] == [0.01]
    assert doc["emit_paths"] == [True]
    assert doc["point"] == [(1.5, -2.0)]
    assert doc["group"] == [{"a": 1, "b": (2.0, 3.0)}]


def test_parse_repeated_keys_accumulate():
    doc = parse_kv_text("k = 1\nk = 2\nk = 3\n")
    assert doc["k"] == [1, 2, 3]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_kv_text("just a line without equals")
    with pytest.raises(ValueError):
        parse_kv_text(" = 3")
    with pytest.raises(ValueError):
        parse_value("(1, 2")
    with pytest.raises(ValueError):
        parse_value("{a = 1")
    with pytest.raises(ValueError):
        parse_value("{nokey}")


def test_parse_error_in_a_tuple_names_line_key_and_entry():
    with pytest.raises(ValueError) as err:
        parse_kv_text("experiment = strong-error\ndt_levels = (0.5, abc)\n")
    assert str(err.value) == "line 2: key dt_levels: could not convert string to float: ' abc'"
    with pytest.raises(ValueError, match=r"^line 1: key g: unterminated group"):
        parse_kv_text("g = {a = 1")


def test_domain_from_document():
    dom = domain_from_mapping(parse_kv_text(DOMAIN_DOC))
    assert dom.dimension == 2
    assert dom.normals.shape == (2, 2)
    assert dom.centers.shape == (1, 2)
    assert dom.radii[0] == 4.0
    assert np.array_equal(dom.interior_point, [1.0, 1.0])
    assert np.all(dom.slack_matrix([[1.0, 1.0]]) >= 0.0)
    assert not np.all(dom.slack_matrix([[-1.0, 1.0]]) >= 0.0)


def test_domain_document_validation():
    with pytest.raises(ValueError):
        domain_from_mapping(parse_kv_text("dimension = 2"))  # no witness/constraints
    bad = "dimension = 2\nhalfspace = {normal = (1, 0)}\ninterior_point = (1, 1)"
    with pytest.raises(ValueError):
        domain_from_mapping(parse_kv_text(bad))


def test_domain_file_roundtrip(tmp_path):
    f = tmp_path / "quarter.domain"
    f.write_text(DOMAIN_DOC)
    dom = load_domain_file(f)
    assert dom.dimension == 2


def test_experiment_config_from_mapping():
    doc = parse_kv_text(
        """
        experiment = local-time
        seed = 5
        n_paths = 1000
        T = 2.0
        N = 500
        alpha = 0.05
        tol_refine = 0.01
        eps = 0.02
        out = /tmp/somewhere
        """
    )
    config = ExperimentConfig.from_mapping(doc)
    assert config.experiment == "local-time"
    assert config.seed == 5
    assert config.horizon == 2.0
    assert config.n_steps == 500
    assert config.alpha == 0.05
    assert config.tolerances == {"refine": 0.01}
    assert config.options == {"eps": 0.02}
    assert config.tolerance("refine", 1.0) == 0.01
    assert config.tolerance("other", 0.5) == 0.5
    assert config.option("eps", 0.0) == 0.02


@pytest.mark.parametrize(
    "text, emit", [("true", True), ("yes", True), ("on", True), ("False", False), ("off", False)]
)
def test_emit_paths_reads_the_config_booleans(text, emit):
    doc = parse_kv_text(f"experiment = local-time\nemit_paths = {text}\n")
    assert ExperimentConfig.from_mapping(doc).emit_paths is emit


@pytest.mark.parametrize("text", ["maybe", "2", "0.5", "(1, 2)", "1", "0"])
def test_emit_paths_rejects_what_is_not_a_boolean(text, tmp_path, capsys):
    doc = parse_kv_text(f"experiment = local-time\nemit_paths = {text}\n")
    with pytest.raises(ValueError, match="config key emit_paths must be true or false, got "):
        ExperimentConfig.from_mapping(doc)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = local-time\nemit_paths = {text}\nout = {tmp_path}\n")
    assert main(["local-time", "--config", str(cfg)]) == 2
    assert "emit_paths" in capsys.readouterr().err
    with pytest.raises(ValueError, match="config key emit_paths must be true or false"):
        ExperimentConfig(experiment="x").replace(emit_paths=parse_value(text))


def test_experiment_config_needs_a_name():
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"seed": [2]})


def test_builtin_domains_resolve():
    for name in BUILTIN_DOMAINS:
        config = ExperimentConfig(experiment="x", domain=name)
        dom = config.resolve_domain()
        assert dom.dimension >= 1
    bad = ExperimentConfig(experiment="x", domain="moebius-strip")
    with pytest.raises(ValueError):
        bad.resolve_domain()
    missing = ExperimentConfig(experiment="x", domain_file="/nonexistent/file.domain")
    with pytest.raises(ValueError):
        missing.resolve_domain()
    assert ExperimentConfig(experiment="x").resolve_domain() is None


def test_config_replace_and_as_dict():
    config = ExperimentConfig(experiment="rbm-density", seed=1)
    changed = config.replace(seed=9, out_dir="elsewhere")
    assert changed.seed == 9 and changed.out_dir == "elsewhere"
    payload = changed.as_dict()
    assert payload["experiment"] == "rbm-density"
    assert payload["seed"] == 9
    assert payload["out"] == "elsewhere"


@pytest.mark.parametrize("sizes", [{"n_paths": 0}, {"n_steps": 0}, {"n_paths": -3}])
def test_experiment_config_rejects_empty_sizes(sizes):
    with pytest.raises(ValueError, match="must be at least 1"):
        ExperimentConfig(experiment="x", **sizes)
    with pytest.raises(ValueError, match="must be at least 1"):
        ExperimentConfig(experiment="x").replace(**sizes)


def test_experiment_config_rejects_an_untabulated_alpha():
    assert ExperimentConfig(experiment="x", alpha=0.05).alpha == 0.05
    with pytest.raises(ValueError, match=r"config key alpha must be one of \[0.01, 0.05\]"):
        ExperimentConfig(experiment="x", alpha=0.02)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"horizon": float("nan")}, "config key T must be finite, got nan"),
        ({"horizon": 10**400}, f"config key T must be finite, got {10**400}"),
        ({"horizon": 0.0}, "config key T must be positive, got 0.0"),
        ({"horizon": -1}, "config key T must be positive, got -1"),
        ({"tolerances": {"refine": float("inf")}}, "config key tol_refine must be finite, got inf"),
        ({"tolerances": {"refine": -0.5}}, "config key tol_refine must be at least 0, got -0.5"),
        ({"tolerances": {"refine": "x"}}, "config key tol_refine must be a number, got 'x'"),
    ],
)
def test_experiment_config_rejects_a_bad_horizon_or_tolerance(fields, message):
    assert ExperimentConfig(experiment="x", horizon=2, tolerances={"refine": 0.0}).horizon == 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(experiment="x", **fields)


def test_count_option_reads_counts_and_rejects_empty_ones():
    config = ExperimentConfig(experiment="x", options={"fine_paths": 7, "route_steps": 2.0})
    assert config.count_option("fine_paths", 400) == 7
    assert config.count_option("route_steps", 1000) == 2
    assert config.count_option("refine_n0", 128) == 128
    for value in (0, -3):
        empty = ExperimentConfig(experiment="x", options={"refine_drivers": value})
        message = f"config key refine_drivers must be at least 1, got {value}"
        with pytest.raises(ValueError, match=message):
            empty.count_option("refine_drivers", 12)
