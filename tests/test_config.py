import numpy as np
import pytest

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


def test_domain_from_document():
    dom = domain_from_mapping(parse_kv_text(DOMAIN_DOC))
    assert dom.dimension == 2
    assert dom.normals.shape == (2, 2)
    assert dom.centers.shape == (1, 2)
    assert dom.radii[0] == 4.0
    assert np.array_equal(dom.interior_point, [1.0, 1.0])
    assert dom.contains(np.array([1.0, 1.0]))
    assert not dom.contains(np.array([-1.0, 1.0]))


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
