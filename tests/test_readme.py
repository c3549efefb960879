import re
from pathlib import Path

from skorokhod_kit.cli import main
from skorokhod_kit.config import parse_kv_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})


def test_config_example_runs(tmp_path):
    # the example, shrunk: a key its experiment does not read would exit 2
    section = README.read_text().split("## Config format", 1)[1]
    example = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    cfg = tmp_path / "example.cfg"
    cfg.write_text(example + "n_paths = 200\nN = 64\n")
    experiment = parse_kv_text(example)["experiment"][-1]
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    assert (tmp_path / "out" / "summary.json").is_file()
