"""The benchmark's set-up entry points, called for every workload without running it.

Every ``bench/run.py`` run starts each workload process by building the
workload's configs (``workload.build_configs``) and domains
(``workload.build_domains``) and by recording the library environment
(``envinfo.library_environment``, which reads ``experiments.worker_count``).
A library change that breaks one of these would crash every benchmark run,
so they are called here.
"""

import sys
from pathlib import Path

import pytest

from skorokhod_kit import experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_benchmark_setup_builds_every_workload(name, tmp_path):
    configs = workload.build_configs(name, None, tmp_path)
    assert [c.experiment for c in configs] == [exp.name for exp in workload.WORKLOADS[name]]
    for config in configs:  # run_experiment rejects a key the experiment does not read
        assert set(config.options) <= set(experiments.READ_KEYS.get(config.experiment, ()))
    assert len(workload.build_domains(name)) == len(workload.WORKLOAD_DOMAINS[name])
    assert envinfo.library_environment()["workers"] >= 1
