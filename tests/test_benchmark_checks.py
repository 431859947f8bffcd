"""The benchmark's pulse-level workloads, run through the package and held
to the benchmark's own checks (an independent numpy model, 1e-9 per matrix
element). The benchmark modules are imported read-only from perfbench/."""
import importlib
import random
import sys
from pathlib import Path

import pytest

from lunephase import pulse, qcore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")
        for name in ("workloads", "checks", "reference"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name, count", [("chain", 8), ("trajectory", 4)])
def test_requests_pass_the_benchmark_checks(workloads, name, count):
    stream = getattr(workloads, f"{name}_requests")(random.Random(11))
    run, check = getattr(workloads, f"run_{name}"), getattr(workloads, f"check_{name}")
    for _ in range(count):
        request = next(stream)
        run(pulse, qcore, request)
        assert check(request, None) == []


@pytest.mark.parametrize("samples", [1, 2, 1000])
def test_any_sample_count_passes_the_trajectory_check(workloads, samples):
    request = next(workloads.trajectory_requests(random.Random(13)))
    cycles = [dict(args, samples=samples) for args in request.args["cycles"]]
    request = workloads.Request({"cycles": cycles}, 0)
    workloads.run_trajectory(pulse, qcore, request)
    assert workloads.check_trajectory(request, None) == []
