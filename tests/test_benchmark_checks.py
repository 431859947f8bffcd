"""The benchmark's workloads, run through the package and held to the
benchmark's own checks: an independent numpy model (1e-9 per matrix element)
for the pulse-level chain and trajectory requests, the closed form and
spherical geometry for the grid and loop requests. The benchmark modules are
imported read-only from perfbench/."""
import importlib
import random
import sys
from pathlib import Path

import pytest

import lunephase
from lunephase import pulse, qcore
from lunephase.errors import ConventionError

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


def test_loop_requests_pass_the_benchmark_checks(workloads):
    stream = workloads.loop_requests(random.Random(19))
    for _ in range(5):
        request = next(stream)
        workloads.run_loop(lunephase, request)
        assert workloads.check_loop(request, None) == []


def test_grid_requests_pass_the_benchmark_checks(workloads):
    # three calibrated sweeps, and one under a miscalibrated convention set,
    # which the package must refuse
    calibrated, refused = [], []
    for request in workloads.grid_requests(random.Random(23)):
        (refused if request.args["refused"] else calibrated).append(request)
        if len(calibrated) >= 3 and refused:
            break
    for request in calibrated[:3]:
        workloads.run_grid(lunephase, request)
        assert workloads.check_grid(request, None) == []
    with pytest.raises(ConventionError) as err:
        workloads.run_grid(lunephase, refused[0])
    assert workloads.check_grid(refused[0], err.value) == []


def test_repeated_chain_requests_pass_and_repeat_bit_for_bit(workloads):
    # within a request every point after the first takes its preparation
    # and cycle from the compile cache, and the second pass starts from
    # the cache the first one left
    stream = workloads.chain_requests(random.Random(17))
    requests = [next(stream) for _ in range(8)]
    passes = []
    for _ in range(2):
        bits = []
        for request in requests:
            workloads.run_chain(pulse, qcore, request)
            assert workloads.check_chain(request, None) == []
            for point in request.outcome["points"]:
                bits += [point[key].tobytes() for key in ("prepared", "mixed", "cycled", "reduced")]
                bits += [u.tobytes() for u in point["branches"]]
        passes.append(bits)
    assert passes[0] == passes[1]
    assert pulse._compile.cache_info().hits > 0


@pytest.mark.parametrize("samples", [1, 2, 1000])
def test_any_sample_count_passes_the_trajectory_check(workloads, samples):
    request = next(workloads.trajectory_requests(random.Random(13)))
    cycles = [dict(args, samples=samples) for args in request.args["cycles"]]
    request = workloads.Request({"cycles": cycles}, 0)
    workloads.run_trajectory(pulse, qcore, request)
    assert workloads.check_trajectory(request, None) == []
