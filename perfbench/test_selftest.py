"""Self-test of the benchmark at a tiny size.

Run with ``python3 -m pytest perfbench`` from the repository root.  It is
not part of the package's own test suite.
"""

import json
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import bootstrap
import hostspeed
import run
import workloads


def _run(tmp_path, workload, trace):
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)
    if trace:
        metrics = result["metrics"]
        brme = [v["value"] for k, v in metrics.items()
                if k.startswith("brme.")]
        assert (all(v > 0 for v in brme) if workload == "brme-check"
                else all(v == 0 for v in brme))
        spans = (tmp_path / workload / "spans-seed3.jsonl").read_text()
        tag, idx, name, start, end, parent = json.loads(
            spans.splitlines()[0])
        assert start <= end and parent < idx
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _solves(workload, seed, out):
    errors = workload.run_pass(seed, out)
    assert not any(errors)
    return workload.solves(seed, out, errors)


def test_corrupting_one_current_raises_failed_share(tmp_path):
    workload = workloads.LengthSweep(workloads.TINY)
    solves = _solves(workload, 0, tmp_path)
    references = workloads.reference.load()
    clean = workloads.check_pass(solves, references, {})
    solves[1]["current"] *= 1.0 + 1e-6
    corrupted = workloads.check_pass(solves, references, {})
    assert corrupted.failed["check"] == clean.failed["check"] + 1
    assert run.failed_share([corrupted]) > run.failed_share([clean])


def test_disorder_sample_is_checked_against_the_oracle(tmp_path):
    workload = workloads.DisorderEnsemble(workloads.TINY)
    solves = _solves(workload, 5, tmp_path)
    assert len(solves) == workload.expected_solves()
    oracle = workload.sample_oracle(5)
    clean = workloads.check_pass(solves, workloads.reference.load(), oracle)
    assert clean.n_failed == 0
    kind, r = next(iter(oracle))
    for s in solves:
        if (s["geometry"], s["realization"]) == (kind, r):
            s["current"] *= 1.0 + 1e-6
    corrupted = workloads.check_pass(solves, workloads.reference.load(),
                                     oracle)
    assert corrupted.failed["check"] == 1


def test_brme_disagreement_is_a_failure(tmp_path):
    workload = workloads.BrmeCheck(workloads.TINY)
    solves = _solves(workload, 0, tmp_path)
    assert len(solves) == workload.expected_solves()
    references = workloads.reference.load()
    assert workloads.check_pass(solves, references, {}).n_failed == 0
    brme = next(s for s in solves if s["method"] == "brme")
    brme["current"] *= 1.0 + 2 * workloads.AGREEMENT_RTOL
    assert workloads.check_pass(solves, references, {}).failed["check"] == 1


def test_a_raising_command_fails_its_solves(tmp_path):
    workload = workloads.BrmeCheck(workloads.TINY)
    solves = workload.solves(0, tmp_path, ["BrmeError"])
    verdict = workloads.check_pass(solves, workloads.reference.load(), {})
    assert verdict.failed["BrmeError"] == workload.expected_solves()
    assert verdict.completed == 0


def test_host_sampler_times_the_kernel_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.01) as sampler:
        started = perf_counter()
        while perf_counter() - started < 0.1:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 3
    assert 0 < sampler.overhead_s < 0.1
    assert sampler.slowdown == pytest.approx(
        sum(sampler.samples) / len(sampler.samples) / hostspeed.NOMINAL_S)
