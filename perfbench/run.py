"""excitonchain benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload length-sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

A run pins BLAS to one thread and uses ``jobs=1``.  It warms up, then
repeats the workload's pass until the next pass would end after
``--seconds`` (at least two passes).  Before each pass it times a fresh
interpreter up to its first solve (``setup_s``), and after the last pass
it tops these probes up to ``SETUP_PROBES``.  A pass runs the CLI command
handlers and writes its tables to ``<out>/<workload>/pass<k>/``; the
tables of every pass are then checked against the stored reference
currents (see ``workloads.py``).

The run is pinned to one CPU.  Wall times are measured and then divided
by the host's slowdown, which a fixed reference kernel timed beside them
gives (``hostspeed.py``): during each untraced pass, and just before and
after each set-up probe.  The raw times and the slowdowns are kept in the
run record.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; the spans go to ``<out>/<workload>/spans-seed<n>.jsonl``.
Every run also writes a full record, with the machine description, to
``<out>/<workload>-seed<n>-trace<t>.json``.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bootstrap

import numpy as np
import scipy

from excitonchain import _io, experiments
from excitonchain.hamiltonian import DisorderSpec

import hostspeed
import reference
import tracer
import workloads

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
MIN_PASSES = 2
SETUP_PROBES = 9
STAGE_POINTS = {
    "length-sweep": ("pme", [("mono", 40), ("prism", 20), ("prism", 40),
                             ("cuboid", 40), ("prism", 100)]),
    "brme-check": ("brme", [("prism", 20)]),
}


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(seed: int) -> dict:
    import mpmath

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS}},
        "cpu_count": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "jobs": 1,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_time(point: tuple) -> dict:
    """Seconds from launching a fresh interpreter to its first solve.

    ``raw_s`` is the wall time; ``slowdown`` comes from kernel bursts just
    before and after the probe, and ``value_s`` is ``raw_s / slowdown``.
    """
    before = hostspeed.burst()
    args = [sys.executable, str(bootstrap.BENCH_DIR / "first_solve.py"),
            *map(str, point)]
    started = perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    slowdown = hostspeed.slowdown(before + hostspeed.burst())
    return {"raw_s": elapsed, "slowdown": slowdown,
            "value_s": elapsed / slowdown}


def warm_up(points: list[tuple], methods: tuple[str, ...]) -> None:
    """Solve the workload's first and largest points once, untimed."""
    hostspeed.burst()
    for kind, n_cells, jb, sigma, seed, realization in points:
        disorder = (DisorderSpec(sigma, seed, realization) if sigma > 0
                    else None)
        for method in methods:
            experiments.solve_point(kind, n_cells, jb, reference.HAM,
                                    reference.ENV, disorder_spec=disorder,
                                    method=method)


def run_passes(workload, seed: int, seconds: float, trace: bool,
               out: Path, before_pass=None) -> list[dict]:
    """Repeat the pass until the next one would end after ``seconds``.

    With ``trace`` every second pass runs under the tracer; the others
    run under a ``hostspeed.Sampler``, whose handler time is taken off
    the pass's wall time.  Pass ``k`` writes its tables to
    ``out/pass<k>``.  ``before_pass``, if given, is called before each
    pass, outside its timing.
    """
    passes: list[dict] = []
    started = perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        traced = trace and len(passes) % 2 == 1
        tables = out / f"pass{len(passes)}"
        if traced:
            t0 = perf_counter()
            with tracer.Tracer() as spans:
                errors = workload.run_pass(seed, tables)
            wall = perf_counter() - t0
            sampler = None
        else:
            spans = None
            with hostspeed.Sampler() as sampler:
                t0 = perf_counter()
                errors = workload.run_pass(seed, tables)
                wall = perf_counter() - t0 - sampler.overhead_s
        passes.append({"wall": wall, "tables": tables, "errors": errors,
                       "tracer": spans,
                       "slowdown": sampler.slowdown if sampler else None})
        elapsed = perf_counter() - started
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def failed_share(verdicts) -> float:
    """Median over passes of (failed + 0.5) / (attempted + 1).

    This Jeffreys estimate of the failure probability differs from the
    plain share by at most 0.5/attempted and is never 0, so a change can be
    judged as a ratio to it even when nothing fails.
    """
    return statistics.median((v.n_failed + 0.5) / (v.attempted + 1)
                             for v in verdicts)


def end_to_end(passes, verdicts, setup) -> dict[str, float]:
    plain = [(p, v) for p, v in zip(passes, verdicts) if p["tracer"] is None]
    return {
        "solves_per_s": statistics.median(v.completed / p["wall"]
                                          * p["slowdown"]
                                          for p, v in plain),
        "setup_s": statistics.median(s["value_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failed_share": failed_share(verdicts),
    }


def per_layer(passes, verdicts) -> dict[str, float]:
    traced = [p for p in passes if p["tracer"] is not None]
    layers = [tracer.layer_metrics(p["tracer"]) for p in traced]
    out = {name: statistics.median(m[name] for m in layers)
           for name in layers[0]}
    for cls in workloads.FAILURE_CLASSES:
        out[f"failed.{cls}"] = statistics.median(v.failed[cls]
                                                 for v in verdicts)
    untraced = statistics.median(p["wall"] for p in passes
                                 if p["tracer"] is None)
    out["trace.overhead_share"] = (statistics.median(p["wall"]
                                                     for p in traced)
                                   - untraced) / untraced
    return out


def stage_table(name: str, passes) -> list[dict]:
    if name not in STAGE_POINTS:
        return []
    method, points = STAGE_POINTS[name]
    samples = [tracer.point_stages(p["tracer"]) for p in passes
               if p["tracer"] is not None]
    return tracer.stage_table(samples, points, method)


def run_one(args) -> int:
    size = workloads.SIZES[args.size]
    workload = workloads.WORKLOADS[args.workload](size)
    out_root = Path(args.out)
    out = out_root / args.workload
    out.mkdir(parents=True, exist_ok=True)
    hostspeed.pin_to_one_cpu()
    machine = machine_record(args.seed)
    warm_up(workload.warm_up_points(args.seed), workload.methods)
    # Set-up probes are spread over the run, one before each pass, so
    # their median sees the host as the passes do; a short run tops them
    # up to SETUP_PROBES at the end.
    setup: list[float] = []
    point = workload.first_solve(args.seed)
    probe = None if args.trace else lambda: setup.append(setup_time(point))
    passes = run_passes(workload, args.seed, args.seconds, bool(args.trace),
                        out, before_pass=probe)
    while probe is not None and len(setup) < SETUP_PROBES:
        probe()
    if args.trace:
        with open(out / f"spans-seed{args.seed}.jsonl", "w") as handle:
            for k, p in enumerate(passes):
                if p["tracer"] is not None:
                    p["tracer"].write(handle, tag=k)
    references = reference.load()
    oracle = workload.sample_oracle(args.seed)
    verdicts, problems = [], []
    for k, p in enumerate(passes):
        try:
            solves = workload.solves(args.seed, p["tables"], p["errors"])
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"pass {k}: unreadable table: {exc!r}")
            solves = []
        verdicts.append(workloads.check_pass(solves, references, oracle))
    expected = workload.expected_solves()
    problems += [f"pass {k}: {v.attempted} solves, expected {expected}"
                 for k, v in enumerate(verdicts) if v.attempted != expected]

    if args.trace:
        values = per_layer(passes, verdicts)
        listed = SPEC["per_layer"]
    else:
        values = end_to_end(passes, verdicts, setup)
        listed = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in listed}
    stages = stage_table(args.workload, passes)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "machine": machine,
        "setup_probes": setup,
        "passes": [{"wall_s": p["wall"], "slowdown": p["slowdown"],
                    "traced": p["tracer"] is not None,
                    "attempted": v.attempted, "completed": v.completed,
                    "failed": dict(v.failed)}
                   for p, v in zip(passes, verdicts)],
        "metrics": metrics,
        "all_values": values,
        "stage_table_ms": stages,
        "misses": verdicts[0].misses,
        "problems": problems,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _io.write_json(out_root / name, record)
    report(record)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.n_failed for v in verdicts),
        "metrics": metrics,
    }))
    return 0


def report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  size {record['size']}")
    print(f"machine: python {m['python']}, numpy {m['numpy']}, scipy "
          f"{m['scipy']}, BLAS {m['blas']['name']} {m['blas']['version']} "
          f"threads={m['blas']['threads']}, cpu_count={m['cpu_count']}, "
          f"jobs={m['jobs']}, commit {m['git_commit']}")
    for k, p in enumerate(record["passes"]):
        slowdown = (f" (host slowdown {p['slowdown']:.3f})"
                    if p["slowdown"] else " (traced)")
        print(f"pass {k}{slowdown}: {p['wall_s']:.3f} s, "
              f"{p['attempted']} solves, "
              f"failed {p['failed'] or 0}")
    misses = record["misses"]
    if misses:
        print(f"check misses in pass 0: {len(misses)}")
        for miss in misses[:20]:
            print(f"  {miss['solve']}: {miss['reason']}")
    for problem in record["problems"]:
        print(f"PROBLEM {problem}")
    for row in record["stage_table_ms"]:
        cells = "  ".join(f"{k[:-3]} {v:.1f}" for k, v in row.items()
                          if k.endswith("_ms"))
        print(f"stages (ms, median of {row['samples']}) {row['system']}: "
              f"{cells}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size, "--out", args.out]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                status = done.returncode or 1
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{entry['name']}/{name}"] = metric
            print()
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"]
                                           for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full",
                        help="problem size; 'tiny' is for the self-test")
    parser.add_argument("--out", default=str(bootstrap.ROOT
                                             / ".perfbench-out"),
                        help="directory for tables, spans and run records")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
