"""lattice-lab benchmark: seeded closed-loop workloads over the CLI verbs.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 0

Runs from the root of a lattice-lab source tree and imports the package from
its ``src/``.  Each workload runs in a fresh worker process (``worker.py``)
with one client calling ``lattice_lab.cli.main([..., "--json"])`` in a
closed loop, each answer checked against a fixed reference.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs a
fixed amount of work once untraced and once with the layer wrappers of
``layers.py`` and reports the per-layer metrics.  ``--workload all`` runs
every workload in turn.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with a provenance block is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 12  # fresh set-up-only workers, after one uncounted warm-up
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def usable_jobs():
    """CPUs this process may run on, capped at the machine's count."""
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


def git_commit(root):
    """HEAD's commit, or None if ``root`` is not the top of a git checkout."""
    # the ceiling stops git from finding a repository above the root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """sha256 over the package's Python sources, for trees without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "lattice_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "LATTICE_LAB_SEED"}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, jobs, deadline, setup_only=False):
    """Run one fresh worker to completion and return its JSON report."""
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--jobs", str(jobs)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its scan pool
        proc.communicate()
        raise BenchError(f"{args.workload} worker passed the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(args, jobs, deadline):
    """(reference-speed, raw) set-up seconds of one set-up-only worker: the
    worker times its own set-up and the loop right after it, and the loop
    is timed here right before the worker starts."""
    before = hostspeed.calibrate()
    report = spawn_worker(args, jobs, deadline, setup_only=True)
    raw = report["setup_s"]
    return raw * hostspeed.factor(before, report["setup_calibration_s"]), raw


def tail_percentile(times):
    """(p, value): the highest whole percentile with >= 10 samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    p = max(1, 100 * (n - 10) // n)
    rank = -(-p * n // 100)  # nearest-rank: ceil(p * n / 100)
    return p, ordered[max(rank, 1) - 1]


def op_metrics(times):
    p, tail = tail_percentile(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail}, p


def end_to_end(report, setups):
    """Operation and set-up timings in reference-speed seconds (see
    hostspeed.py), and the operation metrics from raw seconds for the
    result file."""
    ops = report["ops"]
    failed = sum(1 for _, _, err, _ in ops if err)
    metrics, p = op_metrics([dt * f for _, dt, _, f in ops])
    metrics["setup_s"] = statistics.median(setups)
    metrics["ok_ratio"] = (len(ops) - failed) / len(ops)
    metrics["peak_rss_mb"] = report["peak_rss_mb"]
    raw, _ = op_metrics([dt for _, dt, _, _ in ops])
    return metrics, {"op_tail_percentile": p, "op_samples": len(ops),
                     "raw_seconds_metrics": raw}


def per_kind(ops):
    kinds = {}
    for kind, dt, _, f in ops:
        kinds.setdefault(kind, []).append((dt, dt * f))
    return {k: {"count": len(v),
                "median_s": statistics.median(dt for dt, _ in v),
                "median_ref_s": statistics.median(ref for _, ref in v)}
            for k, v in sorted(kinds.items())}


def run_workload(args, jobs, units):
    deadline = time.monotonic() + RUN_LIMIT_S
    provenance = {
        "python": platform.python_version(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    problems = []
    if args.trace:
        report = spawn_worker(args, jobs, deadline)
        metrics = report["metrics"]
        provenance["rounds"] = report["rounds"]
        if report["dead_bindings"]:
            problems.append(f"wrapped bindings never hit: {report['dead_bindings']}")
        if not report["accounted"]:
            problems.append(f"self times sum to {report['self_total_s']} s, "
                            f"traced wall is {metrics['trace.wall_s']} s")
    else:
        spawn_worker(args, jobs, deadline, setup_only=True)  # warm-up
        # half the set-up probes before the measured worker and half after,
        # so that one short slow phase of the host cannot hold all of them
        probes = [setup_probe(args, jobs, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        report = spawn_worker(args, jobs, deadline)
        probes += [setup_probe(args, jobs, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics, details = end_to_end(report, [ref for ref, _ in probes])
        provenance.update(details, rounds=report["rounds"],
                          setup_samples=[ref for ref, _ in probes],
                          setup_raw_samples=[raw for _, raw in probes])

    if set(metrics) != set(units):
        raise BenchError(f"metric names {sorted(set(metrics) ^ set(units))} "
                         "are not declared in BENCHMARK.json, or missing")
    ops = report["ops"]
    errors = [f"{kind}: {err}" for kind, _, err, _ in ops if err]
    problems += errors
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {"provenance": provenance, "problems": problems,
              "per_kind": per_kind(ops), **result}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"# {args.workload}: seed {args.seed}, {len(ops)} operations, "
          f"{len(errors)} failed, python {provenance['python']}, "
          f"{provenance['usable_cpus']} usable CPUs, jobs {jobs}")
    if "op_tail_percentile" in provenance:
        print(f"# op_tail_s is p{provenance['op_tail_percentile']} of "
              f"{provenance['op_samples']} samples")
    for problem in problems[:10]:
        print(f"# problem: {problem}")
    for name in units:
        print(f"{name:40s} {metrics[name]!r:>24} {units[name]}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lattice_lab", "cli.py")):
        print(f"error: no lattice-lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    e2e_units, layer_units, run_seconds = declared_metrics()
    if args.seconds is None:
        args.seconds = run_seconds
    units = layer_units if args.trace else e2e_units
    jobs = usable_jobs()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:  # one at a time, each in its own workers
            args.workload = name
            results[name] = run_workload(args, jobs, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
