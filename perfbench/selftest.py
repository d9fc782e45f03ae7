"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every field of every answer reference is load-bearing (a
corrupted reference is counted as a failed operation), that BENCHMARK.json
keeps its documented shape, and that every metric name a short real run
prints is declared in BENCHMARK.json.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import layers
import run
import worker
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " + 1"
    if isinstance(value, list):
        return value + [0]
    raise TypeError(value)


def check_references(cli):
    ops = [workloads.primes_op("Q"), workloads.sampled_scan_op("N", 7),
           workloads.radical_op("N", workloads.CHAR_P),
           workloads.radical_op("R", 0), workloads.lk_op(3, 1, 0)]
    records = []
    for op in ops:
        dt, error = worker.run_op(op, cli.main)
        assert error is None, f"{op.argv}: {error}"
        records.append([op.kind, dt, error, 1.0])
        for field in op.expect:
            bad = workloads.Op(op.kind, op.argv,
                               {**op.expect, field: corrupted(op.expect[field])})
            dt, error = worker.run_op(bad, cli.main)
            assert error is not None, f"corrupted {field} of {op.argv} passed"
            records.append([bad.kind, dt, error, 1.0])
    report = {"ops": records, "peak_rss_mb": 1.0}
    metrics, _ = run.end_to_end(report, [1.0])
    failed = sum(1 for _, _, err, _ in records if err)
    assert failed == len(records) - len(ops)
    assert metrics["ok_ratio"] == len(ops) / len(records)
    return failed


def check_tracer(cli):
    """Self times add up to the traced wall time; a missing binding is loud."""
    ghost = ("lattice_lab.workflows", "no_such_entry_point", "ghost", None)
    with layers.Tracer() as tracer:
        tracer.install(layers.OP_BINDINGS + layers.ARITH_BINDINGS
                       + (layers.FLAG_BINDING, ghost))
        dt, error = worker.run_op(workloads.primes_op("Q"), cli.main)
    assert error is None, error
    assert tracer.dead_bindings(["lattice_lab.workflows.no_such_entry_point"])
    assert not tracer.dead_bindings([layers.COMPLEMENT_SEEN, layers.FROM_PRIMES])
    total = sum(s for _, s in tracer.stats.values())
    assert abs(total - tracer.wall_s) <= 1e-6 * tracer.wall_s
    assert tracer.calls("groebner.saturate") > 0
    assert cli.main.__module__ == "lattice_lab.cli"  # wrappers removed


def check_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    return spec


def check_printed_names(spec):
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for trace in ("0", "1"):
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "certify", "--seed", "1", "--seconds", "1", "--trace", trace],
            cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        final = json.loads(lines[-1])
        printed = set(final["metrics"])
        printed |= {line.split()[0] for line in lines[:-1]
                    if line and not line.startswith("#")}
        assert printed <= declared, sorted(printed - declared)
        assert final["correct"] and final["failed"] == 0, final


def main():
    if not __debug__:
        raise SystemExit("the self-test needs assertions; run it without -O")
    cli, _ = worker.import_program(run.ROOT)
    failed = check_references(cli)
    print(f"ok: {failed} corrupted references each counted as a failure")
    check_tracer(cli)
    print("ok: self times add up; a missing binding is reported")
    spec = check_spec()
    print("ok: BENCHMARK.json shape")
    check_printed_names(spec)
    print("ok: every printed metric name is declared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
