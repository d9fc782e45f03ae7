"""Fresh-process worker: set up one workload, run its operations, report.

Started by ``run.py`` once per set-up probe and once per measured run, so
that set-up time and peak RSS belong to a single workload.  Prints exactly
one JSON object on its standard output; the CLI's own output is captured.
"""

import time

# Set-up time runs on the worker's own clock from here, its first statement,
# so process creation and interpreter start-up, which no change to
# lattice-lab moves and which the host's load moves a lot, are left out.
SETUP_T0 = time.perf_counter()

import argparse  # noqa: E402 (below here, imports count as set-up)
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_TRACE_PASSES = 5
POOL_REFERENCE_RUNS = 3  # exhaustive Q scans at --jobs 1, for pool_speedup


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lattice_lab
    from lattice_lab import cli, fixtures

    where = os.path.realpath(lattice_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"lattice_lab imported from {where}, not {src}")
    return cli, fixtures


def build_fixtures(fixtures, workload):
    # looked up on the module each time, so set-up tracing sees the calls
    return [fixtures.build_fixture(spec) for spec in workloads.FIXTURES[workload]]


def run_op(op, main):
    """(seconds, error or None) for one CLI operation, output checked."""
    gc.collect()  # one operation's garbage is not charged to the next
    buf = io.StringIO()
    status = None
    error = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            status = main(list(op.argv))
        except SystemExit as exc:  # argparse rejects arguments this way
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - any crash is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if error is None:
        error = workloads.check(op, status, buf.getvalue())
    return dt, error


def run_rounds(round_list, main):
    """(op, seconds, error, host factor) per operation, where the factor
    turns its seconds into reference-speed seconds (see hostspeed.py)."""
    records = []
    before = hostspeed.calibrate()
    for ops in round_list:
        for op in ops:
            dt, error = run_op(op, main)
            after = hostspeed.calibrate()
            records.append((op, dt, error, hostspeed.factor(before, after)))
            before = after
    return records


def op_summary(records):
    return [[op.kind, dt, err, f] for op, dt, err, f in records]


def ref_seconds(records):
    return [dt * f for _, dt, _, f in records]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scan_orders_per_s(records):
    scans = [(op, dt * f) for op, dt, err, f in records
             if op.argv[0] == "scan" and err is None]
    seconds = sum(dt for _, dt in scans)
    orders = sum(op.expect["total_orders"] for op, _ in scans)
    return orders / seconds if seconds else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def traced_setup(fixtures, workload):
    """Median set-up seconds in the fixtures and lattice layers."""
    lattice_s, fixtures_s, missing = [], [], set()
    for _ in range(SETUP_TRACE_PASSES):
        with layers.Tracer() as tracer:
            tracer.install(layers.SETUP_BINDINGS)
            build_fixtures(fixtures, workload)
        lattice_s.append(tracer.self_s("lattice.build"))
        fixtures_s.append(tracer.self_s("fixtures.build"))
        missing.update(tracer.dead_bindings(layers.EXPECTED_SETUP_HITS))
    return statistics.median(lattice_s), statistics.median(fixtures_s), missing


def traced_run(args, cli, fixtures, plan):
    lattice_s, fixtures_s, dead = traced_setup(fixtures, args.workload)
    # half a run's rounds, once untraced and once traced
    count = max(1, workloads.rounds_for(args.workload, args.seconds) // 2)
    round_list = [next(plan) for _ in range(count)]

    untraced = run_rounds(round_list, cli.main)
    extra = []
    pool_speedup = 0.0
    if args.workload == "scan":
        pooled = [rec for rec in untraced if "exhaustive" in rec[0].kind]
        serial_op = workloads.exhaustive_q_op(1)
        extra = run_rounds([[serial_op] * POOL_REFERENCE_RUNS], cli.main)
        pool_speedup = (statistics.median(ref_seconds(extra))
                        / statistics.median(ref_seconds(pooled)))

    with layers.Tracer() as tracer:
        tracer.install(layers.OP_BINDINGS + layers.ARITH_BINDINGS
                       + (layers.FLAG_BINDING,))
        traced = run_rounds(round_list, cli.main)

    dead.update(tracer.dead_bindings(layers.EXPECTED_HITS[args.workload]))
    known = [sub for sub in tracer.sat_complements if sub is not None]
    from lattice_lab.lattice import is_distributive

    distributive = sum(1 for sub in known if is_distributive(sub).distributive)
    p = tracer.primes
    engine_calls = tracer.calls("groebner.binomial_engine")
    metrics = {
        "groebner.saturate.distributive_share": _ratio(distributive, len(known)),
        "workflows.primes.admissible_sets": p["admissible"],
        "workflows.primes.unique_ratio": _ratio(p["unique"], p["admissible"]),
        "workflows.primes.minimal_ratio": _ratio(p["minimal"], p["unique_ok"]),
        "groebner.buchberger.binomial_share": _ratio(
            tracer.binomial_buchberger, tracer.calls("groebner.buchberger")),
        "groebner.binomial_engine.s_per_call": _ratio(
            tracer.self_s("groebner.binomial_engine"), engine_calls),
        "workflows.scan.distinct_ratio": _ratio(len(tracer.leading_sets),
                                                engine_calls),
        "workflows.scan.pool_speedup": pool_speedup,
        "workflows.scan.orders_per_s": scan_orders_per_s(untraced),
        "lattice.build_s": lattice_s,
        "fixtures.build_s": fixtures_s,
        "trace.wall_s": tracer.wall_s,
        "trace.overhead_ratio": _ratio(sum(ref_seconds(traced)),
                                       sum(ref_seconds(untraced))),
    }
    for key in ("groebner.saturate", "groebner.reduce", "groebner.buchberger",
                "groebner.binomial_engine", "groebner.intersect",
                "groebner.ideal_equal", "groebner.initial_ideal", "poly.arith",
                "lattice.enumerate", "lattice.restrict", "snf"):
        metrics[f"{key}.calls"] = tracer.calls(key)
        metrics[f"{key}.self_s"] = tracer.self_s(key)
    metrics["workflows.self_s"] = tracer.self_s("workflows")
    metrics["cli.self_s"] = tracer.self_s("cli")

    self_total = sum(s for _, s in tracer.stats.values())
    return {
        "ops": op_summary(untraced + extra + traced),
        "metrics": metrics,
        "dead_bindings": sorted(dead),
        "self_total_s": self_total,
        "accounted": abs(self_total - tracer.wall_s) <= 1e-6 * tracer.wall_s,
        "rounds": len(round_list),
    }


def main(argv=None):
    args = parse_args(argv)
    out = sys.stdout
    cli, fixtures = import_program(args.root)
    plan = workloads.rounds(args.workload, args.seed, args.jobs)
    plan = itertools.chain([next(plan)], plan)  # first inputs made in set-up
    build_fixtures(fixtures, args.workload)
    setup_s = time.perf_counter() - SETUP_T0
    # host speed right after set-up; run.py times the loop right before
    result = {"setup_s": setup_s, "setup_calibration_s": hostspeed.calibrate()}
    if args.setup_only:
        pass
    elif args.trace:
        result.update(traced_run(args, cli, fixtures, plan))
    else:
        count = workloads.rounds_for(args.workload, args.seconds)
        records = run_rounds(itertools.islice(plan, count), cli.main)
        result.update(ops=op_summary(records), rounds=count,
                      peak_rss_mb=peak_rss_mb())
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
