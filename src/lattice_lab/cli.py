"""Command-line front end.

Verbs map one-to-one onto library operations: ``check`` runs structural
tests, ``gb`` prints a reduced Groebner basis, ``ini`` the initial ideal and
its squarefree verdict, ``primes`` the minimal-prime decomposition,
``radical`` the radicality certificate, ``scan`` the per-order squarefree
scan, ``lk`` the two-rail family suite, and ``fixtures`` lists or dumps the
bundled lattices.

Exit status: 0 on success, 1 on a failed verification check, 2 on bad
arguments or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    LatticeLabError,
    NoBounds,
    NotALattice,
    NotAPoset,
    RingMismatch,
)
from .fixtures import (
    FIXTURE_NAMES,
    build_fixture,
    lattice_from_json,
    lattice_to_json,
)
from .groebner import initial_ideal, krull_dim
from .lattice import is_distributive, is_modular, join_irreducibles
from .poly import PolyRing, degrevlex, lex
from .workflows import (
    join_meet_ideal,
    lk_suite,
    minimal_primes,
    radical_certificate,
    squarefree_order_scan,
)


class SystemExit2(Exception):
    """Argument/IO problem: exit status 2."""


def _load_lattice(args):
    if getattr(args, "fixture", None):
        return build_fixture(args.fixture)
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return lattice_from_json(text)
        except json.JSONDecodeError:
            raise
        except (TypeError, ValueError) as exc:
            # a missing key, a cover naming an unknown element, duplicates
            raise SystemExit2(f"invalid lattice input ({exc})") from None
    raise SystemExit2("one of --fixture or --input is required")


def _parse_order(ring, text):
    if not text:
        return ring.default_order
    kind, _, rest = text.partition(":")
    priority = tuple(rest.split(",")) if rest else ring.variables
    if kind not in ("lex", "degrevlex"):
        raise SystemExit2(f"unknown order kind {kind!r} (use lex:... or degrevlex:...)")
    order = (lex if kind == "lex" else degrevlex)(priority)
    try:
        order.resolve(ring)
    except RingMismatch as exc:
        raise SystemExit2(str(exc)) from None
    return order


def _emit(args, report, text_lines):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
        if "timings" in report:
            print(f"time: {report['timings']['seconds']} s")


def _maybe_time(args, report, started):
    if getattr(args, "timings", False):
        report["timings"] = {"seconds": round(time.perf_counter() - started, 3)}


def _cmd_check(args):
    started = time.perf_counter()
    try:
        lattice = _load_lattice(args)
    except (NotAPoset, NotALattice, NoBounds) as exc:
        report = {"lattice": None, "checks": [
            {"name": "is_lattice", "pass": False, "witness": str(exc)}]}
        _emit(args, report, [f"not a lattice: {exc}"])
        return 1
    dist = is_distributive(lattice)
    mod = is_modular(lattice)
    checks = [
        {"name": "is_lattice", "pass": True},
        {"name": "graded", "pass": lattice.is_graded},
        {"name": "distributive", "pass": dist.distributive},
        {"name": "modular", "pass": mod.modular},
    ]
    if dist.witness:
        checks[2]["witness"] = list(dist.witness)
    if mod.witness:
        checks[3]["witness"] = list(mod.witness.elements)
    report = {
        "lattice": {"elements": list(lattice.elements),
                    "covers": [list(c) for c in lattice.covers]},
        "checks": checks,
        "join_irreducibles": list(join_irreducibles(lattice)),
    }
    _maybe_time(args, report, started)
    lines = [f"elements: {', '.join(lattice.elements)}",
             f"graded: {lattice.is_graded}"
             + (f" (height {lattice.top_rank})" if lattice.is_graded else ""),
             f"distributive: {dist.distributive}"
             + (f" (witness triple {dist.witness})" if dist.witness else ""),
             f"modular: {mod.modular}"
             + (f" (pentagon {mod.witness.elements})" if mod.witness else ""),
             f"join irreducibles: {', '.join(join_irreducibles(lattice))}"]
    _emit(args, report, lines)
    return 0


def _cmd_gb(args):
    started = time.perf_counter()
    lattice = _load_lattice(args)
    jm = join_meet_ideal(lattice, args.char)
    order = _parse_order(jm.ring, args.order)
    gb = jm.ideal.groebner(order)
    basis = [g.to_string(order) for g in gb.basis]
    report = {"lattice": getattr(args, "fixture", None) or args.input,
              "order": order.describe(jm.ring), "basis": basis}
    _maybe_time(args, report, started)
    _emit(args, report, [f"order: {report['order']}"] + [f"  {b}" for b in basis])
    return 0


def _cmd_ini(args):
    started = time.perf_counter()
    lattice = _load_lattice(args)
    jm = join_meet_ideal(lattice, args.char)
    order = _parse_order(jm.ring, args.order)
    ini = initial_ideal(jm.ideal, order)
    ring = jm.ring
    gens = [ring.monomial_text(m) for m in ini.sorted_gens()]
    report = {"order": order.describe(ring), "generators": gens,
              "squarefree": ini.is_squarefree(),
              "quotient_dim": krull_dim(ini)}
    _maybe_time(args, report, started)
    _emit(args, report,
          [f"order: {report['order']}",
           f"initial ideal: ({', '.join(gens) if gens else '0'})",
           f"squarefree: {report['squarefree']}",
           f"quotient dimension: {report['quotient_dim']}"])
    return 0


def _cmd_primes(args):
    started = time.perf_counter()
    lattice = _load_lattice(args)
    components = minimal_primes(lattice, args.char)
    report = {
        "components": [
            {"admissible": list(c.admissible.members),
             "generators": list(c.generators_text()),
             "prime": c.certified_prime,
             "dim": c.dim}
            for c in components
        ],
        "checks": [{"name": "intersection_equals_ideal", "pass": True}],
    }
    _maybe_time(args, report, started)
    lines = [f"{len(components)} minimal primes; intersection verified"]
    for c in components:
        lines.append(f"  A = {{{', '.join(c.admissible.members)}}}  dim {c.dim}"
                     f"  prime {c.certified_prime}")
        lines.append(f"    ({', '.join(c.generators_text())})")
    _emit(args, report, lines)
    return 0


def _cmd_radical(args):
    started = time.perf_counter()
    if args.degree_bound is not None and args.degree_bound < 1:
        raise SystemExit2(f"--degree-bound must be at least 1, got {args.degree_bound}")
    lattice = _load_lattice(args)
    cert = radical_certificate(lattice, args.char, degree_bound=args.degree_bound)
    report = {"verdict": cert.verdict, "route": cert.route, "detail": cert.detail}
    if cert.witness is not None:
        report["witness"] = str(cert.witness)
    if cert.components:
        report["components"] = [
            {"admissible": list(c.admissible.members), "dim": c.dim}
            for c in cert.components
        ]
    _maybe_time(args, report, started)
    lines = [f"verdict: {cert.verdict}", f"route: {cert.route}"]
    if cert.witness is not None:
        lines.append(f"witness: {cert.witness}")
    if cert.detail:
        lines.append(cert.detail)
    _emit(args, report, lines)
    return 0 if cert.verdict != "inconclusive" else 1


def _cmd_scan(args):
    started = time.perf_counter()
    for flag, value in (("--sample", args.sample), ("--jobs", args.jobs)):
        if value is not None and value < 1:
            raise SystemExit2(f"{flag} must be at least 1, got {value}")
    lattice = _load_lattice(args)
    kinds = ("lex", "degrevlex") if args.family == "both" else (args.family,)
    rep = squarefree_order_scan(
        lattice, kinds=kinds, exhaustive=True if args.exhaustive else None,
        sample=args.sample, seed=args.seed, char=args.char, jobs=args.jobs,
    )
    report = {
        "total_orders": rep.total_orders,
        "any_squarefree": rep.any_squarefree,
        "witness_kind": rep.witness_kind,
        "witness_priority": list(rep.witness_priority) if rep.witness_priority else None,
        "counts": rep.counts,
        "exhaustive": rep.exhaustive,
        "sample_size": rep.sample_size,
        "seed": rep.seed,
    }
    _maybe_time(args, report, started)
    lines = [f"orders scanned: {rep.total_orders}"
             + ("" if rep.exhaustive else f" (sampled, seed {rep.seed})"),
             f"any squarefree: {rep.any_squarefree}"]
    if rep.any_squarefree:
        lines.append(f"witness: {rep.witness_kind}:{','.join(rep.witness_priority)}")
    _emit(args, report, lines)
    return 0


def _cmd_lk(args):
    started = time.perf_counter()
    rep = lk_suite(args.n, args.k, args.char)
    report = {
        "n": rep.n, "k": rep.k,
        "checks": [{"name": s.name, "pass": s.passed,
                    **({"witness": s.detail} if s.detail else {})}
                   for s in rep.stages],
        "component_dims": rep.component_dims,
        "quotient_dim": rep.quotient_dim,
    }
    _maybe_time(args, report, started)
    lines = [f"suite for n={rep.n}, k={rep.k}"]
    for s in rep.stages:
        lines.append(f"  {'pass' if s.passed else 'FAIL'}  {s.name}"
                     + (f"  {s.detail}" if s.detail and not s.passed else ""))
    lines.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def _cmd_fixtures(args):
    if args.dump:
        lattice = build_fixture(args.dump)
        print(lattice_to_json(lattice))
        return 0
    for name in FIXTURE_NAMES:
        print(name)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="lattice-lab",
        description="Join-meet ideals of finite lattices: structure checks, "
                    "Groebner bases, decompositions, radicality certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, order=False):
        p.add_argument("--fixture", help="fixture spec, e.g. Q or Lk:3:1")
        p.add_argument("--input", help="path to a lattice JSON file")
        p.add_argument("--char", type=int, default=0,
                       help="coefficient field characteristic (0 or a prime)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        if order:
            p.add_argument("--order", default="",
                           help="monomial order, e.g. lex:a,b,c (default: "
                                "degrevlex over the element order)")

    p = sub.add_parser("check", help="structural tests of a lattice")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gb", help="reduced Groebner basis of the join-meet ideal")
    common(p, order=True)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("ini", help="initial ideal and squarefree verdict")
    common(p, order=True)
    p.set_defaults(func=_cmd_ini)

    p = sub.add_parser("primes", help="minimal-prime decomposition")
    common(p)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("radical", help="radicality certificate")
    common(p)
    p.add_argument("--degree-bound", type=int, default=None,
                   help="witness search degree bound, at least 1 (default: height + 2)")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("scan", help="squarefree scan over monomial orders")
    common(p)
    p.add_argument("--family", choices=["lex", "degrevlex", "both"],
                   default="both")
    p.add_argument("--exhaustive", action="store_true",
                   help="force full permutation enumeration")
    p.add_argument("--sample", type=int, default=10000,
                   help="sampled permutations when not exhaustive")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: LATTICE_LAB_SEED or 0)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for exhaustive scans")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("lk", help="two-rail family verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("fixtures", help="list bundled fixtures or dump one")
    p.add_argument("--dump", help="fixture spec to dump as lattice JSON")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "char"):
            # the ring's own check, so that a bad value fails before any work
            try:
                PolyRing((), args.char)
            except ValueError as exc:
                raise SystemExit2(f"--char: {exc}") from None
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input ({exc})", file=sys.stderr)
        return 2
    except LatticeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
