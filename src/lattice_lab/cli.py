"""Command-line front end.

Verbs map one-to-one onto library operations: ``check`` runs structural
tests, ``gb`` prints a reduced Groebner basis, ``ini`` the initial ideal and
its squarefree verdict, ``primes`` the minimal-prime decomposition,
``radical`` the radicality certificate, ``scan`` the per-order squarefree
scan, ``lk`` the two-rail family suite, and ``fixtures`` lists or dumps the
bundled lattices.

Each verb loads its input, computes and returns ``(status, report, lines)``,
where ``lines`` is the text output or a zero-argument callable that builds
it; ``main`` alone times the verb, prints the JSON report or the text lines,
calling ``lines`` only for text output, and returns the status.  The
argument parser is built once per process.

Exit status: 0 on success; 1 on a failed verification check, an
inconclusive radicality verdict or a library error (a bad fixture spec such
as ``Nope:3`` included); 2 on bad arguments or unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    if args.fixture and args.input:
        raise SystemExit2("pass only one of --fixture or --input")
    if args.fixture:
        return build_fixture(args.fixture)
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
            return lattice_from_json(text)
        except OSError as exc:
            # missing, a directory, unreadable
            raise SystemExit2(f"cannot read input ({exc})") from None
        except UnicodeDecodeError as exc:
            raise SystemExit2(f"input is not UTF-8 text ({exc})") from None
        except json.JSONDecodeError as exc:
            raise SystemExit2(f"invalid JSON input ({exc})") from None
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


def _cmd_check(args):
    try:
        lattice = _load_lattice(args)
    except (NotAPoset, NotALattice, NoBounds) as exc:
        report = {"lattice": None, "checks": [
            {"name": "is_lattice", "pass": False, "witness": str(exc)}]}
        return 1, report, [f"not a lattice: {exc}"]
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
    return 0, report, lambda: [
        f"elements: {', '.join(lattice.elements)}",
        f"graded: {lattice.is_graded}"
        + (f" (height {lattice.top_rank})" if lattice.is_graded else ""),
        f"distributive: {dist.distributive}"
        + (f" (witness triple {dist.witness})" if dist.witness else ""),
        f"modular: {mod.modular}"
        + (f" (pentagon {mod.witness.elements})" if mod.witness else ""),
        f"join irreducibles: {', '.join(join_irreducibles(lattice))}"]


def _cmd_gb(args):
    lattice = _load_lattice(args)
    ideal = join_meet_ideal(lattice, args.char)
    order = _parse_order(ideal.ring, args.order)
    gb = ideal.groebner(order)
    basis = [g.to_string(order) for g in gb.basis]
    report = {"lattice": args.fixture or args.input,
              "order": order.describe(ideal.ring), "basis": basis}
    return 0, report, lambda: [f"order: {report['order']}"] + [f"  {b}" for b in basis]


def _cmd_ini(args):
    lattice = _load_lattice(args)
    ideal = join_meet_ideal(lattice, args.char)
    order = _parse_order(ideal.ring, args.order)
    ini = initial_ideal(ideal, order)
    ring = ideal.ring
    gens = [ring.monomial_text(m) for m in ini.sorted_gens()]
    report = {"order": order.describe(ring), "generators": gens,
              "squarefree": ini.is_squarefree(),
              "quotient_dim": krull_dim(ini)}
    return 0, report, lambda: [f"order: {report['order']}",
                               f"initial ideal: ({', '.join(gens) if gens else '0'})",
                               f"squarefree: {report['squarefree']}",
                               f"quotient dimension: {report['quotient_dim']}"]


def _cmd_primes(args):
    lattice = _load_lattice(args)
    components = minimal_primes(lattice, args.char)
    texts = [c.generators_text() for c in components]
    report = {
        "components": [
            {"admissible": list(c.admissible),
             "generators": list(text),
             "prime": c.certified_prime,
             "dim": c.dim}
            for c, text in zip(components, texts)
        ],
        "checks": [{"name": "intersection_equals_ideal", "pass": True}],
    }

    def lines():
        out = [f"{len(components)} minimal primes; intersection verified"]
        for c, text in zip(components, texts):
            out.append(f"  A = {{{', '.join(c.admissible)}}}  dim {c.dim}"
                       f"  prime {c.certified_prime}")
            out.append(f"    ({', '.join(text)})")
        return out

    return 0, report, lines


def _cmd_radical(args):
    if args.degree_bound is not None and args.degree_bound < 1:
        raise SystemExit2(f"--degree-bound must be at least 1, got {args.degree_bound}")
    lattice = _load_lattice(args)
    cert = radical_certificate(lattice, args.char, degree_bound=args.degree_bound)
    report = {"verdict": cert.verdict, "route": cert.route, "detail": cert.detail}
    if cert.witness is not None:
        report["witness"] = str(cert.witness)
    if cert.components:
        report["components"] = [
            {"admissible": list(c.admissible), "dim": c.dim}
            for c in cert.components
        ]

    def lines():
        out = [f"verdict: {cert.verdict}", f"route: {cert.route}"]
        if cert.witness is not None:
            out.append(f"witness: {cert.witness}")
        if cert.detail:
            out.append(cert.detail)
        return out

    return (0 if cert.verdict != "inconclusive" else 1), report, lines


def _cmd_scan(args):
    for flag, value in (("--sample", args.sample), ("--jobs", args.jobs)):
        if value is not None and value < 1:
            raise SystemExit2(f"{flag} must be at least 1, got {value}")
    lattice = _load_lattice(args)
    kinds = ("lex", "degrevlex") if args.family == "both" else (args.family,)
    rep = squarefree_order_scan(
        lattice, kinds=kinds, exhaustive=True if args.exhaustive else None,
        sample=args.sample, seed=args.seed, char=args.char,
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

    def lines():
        out = [f"orders scanned: {rep.total_orders}"
               + ("" if rep.exhaustive else f" (sampled, seed {rep.seed})"),
               f"any squarefree: {rep.any_squarefree}"]
        if rep.any_squarefree:
            out.append(f"witness: {rep.witness_kind}:{','.join(rep.witness_priority)}")
        return out

    return 0, report, lines


def _cmd_lk(args):
    rep = lk_suite(args.n, args.k, args.char)
    report = {
        "n": rep.n, "k": rep.k,
        "checks": [{"name": s.name, "pass": s.passed,
                    **({"witness": s.detail} if s.detail else {})}
                   for s in rep.stages],
        "component_dims": rep.component_dims,
        "quotient_dim": rep.quotient_dim,
    }

    def lines():
        out = [f"suite for n={rep.n}, k={rep.k}"]
        for s in rep.stages:
            out.append(f"  {'pass' if s.passed else 'FAIL'}  {s.name}"
                       + (f"  {s.detail}" if s.detail and not s.passed else ""))
        out.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
        return out

    return (0 if rep.passed else 1), report, lines


def _cmd_fixtures(args):
    if args.dump:
        return 0, None, [lattice_to_json(build_fixture(args.dump))]
    return 0, None, list(FIXTURE_NAMES)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="lattice-lab",
        description="Join-meet ideals of finite lattices: structure checks, "
                    "Groebner bases, decompositions, radicality certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, inputs=True, order=False):
        if inputs:
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
    # the verb's function is named inside a lambda, so it is looked up
    # when the verb runs and a patched _cmd_<verb> acts on a built parser
    p.set_defaults(func=lambda args: _cmd_check(args))

    p = sub.add_parser("gb", help="reduced Groebner basis of the join-meet ideal")
    common(p, order=True)
    p.set_defaults(func=lambda args: _cmd_gb(args))

    p = sub.add_parser("ini", help="initial ideal and squarefree verdict")
    common(p, order=True)
    p.set_defaults(func=lambda args: _cmd_ini(args))

    p = sub.add_parser("primes", help="minimal-prime decomposition")
    common(p)
    p.set_defaults(func=lambda args: _cmd_primes(args))

    p = sub.add_parser("radical", help="radicality certificate")
    common(p)
    p.add_argument("--degree-bound", type=int, default=None,
                   help="witness search degree bound, at least 1 (default: height + 2)")
    p.set_defaults(func=lambda args: _cmd_radical(args))

    p = sub.add_parser("scan", help="squarefree scan over monomial orders")
    common(p)
    p.add_argument("--family", choices=["lex", "degrevlex", "both"],
                   default="both")
    p.add_argument("--exhaustive", action="store_true",
                   help="force full permutation enumeration")
    p.add_argument("--sample", type=int, default=10000,
                   help="sampled permutations when not exhaustive")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for existing invocations and changes nothing: "
                        "a scan runs in this process")
    p.set_defaults(func=lambda args: _cmd_scan(args))

    p = sub.add_parser("lk", help="two-rail family verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, inputs=False)
    p.set_defaults(func=lambda args: _cmd_lk(args))

    p = sub.add_parser("fixtures", help="list bundled fixtures or dump one")
    p.add_argument("--dump", help="fixture spec to dump as lattice JSON")
    p.set_defaults(func=lambda args: _cmd_fixtures(args))

    return parser


@functools.cache
def _parser():
    """The parser, built once per process."""
    return make_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "char"):
            # the ring's own check, so that a bad value fails before any work
            try:
                PolyRing((), args.char)
            except ValueError as exc:
                raise SystemExit2(f"--char: {exc}") from None
        started = time.perf_counter()
        status, report, lines = args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seconds = None
    if getattr(args, "timings", False):
        seconds = round(time.perf_counter() - started, 3)
        report["timings"] = {"seconds": seconds}
    if getattr(args, "json", False):
        text = json.dumps(report, indent=2)
    else:
        lines = lines() if callable(lines) else lines
        if seconds is not None:
            lines.append(f"time: {seconds} s")
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
