"""Workload plans and answer references for the lattice-lab benchmark.

An operation is one CLI verb with ``--json``.  Its reference is a small dict
of expected facts, checked against the parsed report and the exit status.
A workload is an endless sequence of rounds; every round holds the same
multiset of operation kinds (cost classes), so the proportions never change.
The seed only orders each round and picks the values inside a kind: the
scan sampling seeds and the ``Lk`` parameter k, dealt from shuffled decks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CHAR_P = 32003
SCAN_SAMPLE = 100  # permutations per sampled scan; each gives two orders
Q_ORDERS = 10080  # 7! permutations times the two order families

WORKLOADS = ("decompose", "scan", "certify")
# Rounds in a 30-second run: about 30 s of work on the seed code (2 cores,
# Python 3.11.7).  With these counts every run has 30 to 40 operations,
# both op_p50_s and op_tail_s fall inside a block of one operation kind,
# not on the gap between two, and five decompose rounds deal every Lk(6,k)
# exactly three times, so the seed cannot move the median through the mix
# of k.
ROUNDS_PER_30_S = {"decompose": 5, "scan": 8, "certify": 4}
MIN_ROUNDS = {"decompose": 4, "scan": 5, "certify": 2}  # at least 20 ops

# Fixture specs each workload's operations load; set-up builds every one.
FIXTURES = {
    "decompose": tuple(f"Lk:{n}:{k}" for n in (6, 7) for k in range(1, n))
    + ("R", "Q"),
    "scan": ("N", "R", "Q"),
    "certify": ("N", "R") + tuple(f"Lk:6:{k}" for k in range(1, 6)),
}


@dataclass(frozen=True)
class Op:
    kind: str  # cost class, e.g. "primes Lk:7" or "radical N char 0"
    argv: tuple
    expect: dict


def _lk_dims(n, k):
    return sorted([n, n, n, n - k + 1, k + 1, n - k + 1, k + 1])


def primes_op(spec):
    if spec.startswith("Lk:"):
        _, n, k = spec.split(":")
        n, k = int(n), int(k)
        expect = {"components": 7, "dims": _lk_dims(n, k)}
        kind = f"primes Lk:{n}"
    elif spec == "Q":
        expect = {"components": 3, "dims": [3, 4, 4]}
        kind = "primes Q"
    elif spec == "R":
        expect = {"components": 7, "dims": [3, 3, 3, 3, 4, 4, 4]}
        kind = "primes R"
    else:
        raise ValueError(f"no primes reference for {spec!r}")
    return Op(kind, ("primes", "--fixture", spec, "--json"),
              {"status": 0, **expect})


def sampled_scan_op(spec, seed):
    argv = ("scan", "--fixture", spec, "--sample", str(SCAN_SAMPLE),
            "--seed", str(seed), "--json")
    return Op(f"scan {spec} sampled", argv,
              {"status": 0, "total_orders": 2 * SCAN_SAMPLE, "squarefree": 0})


def exhaustive_q_op(jobs):
    argv = ("scan", "--fixture", "Q", "--exhaustive", "--jobs", str(jobs),
            "--json")
    return Op(f"scan Q exhaustive jobs {jobs}", argv,
              {"status": 0, "total_orders": Q_ORDERS, "squarefree": Q_ORDERS})


def radical_op(spec, char):
    argv = ("radical", "--fixture", spec, "--char", str(char), "--json")
    if spec == "N":
        witness = ("a*d*g*l - a*f*g*l" if char == 0
                   else f"a*d*g*l + {char - 1}*a*f*g*l")
        expect = {"verdict": "not_radical", "route": "witness",
                  "witness": witness}
    elif spec == "R":
        expect = {"verdict": "radical", "route": "prime_intersection"}
    else:
        raise ValueError(f"no radical reference for {spec!r}")
    return Op(f"radical {spec} char {char}", argv, {"status": 0, **expect})


def lk_op(n, k, char):
    argv = ("lk", "--n", str(n), "--k", str(k), "--char", str(char), "--json")
    return Op(f"lk {n} char {char}", argv, {"status": 0, "n": n, "k": k})


class _Deck:
    """Deals values in seeded shuffled passes, so that every value comes up
    once per pass and a run of whole passes holds each equally often."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.pending = []

    def deal(self):
        if not self.pending:
            self.pending = self.values[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def decompose_rounds(rng):
    """Q, R, three Lk(6,k) and one Lk(7,k) per round; k dealt from decks."""
    lk6, lk7 = _Deck(rng, range(1, 6)), _Deck(rng, range(1, 7))
    while True:
        ops = [primes_op("Q"), primes_op("R"), primes_op(f"Lk:7:{lk7.deal()}")]
        ops += [primes_op(f"Lk:6:{lk6.deal()}") for _ in range(3)]
        rng.shuffle(ops)
        yield ops


def scan_rounds(rng, jobs):
    """One sampled scan of N, two of R, and one exhaustive scan of Q."""
    while True:
        ops = [sampled_scan_op("N", rng.randrange(1 << 30)),
               sampled_scan_op("R", rng.randrange(1 << 30)),
               sampled_scan_op("R", rng.randrange(1 << 30)),
               exhaustive_q_op(jobs)]
        rng.shuffle(ops)
        yield ops


def certify_rounds(rng):
    """Ten operations whose characteristic alternates 0, p, 0, p, ...

    The five kinds (radical N twice, radical R twice, lk once) run twice,
    the second time with the other characteristic, so each kind meets both
    fields equally often.
    """
    lk6 = _Deck(rng, range(1, 6))
    chars = (0, CHAR_P)
    while True:
        k = lk6.deal()
        kinds = [("radical", "N"), ("radical", "N"), ("radical", "R"),
                 ("radical", "R"), ("lk", k)]
        rng.shuffle(kinds)
        ops = []
        for half in (0, 1):
            for i, (verb, arg) in enumerate(kinds):
                char = chars[(i + half) % 2]
                ops.append(radical_op(arg, char) if verb == "radical"
                           else lk_op(6, arg, char))
        yield ops


def rounds(workload, seed, jobs):
    """Endless deterministic sequence of rounds for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decompose":
        return decompose_rounds(rng)
    if workload == "scan":
        return scan_rounds(rng, jobs)
    if workload == "certify":
        return certify_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")


def rounds_for(workload, seconds):
    """Rounds in a run of `seconds`: a fixed amount of work, not a deadline,
    so that both sides of a comparison run the same operations."""
    return max(MIN_ROUNDS[workload],
               round(ROUNDS_PER_30_S[workload] * seconds / 30))


# ---------------------------------------------------------------------------
# answer checks: each returns None when the report matches, else a reason
# ---------------------------------------------------------------------------


def _check_primes(rep, exp):
    comps = rep["components"]
    if len(comps) != exp["components"]:
        return f"{len(comps)} components, expected {exp['components']}"
    dims = sorted(c["dim"] for c in comps)
    if dims != exp["dims"]:
        return f"dims {dims}, expected {exp['dims']}"
    if not all(c["pass"] for c in rep["checks"]):
        return "intersection check failed"
    return None


def _check_scan(rep, exp):
    if rep["total_orders"] != exp["total_orders"]:
        return f"{rep['total_orders']} orders, expected {exp['total_orders']}"
    squarefree = sum(c["squarefree"] for c in rep["counts"].values())
    if squarefree != exp["squarefree"]:
        return f"{squarefree} squarefree orders, expected {exp['squarefree']}"
    if rep["any_squarefree"] != (exp["squarefree"] > 0):
        return f"any_squarefree is {rep['any_squarefree']}"
    return None


def _check_radical(rep, exp):
    for key in ("verdict", "route", "witness"):
        if key in exp and rep.get(key) != exp[key]:
            return f"{key} {rep.get(key)!r}, expected {exp[key]!r}"
    return None


def _check_lk(rep, exp):
    if (rep["n"], rep["k"]) != (exp["n"], exp["k"]):
        return f"suite ran for n={rep['n']}, k={rep['k']}"
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    if not rep["checks"] or failed:
        return f"failed stages {failed}"
    return None


_CHECKS = {"primes": _check_primes, "scan": _check_scan,
           "radical": _check_radical, "lk": _check_lk}


def check(op, status, stdout):
    """None when the operation's output matches its reference."""
    if status != op.expect["status"]:
        return f"exit status {status}, expected {op.expect['status']}"
    try:
        rep = json.loads(stdout)
        return _CHECKS[op.argv[0]](rep, op.expect)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"
