"""Outside-in layer tracing for the benchmark.

Every entry point is wrapped at the binding its caller uses (``workflows``
imports most groebner and lattice functions by name, so those are wrapped in
the ``lattice_lab.workflows`` namespace; ``ReducedGB.reduce`` and the ``Poly``
operators are wrapped on their classes).  A wrapper keeps a span stack: a
span's self time is its duration minus the durations of the wrapped spans
directly beneath it, so the self times of all layers add up to the wall time
of the root spans (``cli.main``).  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, layer key, hook name) for the timed operations.
OP_BINDINGS = (
    ("lattice_lab.cli", "main", "cli", "op"),
    ("lattice_lab.cli", "minimal_primes", "workflows", "primes"),
    ("lattice_lab.cli", "radical_certificate", "workflows", None),
    ("lattice_lab.cli", "squarefree_order_scan", "workflows", None),
    ("lattice_lab.cli", "lk_suite", "workflows", None),
    ("lattice_lab.workflows", "minimal_primes", "workflows", "primes"),
    ("lattice_lab.workflows", "saturate", "groebner.saturate", "saturate"),
    ("lattice_lab.workflows", "buchberger", "groebner.buchberger", "buchberger"),
    ("lattice_lab.workflows", "_binomial_buchberger", "groebner.binomial_engine",
     "engine"),
    ("lattice_lab.workflows", "intersect", "groebner.intersect", None),
    ("lattice_lab.workflows", "ideal_equal", "groebner.ideal_equal", None),
    ("lattice_lab.workflows", "initial_ideal", "groebner.initial_ideal", None),
    ("lattice_lab.workflows", "smith_normal_form", "snf", None),
    ("lattice_lab.workflows", "enumerate_admissible_sets", "lattice.enumerate",
     "enumerate"),
    ("lattice_lab.workflows", "restrict_to_complement", "lattice.restrict", None),
    ("lattice_lab.groebner:ReducedGB", "reduce", "groebner.reduce", None),
)
# Poly operators, timed only when called from the workflows module.
ARITH_BINDINGS = tuple(("lattice_lab.poly:Poly", op, "poly.arith", None)
                       for op in ("__add__", "__sub__", "__mul__"))
# Marks a buchberger span that took the binomial path; not a span itself.
FLAG_BINDING = ("lattice_lab.groebner", "_binomial_buchberger", None, "flag")
SETUP_BINDINGS = (
    ("lattice_lab.fixtures", "build_fixture", "fixtures.build", None),
    ("lattice_lab.fixtures", "build_lattice", "lattice.build", None),
)

_ARITH_CALLER = "lattice_lab.workflows"

# Bindings each workload must hit in a traced run, so that a rename cannot
# silently zero a layer.
_ALL = ("lattice_lab.cli.main", "lattice_lab.poly:Poly.__sub__")
_DECOMPOSE_CORE = (
    "lattice_lab.workflows.saturate", "lattice_lab.workflows.buchberger",
    "lattice_lab.groebner._binomial_buchberger",
    "lattice_lab.groebner:ReducedGB.reduce", "lattice_lab.workflows.intersect",
    "lattice_lab.workflows.ideal_equal", "lattice_lab.workflows.initial_ideal",
    "lattice_lab.workflows.smith_normal_form",
    "lattice_lab.workflows.enumerate_admissible_sets",
    "lattice_lab.workflows.restrict_to_complement",
)
# Side counters that read the caller's frame count as hits of their own when
# the frame matched, so that renaming that caller or local is caught too.
COMPLEMENT_SEEN = "lattice_lab.workflows._component_gens:sub -> saturate"
FROM_PRIMES = "lattice_lab.workflows.minimal_primes -> buchberger"
_FRAME_HITS = (COMPLEMENT_SEEN, FROM_PRIMES)
EXPECTED_HITS = {
    "decompose": _ALL + _DECOMPOSE_CORE + _FRAME_HITS
    + ("lattice_lab.cli.minimal_primes",),
    "scan": _ALL + ("lattice_lab.cli.squarefree_order_scan",
                    "lattice_lab.workflows._binomial_buchberger"),
    "certify": _ALL + _DECOMPOSE_CORE + _FRAME_HITS + (
        "lattice_lab.cli.radical_certificate", "lattice_lab.cli.lk_suite",
        "lattice_lab.workflows.minimal_primes"),
}
EXPECTED_SETUP_HITS = ("lattice_lab.fixtures.build_fixture",
                       "lattice_lab.fixtures.build_lattice")


def _resolve(target):
    module_name, _, cls = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class Tracer:
    """Span stack plus per-layer [calls, self seconds] and side counters."""

    def __init__(self):
        self.stats = {}  # layer key -> [calls, self_s]
        self.hits = {}  # binding label -> calls through the wrapper
        self.missing = []  # bindings that could not be wrapped
        self.wall_s = 0.0  # summed duration of root spans
        self._stack = []  # open spans: [layer key, child seconds, hook state]
        self._patches = []
        self._primes = []  # open minimal_primes contexts
        # side counters
        self.op_index = 0
        self.primes = {"admissible": 0, "unique": 0, "unique_ok": 0,
                       "minimal": 0}
        self.binomial_buchberger = 0
        self.sat_complements = []  # complement lattice per saturation, or None
        self.leading_sets = set()  # (operation index, leading-term set)

    # -- installation --------------------------------------------------------

    def install(self, bindings):
        for target, attr, key, hook in bindings:
            label = f"{target}.{attr}"
            try:
                owner = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            self.hits[label] = 0
            if hook == "flag":
                wrapper = self._flag(original, label)
            elif key == "poly.arith":
                wrapper = self._arith(original, label)
            else:
                wrapper = self._span(key, original, label, hook)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _span(self, key, fn, label, hook):
        entry = self.stats.setdefault(key, [0, 0.0])
        hits = self.hits
        stack = self._stack
        clock = time.perf_counter
        enter = getattr(self, f"_enter_{hook}", None) if hook else None
        leave = getattr(self, f"_leave_{hook}", None) if hook else None

        def wrapper(*args, **kwargs):
            hits[label] += 1
            span = [key, 0.0, None]
            if enter is not None:
                span[2] = enter(sys._getframe(1))
            stack.append(span)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                entry[0] += 1
                entry[1] += dt - span[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.wall_s += dt
                if leave is not None:
                    leave(span[2], result)

        return wrapper

    def _arith(self, fn, label):
        spanned = self._span("poly.arith", fn, label, None)

        def wrapper(*args):
            if sys._getframe(1).f_globals.get("__name__") != _ARITH_CALLER:
                return fn(*args)
            return spanned(*args)

        return wrapper

    def _flag(self, fn, label):
        hits = self.hits
        stack = self._stack

        def wrapper(*args, **kwargs):
            if (stack and stack[-1][0] == "groebner.buchberger"
                    and sys._getframe(1).f_code.co_name == "buchberger"):
                hits[label] += 1
                stack[-1][2]["binomial"] = True
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks: enter gets the caller's frame, leave gets the result ---------

    def _enter_op(self, caller):
        self.op_index += 1

    def _enter_primes(self, caller):
        ctx = {"admissible": 0, "gb_calls": 0, "bases": set()}
        self._primes.append(ctx)
        return ctx

    def _leave_primes(self, ctx, result):
        self._primes.pop()  # spans nest, so ctx is the innermost
        # admissible sets without generators all share the key ()
        unique = len(ctx["bases"]) + (ctx["admissible"] > ctx["gb_calls"])
        p = self.primes
        p["admissible"] += ctx["admissible"]
        p["unique"] += unique
        if result is not None:  # None when IntersectionMismatch was raised
            p["unique_ok"] += unique
            p["minimal"] += len(result)

    def _leave_enumerate(self, state, result):
        if self._primes and result is not None:
            self._primes[-1]["admissible"] += len(result)

    def _frame_hit(self, label):
        self.hits[label] = self.hits.get(label, 0) + 1

    def _enter_buchberger(self, caller):
        from_primes = caller.f_code.co_name == "minimal_primes"
        if from_primes:
            self._frame_hit(FROM_PRIMES)
        return {"from_primes": from_primes, "binomial": False}

    def _leave_buchberger(self, state, result):
        if state["binomial"]:
            self.binomial_buchberger += 1
        if state["from_primes"] and self._primes and result is not None:
            self._primes[-1]["gb_calls"] += 1
            self._primes[-1]["bases"].add(result.basis)

    def _enter_saturate(self, caller):
        sub = None
        if caller.f_code.co_name == "_component_gens":
            sub = caller.f_locals.get("sub")
        if sub is not None:
            self._frame_hit(COMPLEMENT_SEEN)
        self.sat_complements.append(sub)

    def _leave_engine(self, state, result):
        if result is not None:
            self.leading_sets.add(
                (self.op_index, frozenset(e[1] for e in result)))

    # -- results -------------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, (0, 0.0))[0]

    def self_s(self, key):
        return self.stats.get(key, (0, 0.0))[1]

    def dead_bindings(self, expected):
        return [label for label in expected
                if label in self.missing or not self.hits.get(label)]
