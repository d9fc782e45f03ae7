"""Named lattice builders and JSON import/export.

Fixture spec strings: ``Q``, ``N``, ``R``, ``M3``, ``N5``, ``Chain:m``,
``Lk:n:k``, ``DivisorLadder:n``.
"""

from __future__ import annotations

import json
import string

from .errors import BadParameters
from .lattice import build_lattice

# nine-element lattice: an eight-element distributive lattice with one
# diamond [c, h] spanned by the middles d, e, f
_N_COVERS = [
    ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"), ("c", "f"),
    ("d", "g"), ("d", "h"), ("e", "h"), ("f", "h"), ("g", "l"), ("h", "l"),
]

# seven-element lattice with squarefree lex initial ideal
_Q_COVERS = [
    ("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "e"),
    ("d", "f"), ("e", "g"), ("f", "g"),
]


def chain(m):
    """Total order on m elements."""
    if m < 1:
        raise BadParameters("chain length must be >= 1")
    if m <= 26:
        names = list(string.ascii_lowercase[:m])
    else:
        names = [f"e{i}" for i in range(1, m + 1)]
    return build_lattice(names, list(zip(names, names[1:])))


def diamond_m3():
    """Five-element diamond: three pairwise-incomparable middles."""
    els = ["a", "b1", "b2", "b3", "e"]
    covers = [("a", "b1"), ("a", "b2"), ("a", "b3"),
              ("b1", "e"), ("b2", "e"), ("b3", "e")]
    return build_lattice(els, covers)


def pentagon_n5():
    """Five-element pentagon: chain c < f against the lone middle b."""
    els = ["a", "b", "c", "e", "f"]
    covers = [("a", "c"), ("c", "f"), ("f", "e"), ("a", "b"), ("b", "e")]
    return build_lattice(els, covers)


def ladder(n):
    """Two-rail grid x_1..x_n, y_1..y_n with x_i < y_i (divisors of 2*3^(n-1))."""
    if n < 1:
        raise BadParameters("ladder size must be >= 1")
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    covers = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    covers += list(zip(xs, ys))
    return build_lattice(xs + ys, covers)


def divisor_ladder(n):
    """Divisor lattice of 2*3^n: a ladder with chains of length n+1."""
    if n < 1:
        raise BadParameters("divisor ladder parameter must be >= 1")
    return ladder(n + 1)


def lk(n, k):
    """Ladder of size n with an extra element z on the diagonal of square k.

    Covers: the ladder's, plus x_k < z < y_{k+1}.
    """
    if not (1 <= k <= n - 1):
        raise BadParameters(f"need n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    covers = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    covers += list(zip(xs, ys))
    covers += [(f"x{k}", "z"), ("z", f"y{k + 1}")]
    return build_lattice(xs + ys + ["z"], covers)


def lattice_n():
    """Nine-element modular non-distributive lattice of height four."""
    return build_lattice(list("abcdefghl"), _N_COVERS)


def lattice_q():
    """Seven-element lattice with a squarefree lex initial ideal."""
    return build_lattice(list("abcdefg"), _Q_COVERS)


def lattice_r():
    """The nine-element lattice N with one extra element m between b and g."""
    covers = _N_COVERS + [("b", "m"), ("m", "g")]
    return build_lattice(list("abcdefghl") + ["m"], covers)


# name -> (builder, number of integer parameters), in listing order
_FIXTURES = {
    "Chain": (chain, 1),
    "M3": (diamond_m3, 0),
    "N5": (pentagon_n5, 0),
    "DivisorLadder": (divisor_ladder, 1),
    "Lk": (lk, 2),
    "N": (lattice_n, 0),
    "Q": (lattice_q, 0),
    "R": (lattice_r, 0),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def build_fixture(spec):
    """Build a fixture from a spec string such as ``Q`` or ``Lk:3:1``.

    The parameters are parsed as integers before the name is looked up;
    every failure raises BadParameters.
    """
    name, *parts = spec.split(":")
    try:
        params = [int(x) for x in parts]
    except ValueError as exc:
        raise BadParameters(str(exc)) from exc
    if name not in _FIXTURES:
        raise BadParameters(f"unknown fixture {name!r}")
    builder, arity = _FIXTURES[name]
    if len(params) != arity:
        raise BadParameters(f"expected {arity} parameters, got {len(params)}")
    return builder(*params)


def lattice_to_json(lattice):
    return json.dumps(
        {"elements": list(lattice.elements),
         "covers": [list(c) for c in lattice.covers]},
        indent=2,
    )


def lattice_from_json(text):
    """Lattice of a {"elements": [...], "covers": [[lower, upper], ...]}
    document; ValueError when the document has another shape."""
    data = json.loads(text)
    if not isinstance(data, dict) or not {"elements", "covers"} <= data.keys():
        raise ValueError('expected an object with "elements" and "covers"')
    elements = data["elements"]
    if not (isinstance(elements, list)
            and all(isinstance(e, str) for e in elements)):
        raise ValueError('"elements" must be a list of strings')
    covers = data["covers"]
    if not (isinstance(covers, list) and all(
            isinstance(c, list) and len(c) == 2
            and all(isinstance(e, str) for e in c) for c in covers)):
        raise ValueError('"covers" must be a list of [lower, upper] string pairs')
    return build_lattice(elements, [tuple(c) for c in covers])
