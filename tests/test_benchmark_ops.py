"""Whole CLI operations of the benchmark's decompose and certify mixes.

The traced benchmark (``perfbench/layers.py``) wraps named entry points and
fails its run when one of them is never hit; these tests install the same
wrappers, so a dropped or renamed call fails here too.  They also pin how
many Polys ``saturate`` builds on such a mix, and check that JSON output
builds no text lines.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lattice_lab import cli, groebner
from lattice_lab.poly import Poly

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(list(argv))
    return status, out.getvalue()


@pytest.mark.parametrize("workload, ops", [
    ("decompose", [("primes", "--fixture", "Lk:6:3", "--json")]),
    ("certify", [("radical", "--fixture", "N", "--json"),
                 ("lk", "--n", "6", "--k", "3", "--json")]),
])
def test_traced_bindings_stay_hit(workload, ops):
    """Every binding the traced benchmark expects of the workload is hit by
    these operations, the caller-frame counters included."""
    layers = _layers()
    with layers.Tracer() as tracer:
        tracer.install(layers.OP_BINDINGS + layers.ARITH_BINDINGS
                       + (layers.FLAG_BINDING,))
        for argv in ops:
            assert _run(*argv)[0] == 0
    assert not tracer.missing
    assert tracer.dead_bindings(layers.EXPECTED_HITS[workload]) == []


# the eight decompose and certify operations the Poly counts are taken on
_MIX = [("primes", "--fixture", "Lk:6:3"), ("primes", "--fixture", "Lk:7:3"),
        ("primes", "--fixture", "R"), ("primes", "--fixture", "Q"),
        ("radical", "--fixture", "N"), ("radical", "--fixture", "R"),
        ("lk", "--n", "6", "--k", "3"),
        ("lk", "--n", "5", "--k", "2", "--char", "32003")]


def test_saturate_builds_only_the_polys_it_returns(monkeypatch):
    """On the mix, the 22 saturations build 142 Polys, one per generator
    they return: generators and 1 - t*f are packed straight into K[x, t],
    and the answer is built from the packed t-free elements.  Building
    every generator in K[x, t] took 337."""
    depth, built, kept = [0], [0], [0]
    init, real = Poly.__init__, groebner.saturate

    def counted_init(self, *args, **kwargs):
        built[0] += depth[0] > 0
        init(self, *args, **kwargs)

    def counted_saturate(*args):
        depth[0] += 1
        try:
            sat = real(*args)
        finally:
            depth[0] -= 1
        kept[0] += len(sat.generators)
        return sat

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr("lattice_lab.workflows.saturate", counted_saturate)
    for argv in _MIX:
        assert _run(*argv, "--json")[0] == 0
    assert built[0] == kept[0] == 142


@pytest.mark.parametrize("argv", [("primes", "--fixture", "R"),
                                  ("radical", "--fixture", "N"),
                                  ("scan", "--fixture", "Q", "--sample", "5"),
                                  ("lk", "--n", "3", "--k", "1")])
def test_json_output_builds_no_text_lines(monkeypatch, argv):
    """A verb hands ``main`` its text lines as a callable, which only text
    output calls."""
    verb = f"_cmd_{argv[0]}"
    real = getattr(cli, verb)
    calls = []

    def watched(args):
        status, report, lines = real(args)
        assert callable(lines)
        return status, report, lambda: calls.append(1) or lines()

    monkeypatch.setattr(cli, verb, watched)
    status, out = _run(*argv, "--json")
    assert status == 0 and json.loads(out) and not calls
    status, out = _run(*argv)
    assert status == 0 and out.strip() and calls == [1]
