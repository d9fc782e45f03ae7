"""Packed-monomial fast paths against independent references.

* ``_Ctx.lcm`` (guard-bit max-select) against a per-field loop;
* the order-aligned packing of ``_Ctx``: keys by the linear formula against
  the order's weights, and unpacking, divisibility, lcm and repacking
  against exponent tuples;
* ``ReducedGB.reduce`` on a binomial basis (term by term) against the
  generic (monic, field-coefficient) normal form of the same ideal;
* ``ExponentOverflow`` where a packed exponent outgrows its field or a
  ``Poly`` exponent reaches ``MAX_EXPONENT``;
* byte-identical CLI ``--json`` output against captured golden files.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lattice_lab import (
    ExponentOverflow,
    PolyRing,
    buchberger,
    degrevlex,
    lex,
)
from lattice_lab.cli import main
from lattice_lab.fixtures import lattice_r
from lattice_lab.groebner import _Ctx
from lattice_lab.lattice import enumerate_admissible_sets
from lattice_lab.poly import MAX_EXPONENT, BlockOrder
from lattice_lab.workflows import _component_gens, join_meet_ideal

P = 32003
FIELD_MAX = (1 << 15) - 1

# -- guard-bit lcm ------------------------------------------------------------


def _reference_lcm(ctx, a, b):
    ea, eb = ctx.unpack(a), ctx.unpack(b)
    m = tuple(max(x, y) for x, y in zip(ea, eb))
    return ctx.pack(m), sum(m)


_field = st.one_of(st.integers(0, 3), st.integers(FIELD_MAX - 3, FIELD_MAX),
                   st.integers(0, FIELD_MAX))


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_field, min_size=n, max_size=n),
                        st.lists(_field, min_size=n, max_size=n))))
@settings(max_examples=200)
def test_lcm_matches_per_field_reference(case):
    n, ea, eb = case
    R = PolyRing(tuple(f"v{i}" for i in range(n)))
    ctx = _Ctx(R, degrevlex(R.variables))
    a, b = ctx.pack(ea), ctx.pack(eb)
    assert ctx.lcm(a, b) == _reference_lcm(ctx, a, b)
    assert ctx.lcm(b, a) == _reference_lcm(ctx, a, b)


def test_lcm_degree_past_sixteen_bits():
    for n in (1, 2, 3, 4, 7, 40):
        R = PolyRing(tuple(f"v{i}" for i in range(n)))
        ctx = _Ctx(R, degrevlex(R.variables))
        top = ctx.pack((FIELD_MAX,) * n)
        alt = ctx.pack(tuple(FIELD_MAX if i % 2 else 0 for i in range(n)))
        assert ctx.lcm(top, alt) == (top, n * FIELD_MAX)
        assert ctx.lcm(0, alt) == (alt, (n // 2) * FIELD_MAX)
    assert 40 * FIELD_MAX >= 1 << 16


# -- order-aligned packing ----------------------------------------------------


@st.composite
def _orders(draw, ring):
    """A lex, degrevlex or BlockOrder (one or two dropped variables) order."""
    kind = draw(st.sampled_from((lex, degrevlex)))
    order = kind(tuple(draw(st.permutations(ring.variables))))
    drop = draw(st.integers(0, min(2, ring.nvars)))
    if drop:
        order = BlockOrder(tuple(draw(st.permutations(ring.variables))[:drop]),
                           order)
    return order


@given(st.data())
@settings(max_examples=300)
def test_packing_layout_matches_exponent_tuples(data):
    """Each context packs in its order's own field layout: the linear key
    must equal the dot product with the order's weights, and unpacking,
    divisibility, lcm and repacking must agree with exponent tuples.  One
    variable is covered, where a single-index itemgetter returns a scalar."""
    n = data.draw(st.integers(1, 9))
    R = PolyRing(tuple(f"v{i}" for i in range(n)))
    order, other = data.draw(_orders(R)), data.draw(_orders(R))
    ctx, ctx2 = _Ctx(R, order), _Ctx(R, other)
    weights = order.weights(R)
    mono = st.tuples(*[_field] * n)
    a, b = data.draw(mono), data.draw(mono)
    if data.draw(st.booleans()):
        b = tuple(map(max, a, b))  # a divides b
    for m in (a, b):
        key, packed = ctx.key_pack(m)
        assert key == sum(e * w for e, w in zip(m, weights))
        assert ctx.key_packed(packed) == key
        assert packed == ctx.pack(m)
        assert ctx.unpack(packed) == m
        assert ctx2.unpack(ctx2.repacker(ctx)(packed)) == m
    pa, pb = ctx.pack(a), ctx.pack(b)
    assert ctx.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    lcm = tuple(map(max, a, b))
    assert ctx.lcm(pa, pb) == (ctx.pack(lcm), sum(lcm))


# -- binomial normal form -----------------------------------------------------

VARS = ("x", "y", "z", "w")
_mono = st.tuples(*(st.integers(0, 3) for _ in VARS))


def _binomials(ring, pairs, monos):
    gens = [ring.monomial(a) - ring.monomial(b) for a, b in pairs]
    return gens + [ring.monomial(m) for m in monos]


def _generic_twin(gb):
    """The ideal of a nonzero reduced basis through the generic engine: a
    four-term multiple of a basis element forces the generic elements."""
    ring = gb.ring
    g = gb.basis[0]
    twin = buchberger(list(gb.basis) + [g * (2 * ring.var(ring.variables[0]) + 3)],
                      gb.order, ring=ring)
    assert twin._binomial is None and twin == gb
    return twin


def _poly(ring, terms):
    """Sum of terms c/d * m (c over GF(p)): any term count, any coefficients."""
    return sum((ring.monomial(m, Fraction(c, d) if ring.char == 0 else c)
                for m, c, d in terms), ring.zero())


@given(
    char=st.sampled_from((0, P)),
    kind=st.sampled_from(("lex", "degrevlex")),
    perm=st.permutations(VARS),
    pairs=st.lists(st.tuples(_mono, _mono), min_size=1, max_size=4),
    monos=st.lists(_mono, max_size=1),
    terms=st.lists(st.tuples(_mono, st.integers(-40, 40), st.integers(1, 6)),
                   max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_binomial_reduce_matches_generic_normal_form(char, kind, perm, pairs,
                                                      monos, terms):
    R = PolyRing(VARS, char)
    order = (lex if kind == "lex" else degrevlex)(tuple(perm))
    gb = buchberger(_binomials(R, pairs, monos), order, ring=R)
    assert gb._binomial is not None  # pure differences take the fast path
    assume(gb.basis)  # the zero ideal has no element to multiply
    generic = _generic_twin(gb)
    f = _poly(R, terms)
    assert gb.reduce(f) == generic.reduce(f)
    for g in gb.basis:
        assert not gb.reduce(g * f)


def test_binomial_reduce_on_component_bases():
    # the dominance filter reduces component generators modulo component bases
    L = lattice_r()
    for char in (0, P):
        ring = join_meet_ideal(L, char).ring
        comps = [_component_gens(L, a, ring).generators
                 for a in enumerate_admissible_sets(L)]
        rng = random.Random(5)
        for gens in rng.sample(comps, 6):
            if not gens:
                continue
            gb = buchberger(gens, ring.default_order, ring=ring)
            generic = _generic_twin(gb)
            for other in rng.sample(comps, 6):
                for g in other:
                    assert gb.reduce(g) == generic.reduce(g)


# -- exponent overflow --------------------------------------------------------


def test_reduce_past_field_width_raises():
    # x^9 -> y^36000 does not fit a 15-bit field (it used to wrap to y^3232)
    R = PolyRing(("x", "y"))
    gb = buchberger([R.from_string("x - y^4000")], lex(("x", "y")))
    assert gb.reduce(R.from_string("x^8")) == R.monomial((0, 32000))
    with pytest.raises(ExponentOverflow):
        gb.reduce(R.from_string("x^9"))
    generic = buchberger([R.from_string("x - 2*y^4000")], lex(("x", "y")))
    with pytest.raises(ExponentOverflow):
        generic.reduce(R.from_string("x^9"))


def test_buchberger_past_field_width_raises():
    # (1, 1) is a common zero, so the old answer (x, y) was wrong
    R = PolyRing(("x", "y"))
    for gens in (("x^3000 - y", "y^3000 - x"), ("x^3000 - 2*y", "y^3000 - x")):
        with pytest.raises(ExponentOverflow):
            buchberger([R.from_string(g) for g in gens], lex(("x", "y")))


def test_cli_exponent_overflow_exits_1(capsys, monkeypatch):
    def overflowing(lattice, char=0):
        R = PolyRing(("x", "y"), char)
        return buchberger([R.from_string("x^3000 - y"), R.from_string("y^3000 - x")],
                          lex(("x", "y")))

    monkeypatch.setattr("lattice_lab.cli.minimal_primes", overflowing)
    assert main(["primes", "--fixture", "Q"]) == 1
    captured = capsys.readouterr()
    assert "exceeds 32767" in captured.err
    assert captured.out == ""


def test_poly_past_max_exponent_raises_typed():
    R = PolyRing(("x", "y"))
    x = R.var("x")
    assert x ** 16000 * x ** (MAX_EXPONENT - 16001) == R.monomial((MAX_EXPONENT - 1, 0))
    with pytest.raises(ExponentOverflow):
        x ** 20000 * x ** 20000
    with pytest.raises(ExponentOverflow):
        R.monomial((0, MAX_EXPONENT))
    with pytest.raises(ValueError) as info:  # negative exponents are not overflow
        R.monomial((-1, 0))
    assert not isinstance(info.value, ExponentOverflow)


def test_cli_poly_overflow_exits_1(capsys, monkeypatch):
    def overflowing(lattice, char=0):
        x = PolyRing(("x",), char).var("x")
        return x ** 20000 * x ** 20000

    monkeypatch.setattr("lattice_lab.cli.minimal_primes", overflowing)
    assert main(["primes", "--fixture", "Q"]) == 1
    captured = capsys.readouterr()
    assert f"exceeds {MAX_EXPONENT - 1}" in captured.err
    assert captured.out == ""


# -- golden CLI capture -------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# a closure lattice whose decomposition check neither the initial-ideal
# certificate nor a colon witness settles, so the intersection fold does;
# it lives outside golden/, which holds captures only
FOLD9 = str(Path(__file__).resolve().parent / "data" / "closure_fold9.json")
# B3 without a coatom: some orders of each kind are squarefree and some not
CUBE = str(Path(__file__).resolve().parent / "data" / "cube_minus_coatom.json")
# a closure lattice on which a 300-order sample finds some orders of each
# kind squarefree and some not, so whole cones and the generator mask act
MIXED9 = str(Path(__file__).resolve().parent / "data" / "closure_mixed9.json")
GOLDEN_RUNS = {
    f"primes_{fx.replace(':', '_')}_char{c}": ["primes", "--fixture", fx, "--char", str(c)]
    for fx in ("Q", "R", "Lk:5:2", "Lk:6:3") for c in (0, P)
}
GOLDEN_RUNS.update({
    "radical_N": ["radical", "--fixture", "N"],
    "radical_R": ["radical", "--fixture", "R"],
    "gb_Q": ["gb", "--fixture", "Q"],
    "ini_Lk_3_1": ["ini", "--fixture", "Lk:3:1"],
    "scan_N_sample_seed11": ["scan", "--fixture", "N", "--sample", "300", "--seed", "11"],
    "scan_N5_exhaustive": ["scan", "--fixture", "N5", "--exhaustive", "--jobs", "1"],
    "scan_R_sample_seed5": ["scan", "--fixture", "R", "--sample", "100", "--seed", "5"],
    "scan_Q_exhaustive": ["scan", "--fixture", "Q", "--exhaustive"],
    "scan_cube_minus_coatom_exhaustive": ["scan", "--input", CUBE, "--exhaustive"],
    "scan_closure_mixed9_sample_seed2": ["scan", "--input", MIXED9, "--sample", "300",
                                         "--seed", "2"],
    "lk_4_2_char0": ["lk", "--n", "4", "--k", "2"],
    "lk_4_2_char32003": ["lk", "--n", "4", "--k", "2", "--char", str(P)],
    "gb_Q_lex": ["gb", "--fixture", "Q", "--order", "lex:d,a,g,c,f,b,e"],
    "gb_Q_degrevlex_perm": ["gb", "--fixture", "Q", "--order", "degrevlex:g,b,e,a,f,c,d"],
    "ini_N_lex": ["ini", "--fixture", "N", "--order", "lex:h,c,a,l,e,g,b,f,d"],
    "ini_N_degrevlex_perm": ["ini", "--fixture", "N", "--order",
                             "degrevlex:e,l,b,h,a,d,g,c,f"],
    "radical_N_char32003": ["radical", "--fixture", "N", "--char", str(P)],
    "primes_Lk_8_4_char0": ["primes", "--fixture", "Lk:8:4", "--char", "0"],
    "radical_fold9": ["radical", "--input", FOLD9],
    "primes_fold9_char0": ["primes", "--input", FOLD9, "--char", "0"],
    "primes_Lk_7_3_char0": ["primes", "--fixture", "Lk:7:3", "--char", "0"],
    # the rank-order walk and the basic-row domination rule at scale:
    # 2,653 admissible sets, of which 255 need a Hermite basis
    "primes_Lk_10_5_char0": ["primes", "--fixture", "Lk:10:5", "--char", "0"],
    "lk_6_3_char0": ["lk", "--n", "6", "--k", "3"],
    "radical_R_char32003": ["radical", "--fixture", "R", "--char", str(P)],
    # default sample size: Lk:5:2 settles mostly on degree-3 seeds, and on
    # DivisorLadder:4 every order is squarefree, so only whole cones act
    "scan_Lk_5_2_default": ["scan", "--fixture", "Lk:5:2"],
    "scan_DivisorLadder_4_default": ["scan", "--fixture", "DivisorLadder:4"],
    # one family at a time: a wrong degrevlex flip of the one rule set
    # would move these counts
    "scan_cube_minus_coatom_exhaustive_degrevlex": ["scan", "--input", CUBE, "--exhaustive",
                                                    "--family", "degrevlex"],
    "scan_closure_mixed9_sample_seed2_degrevlex": ["scan", "--input", MIXED9, "--sample",
                                                   "300", "--seed", "2", "--family",
                                                   "degrevlex"],
    "scan_closure_mixed9_sample_seed2_lex": ["scan", "--input", MIXED9, "--sample", "300",
                                             "--seed", "2", "--family", "lex"],
    # 1,190 cones, 640 of them holding orders of one kind only, and a witness
    "scan_closure_mixed9_exhaustive": ["scan", "--input", MIXED9, "--exhaustive"],
    # certify runs that start from bases the verb holds: the P_∅ saturation
    # from I's default-order basis, lk's I + (z) and I + (x4 - y3) from I's
    "radical_Lk_6_3_char0": ["radical", "--fixture", "Lk:6:3", "--char", "0"],
    "radical_Lk_6_3_char32003": ["radical", "--fixture", "Lk:6:3", "--char", str(P)],
    "lk_6_3_char32003": ["lk", "--n", "6", "--k", "3", "--char", str(P)],
})
GOLDEN_RUNS.update({
    f"check_{fx.replace(':', '_')}": ["check", "--fixture", fx]
    for fx in ("Q", "N", "N5", "Lk:3:1")
})


def test_golden_files_match_runs():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(GOLDEN_RUNS)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_json_matches_golden(name, capsys):
    code = main(GOLDEN_RUNS[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == expected
    json.loads(out)
