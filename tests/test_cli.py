import json

import pytest

from lattice_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_chain(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "Chain:5")
    assert code == 0
    assert "distributive: True" in out
    assert "modular: True" in out


def test_check_reports_height_of_graded_lattice(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "N")
    assert code == 0
    assert "graded: True (height 4)" in out.splitlines()


def test_check_reports_witnesses(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "Q")
    assert code == 0
    assert "distributive: False" in out
    assert "pentagon" in out


def test_check_rejects_non_lattice(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "covers": []}))
    code, out, _ = run(capsys, "check", "--input", str(bad))
    assert code == 1
    assert "not a lattice" in out


def test_gb_q_published_basis(capsys):
    code, out, _ = run(capsys, "gb", "--fixture", "Q",
                       "--order", "lex:a,b,c,d,e,f,g")
    assert code == 0
    lines = [l.strip() for l in out.splitlines()[1:] if l.strip()]
    assert lines == ["a*e - b*c", "a*g - c*f", "b*g - e*f",
                     "c*d - c*f", "d*e - e*f"]


def test_ini_json(capsys):
    code, out, _ = run(capsys, "ini", "--fixture", "Lk:3:1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["squarefree"] is False
    assert data["quotient_dim"] == 3


def test_primes_q(capsys):
    code, out, _ = run(capsys, "primes", "--fixture", "Q")
    assert code == 0
    assert "3 minimal primes" in out


def test_radical_n(capsys):
    code, out, _ = run(capsys, "radical", "--fixture", "N", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not_radical"
    assert data["witness"] == "a*d*g*l - a*f*g*l"


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--fixture", "Lk:2:1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total_orders"] == 240
    assert data["any_squarefree"] is False


@pytest.mark.parametrize("flag, value", [("--sample", "0"), ("--sample", "-3"),
                                         ("--jobs", "0"), ("--jobs", "-2")])
def test_scan_empty_is_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "scan", "--fixture", "N", flag, value, "--json")
    assert code == 2
    assert f"{flag} must be at least 1" in err
    assert out == ""


def test_lk_suite_exit_zero(capsys):
    code, out, _ = run(capsys, "lk", "--n", "3", "--k", "1")
    assert code == 0
    assert "overall: pass" in out


def test_fixtures_list_and_dump(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out == "Chain\nM3\nN5\nDivisorLadder\nLk\nN\nQ\nR\n"
    code, out, _ = run(capsys, "fixtures", "--dump", "Q")
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == list("abcdefg")


def test_round_trip_dump_then_check(tmp_path, capsys):
    code, dumped, _ = run(capsys, "fixtures", "--dump", "Q")
    path = tmp_path / "q.json"
    path.write_text(dumped)
    code, via_file, _ = run(capsys, "check", "--input", str(path), "--json")
    assert code == 0
    code, via_fixture, _ = run(capsys, "check", "--fixture", "Q", "--json")
    assert code == 0
    assert json.loads(via_file) == json.loads(via_fixture)


def test_byte_identical_reruns(capsys):
    a = run(capsys, "scan", "--fixture", "Lk:2:1", "--json")
    b = run(capsys, "scan", "--fixture", "Lk:2:1", "--json")
    assert a == b
    c = run(capsys, "primes", "--fixture", "Q", "--json")
    d = run(capsys, "primes", "--fixture", "Q", "--json")
    assert c == d


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "gb")
    assert code == 2
    assert "fixture" in err or "input" in err


def test_unreadable_file_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "--input", "/nonexistent.json")
    assert code == 2


def test_bad_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"elements": ["a", "b"]},
    {"covers": [["a", "b"]]},
    ["a", "b"],
    {"elements": ["a", "b"], "covers": [["a", "z"]]},
    {"elements": ["a", "b", "a"], "covers": [["a", "b"]]},
    {"elements": "ab", "covers": [["a", "b"]]},
    {"elements": [1, 2], "covers": [[1, 2]]},
    {"elements": ["a", "b"], "covers": [["a"]]},
], ids=["no-covers", "no-elements", "not-an-object", "unknown-element",
        "duplicate-names", "elements-not-a-list", "non-string-names",
        "short-cover"])
@pytest.mark.parametrize("verb", ["check", "primes"])
def test_malformed_lattice_input_is_exit_2(tmp_path, capsys, verb, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["Lk:a:1", "Chain:x", "Lk:3:"])
def test_non_integer_fixture_parameters(capsys, spec):
    for verb in ("check", "gb"):
        code, out, err = run(capsys, verb, "--fixture", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid literal for int()")
        assert err.count("\n") == 1


def test_check_unknown_fixture_is_an_error_not_a_lattice_verdict(capsys):
    code, out, err = run(capsys, "check", "--fixture", "Nope:3")
    assert code == 1
    assert out == ""
    assert err == "error: unknown fixture 'Nope'\n"


_CHAR_VERBS = [
    ["check", "--fixture", "Q"], ["gb", "--fixture", "Q"],
    ["ini", "--fixture", "Q"], ["primes", "--fixture", "Q"],
    ["radical", "--fixture", "N"], ["scan", "--fixture", "N5"],
    ["lk", "--n", "3", "--k", "1"],
]


@pytest.mark.parametrize("char", ["-1", "1", "4", "6"])
@pytest.mark.parametrize("argv", _CHAR_VERBS, ids=[a[0] for a in _CHAR_VERBS])
def test_bad_characteristic_is_exit_2(capsys, argv, char):
    code, out, err = run(capsys, *argv, "--char", char)
    assert code == 2
    assert out == ""
    assert err == ("error: --char: characteristic must be 0 or a prime "
                   f"below 3.3e24, got {char}\n")


def test_prime_characteristic_is_accepted(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "Q", "--char", "32003")
    assert code == 0
    code, out, _ = run(capsys, "gb", "--fixture", "Q", "--char", "32003",
                       "--json")
    assert code == 0
    assert json.loads(out)["basis"]


def test_bad_fixture_is_exit_1_with_message(capsys):
    code, _, err = run(capsys, "gb", "--fixture", "Nope:3")
    assert code in (1, 2)
    assert "error" in err


def test_bad_order_kind(capsys):
    code, _, err = run(capsys, "gb", "--fixture", "Q", "--order", "magic:a")
    assert code == 2


@pytest.mark.parametrize("verb", ["gb", "ini"])
@pytest.mark.parametrize("order", ["lex:a,b", "degrevlex:a,b,c,d,e,f,z",
                                   "lex:a,a,b,c,d,e,f"])
def test_bad_order_priority_is_exit_2(capsys, verb, order):
    code, out, err = run(capsys, verb, "--fixture", "Q", "--order", order)
    assert code == 2
    assert "not a permutation" in err
    assert out == ""


def test_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv("LATTICE_LAB_SEED", "123")
    code, out, _ = run(capsys, "scan", "--fixture", "N", "--sample", "25", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 123
    assert data["sample_size"] == 25
    assert data["exhaustive"] is False


@pytest.mark.parametrize("value", ["0", "-3"])
def test_radical_degree_bound_below_one_is_exit_2(capsys, value):
    code, out, err = run(capsys, "radical", "--fixture", "N",
                         "--degree-bound", value, "--json")
    assert code == 2
    assert "--degree-bound must be at least 1" in err
    assert out == ""


def test_radical_small_degree_bound_is_inconclusive(capsys):
    code, out, _ = run(capsys, "radical", "--fixture", "N",
                       "--degree-bound", "3", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "inconclusive"
    assert data["detail"].endswith("no witness up to degree 3")
