import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_lab
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


def test_check_long_chain_under_a_pentagon(tmp_path, capsys):
    # 60 elements: the pentagon comes last in element order
    chain = [f"c{i}" for i in range(1, 56)]
    pent = [f"p{i}" for i in range(5)]
    covers = [[a, b] for a, b in zip(chain, chain[1:] + ["p0"])]
    covers += [["p0", "p1"], ["p1", "p2"], ["p2", "p4"], ["p0", "p3"],
               ["p3", "p4"]]
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"elements": chain + pent, "covers": covers}))
    code, out, _ = run(capsys, "check", "--input", str(path), "--json")
    assert code == 0
    modular = json.loads(out)["checks"][3]
    assert modular == {"name": "modular", "pass": False, "witness": pent}


def _antichain(tmp_path):
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": []}))
    return ["check", "--input", str(path)]


def test_check_rejects_non_lattice(tmp_path, capsys):
    code, out, _ = run(capsys, *_antichain(tmp_path))
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


def test_scan_jobs_is_accepted_and_changes_nothing(capsys):
    """A scan runs in this process; --jobs still parses for existing
    invocations, and the report is the same with any value or none."""
    reports = [run(capsys, "scan", "--fixture", "R", "--sample", "20", "--seed", "3",
                   "--json", *jobs)
               for jobs in ([], ["--jobs", "1"], ["--jobs", "2"])]
    assert reports[0][0] == 0
    assert reports[0] == reports[1] == reports[2]


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


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
    return path


@pytest.mark.parametrize("make", [lambda tmp_path: tmp_path, _latin1_file],
                         ids=["directory", "not-utf8"])
def test_unreadable_input_is_exit_2_with_one_line(tmp_path, capsys, make):
    code, out, err = run(capsys, "check", "--input", str(make(tmp_path)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    {"elements": ["a", "b"], "covers": ["ab"]},
], ids=["no-covers", "no-elements", "not-an-object", "unknown-element",
        "duplicate-names", "elements-not-a-list", "non-string-names",
        "short-cover", "string-cover"])
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


# one working invocation of each verb that computes
_VERBS = [
    ["check", "--fixture", "Q"], ["gb", "--fixture", "Q"],
    ["ini", "--fixture", "Q"], ["primes", "--fixture", "Q"],
    ["radical", "--fixture", "N"], ["scan", "--fixture", "N5", "--jobs", "1"],
    ["lk", "--n", "3", "--k", "1"],
]
_VERB_IDS = [a[0] for a in _VERBS]


@pytest.mark.parametrize("char", ["-1", "1", "4", "6"])
@pytest.mark.parametrize("argv", _VERBS, ids=_VERB_IDS)
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
    assert code == 1
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


@pytest.mark.parametrize("argv", _VERBS, ids=_VERB_IDS)
def test_timings_text_mode_ends_with_time_line(capsys, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, timed, _ = run(capsys, *argv, "--timings")
    assert code == 0
    *lines, last = timed.splitlines()
    assert lines == plain.splitlines()
    assert re.fullmatch(r"time: \d+\.\d+ s", last)


@pytest.mark.parametrize("argv", _VERBS, ids=_VERB_IDS)
def test_timings_json_mode_adds_seconds(capsys, argv):
    code, plain, _ = run(capsys, *argv, "--json")
    assert code == 0
    code, timed, _ = run(capsys, *argv, "--json", "--timings")
    assert code == 0
    data = json.loads(timed)
    assert isinstance(data.pop("timings")["seconds"], float)
    assert data == json.loads(plain)


def test_timings_on_a_non_lattice(tmp_path, capsys):
    argv = _antichain(tmp_path)
    code, out, _ = run(capsys, *argv, "--timings")
    assert code == 1
    assert out.startswith("not a lattice: ")
    assert re.fullmatch(r"time: \d+\.\d+ s", out.splitlines()[-1])
    code, out, _ = run(capsys, *argv, "--json", "--timings")
    assert code == 1
    assert isinstance(json.loads(out)["timings"]["seconds"], float)


def test_fixture_and_input_together_is_exit_2(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(run(capsys, "fixtures", "--dump", "Q")[1])
    code, out, err = run(capsys, "check", "--fixture", "Q", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: pass only one of --fixture or --input\n"


@pytest.mark.parametrize("argv", [["fixtures", "--dump", "Q"],
                                  ["check", "--fixture", "Q", "--json"]],
                         ids=["text", "json"])
def test_closed_stdout_pipe_exits_quietly(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(lattice_lab.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "lattice_lab", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def _readme_blocks(lang):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_readme_examples_run(capsys):
    (library,) = _readme_blocks("python")
    exec(compile(library, "README.md", "exec"), {})
    commands = [shlex.split(line, comments=True)
                for block in _readme_blocks("sh") for line in block.splitlines()
                if line.startswith("lattice-lab ")]
    assert commands
    for argv in commands:
        code = main(argv[1:])
        capsys.readouterr()
        assert code == 0, " ".join(argv)


# -- one parser per process -----------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from lattice_lab import cli

    built = []
    make = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make())
    cli._parser.cache_clear()
    try:
        first = run(capsys, "primes", "--fixture", "Q", "--json")
        second = run(capsys, "primes", "--fixture", "Q", "--json")
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first == second
    golden = Path(__file__).parent / "golden" / "primes_Q_char0.json"
    assert first == (0, golden.read_text(encoding="utf-8"), "")


def test_patched_verb_acts_before_and_after_the_parser_is_built(monkeypatch, capsys):
    """``main`` reads the verb's function, and the library call it makes,
    when the verb runs, so a patch acts whenever it was applied."""
    from lattice_lab import cli

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_cmd_fixtures", lambda args: (0, None, ["first"]))
    assert run(capsys, "fixtures") == (0, "first\n", "")
    monkeypatch.setattr(cli, "_cmd_fixtures", lambda args: (0, None, ["second"]))
    assert run(capsys, "fixtures") == (0, "second\n", "")
    monkeypatch.setattr(cli, "minimal_primes", lambda lattice, char: [])
    code, out, _ = run(capsys, "primes", "--fixture", "Q")
    assert code == 0 and out.startswith("0 minimal primes")


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0), (["primes", "--help"], 0), (["primes", "--bogus"], 2),
    (["nope"], 2), ([], 2), (["lk", "--n", "3"], 2),
])
def test_help_and_usage_errors_repeat_as_from_a_fresh_parser(capsys, argv, status):
    from lattice_lab import cli

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    fresh = outcome(lambda a: cli.make_parser().parse_args(a))
    assert fresh[0] == status
    assert outcome(main) == outcome(main) == fresh
