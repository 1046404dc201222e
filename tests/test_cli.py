import json
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

PKG = Path(__file__).resolve().parent.parent


def run_cli(*args, env_seed=None):
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG / "src")
    if env_seed is not None:
        env["FLATCHECK_SEED"] = str(env_seed)
    else:
        env.pop("FLATCHECK_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def test_analyze_exit_codes_and_json():
    p = run_cli("analyze", str(FIXTURES / "chained.flt"), "--json", "--seed", "0")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "p2_flat"
    assert doc["j_min"] == [4, 0]
    assert doc["timings_ms"] is None
    want_keys = ["verdict", "j_min", "input_permutation", "k_star", "kappa",
                 "flat_outputs", "sigma_trace", "singular_locus", "seed",
                 "timings_ms", "witness", "initializations", "system",
                 "warnings"]
    assert list(doc.keys()) == want_keys

    p = run_cli("analyze", str(FIXTURES / "pendulum.flt"))
    assert p.returncode == 1


def test_analyze_empty_file(tmp_path):
    empty = tmp_path / "empty.flt"
    empty.write_text("")
    p = run_cli("analyze", str(empty))
    assert p.returncode == 64
    assert "error" in p.stderr


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.flt"
    bad.write_text("system s\nstate x1\ninput u\ndot x1 = (u\n")
    p = run_cli("analyze", str(bad))
    assert p.returncode == 64
    assert "line 4" in p.stderr


def test_verify_paths(tmp_path):
    p = run_cli("verify", str(FIXTURES / "driftless.flt"), "--prolong", "2,0")
    assert p.returncode == 0
    wrong = tmp_path / "wrong.flt"
    wrong.write_text((FIXTURES / "driftless.flt").read_text().replace(
        "flatoutput x1, x2", "flatoutput x3, x4"))
    p = run_cli("verify", str(wrong), "--prolong", "2,0")
    assert p.returncode == 1
    nothing = tmp_path / "nothing.flt"
    nothing.write_text((FIXTURES / "pendulum.flt").read_text())
    p = run_cli("verify", str(nothing))
    assert p.returncode == 64


def test_verify_without_prolong_uses_analysis():
    p = run_cli("verify", str(FIXTURES / "chained.flt"))
    assert p.returncode == 0, p.stdout + p.stderr


def test_bracket_golden():
    p = run_cli("bracket", str(FIXTURES / "chained.flt"), "g0", "g1", "--pow", "2")
    assert p.returncode == 0
    assert p.stdout.strip() == "d/dx12"
    p = run_cli("bracket", str(FIXTURES / "chained.flt"), "g0", "g1", "--pow", "0")
    assert p.stdout.strip() == "d/du1"
    p = run_cli("bracket", str(FIXTURES / "chained.flt"), "g0", "g2", "--pow", "1")
    assert p.stdout.strip() == "-d/dx22 - u1*d/dx3"


def test_bracket_matches_library_call(chained):
    from flatcheck.prolong import build_prolonged
    from flatcheck.jetgeom import ad_pow
    ps = build_prolonged(chained, [0, 0])
    want = ad_pow(ps.g0, ps.gi[1], 2).render()
    p = run_cli("bracket", str(FIXTURES / "chained.flt"), "g0", "g2", "--pow", "2")
    assert p.stdout.strip() == want


def test_lint():
    p = run_cli("lint", str(FIXTURES / "pendulum.flt"))
    assert p.returncode == 0
    assert "n=6, m=2" in p.stdout


def test_env_seed_override():
    a = run_cli("analyze", str(FIXTURES / "driftless.flt"), "--json",
                env_seed=7)
    doc = json.loads(a.stdout)
    assert doc["seed"] == 7
    b = run_cli("analyze", str(FIXTURES / "driftless.flt"), "--json",
                "--seed", "3", env_seed=7)
    assert json.loads(b.stdout)["seed"] == 3


def test_exit_codes_are_total():
    # every run above mapped to one of {0, 1, 2, 64}; spot-check usage errors
    p = run_cli("analyze", "/nonexistent.flt")
    assert p.returncode == 64
    p = run_cli("bracket", str(FIXTURES / "chained.flt"), "g0", "g9")
    assert p.returncode == 64


def test_library_error_exits_internal_not_not_flat(monkeypatch, capsys):
    from flatcheck import cli
    from flatcheck.flatness import InternalError

    def broken(sysdef, budgets):
        raise InternalError("bound failed")

    monkeypatch.setattr(cli, "analyze", broken)
    code = cli.main(["analyze", str(FIXTURES / "driftless.flt")])
    assert code == cli.EXIT_INTERNAL == 70
    assert code != cli.EXIT_NOT_FLAT
    assert "internal error" in capsys.readouterr().err


def test_json_validates_against_published_schema():
    import jsonschema
    schema = json.loads((PKG / "schema" / "report.schema.json").read_text())
    for name in ("chained", "pendulum", "threeinput"):
        p = run_cli("analyze", str(FIXTURES / (name + ".flt")), "--json")
        doc = json.loads(p.stdout)
        jsonschema.validate(doc, schema)


def test_analyze_trace_text_mode():
    p = run_cli("analyze", str(FIXTURES / "driftless.flt"), "--trace")
    assert p.returncode == 0
    assert "sigma_Delta" in p.stdout and "initialization keep=" in p.stdout


def test_inconclusive_exit_code():
    p = run_cli("analyze", str(FIXTURES / "chained.flt"), "--max-k", "1")
    assert p.returncode == 2


def test_verify_all_flat_fixtures_end_to_end():
    for name in ("clm", "threeinput"):
        p = run_cli("verify", str(FIXTURES / (name + ".flt")))
        assert p.returncode == 0, p.stdout + p.stderr


def test_prolong_flag_length_checked():
    p = run_cli("verify", str(FIXTURES / "chained.flt"), "--prolong", "1,2,3")
    assert p.returncode == 64


def test_closed_pipe_is_not_a_verdict():
    # the read end is closed before the child starts, so its report write
    # fails: no traceback, and exit 141 (128 + SIGPIPE), which no verdict uses
    import os
    env = dict(os.environ, PYTHONPATH=str(PKG / "src"))
    env.pop("FLATCHECK_SEED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flatcheck", "analyze",
             str(FIXTURES / "driftless.flt"), "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_budget_flags_are_checked_for_every_subcommand(capsys):
    from flatcheck import cli
    chained = str(FIXTURES / "chained.flt")
    extra = {"analyze": [], "verify": [], "bracket": ["g0", "g1"], "lint": []}
    for command, rest in extra.items():
        for flags in (["--samples", "0"], ["--ansatz-degree", "-2"],
                      ["--max-k", "-1"], ["--max-prolong", "0"]):
            code = cli.main([command, chained, *rest, *flags])
            assert code == cli.EXIT_USAGE, (command, flags)
            assert "must be positive" in capsys.readouterr().err


def test_json_and_trace_are_analyze_flags_only(capsys):
    # verify, bracket and lint print text and no trace, so they reject the
    # two flags as they reject any unknown flag
    from flatcheck import cli
    chained = str(FIXTURES / "chained.flt")
    extra = {"verify": ["--prolong", "0,0"], "bracket": ["g0", "g1"],
             "lint": []}
    for command, rest in extra.items():
        for flag in ("--json", "--trace"):
            code = cli.main([command, chained, *rest, flag])
            assert code == cli.EXIT_USAGE, (command, flag)
            assert "unrecognized arguments: %s" % flag in \
                capsys.readouterr().err
    assert cli.main(["lint", chained]) == cli.EXIT_FLAT
    assert cli.main(["analyze", chained, "--json", "--trace"]) == \
        cli.EXIT_FLAT


def test_any_library_exception_exits_internal(monkeypatch, capsys):
    # a crash that no library error class names (the degree-3 ansatz once
    # raised ValueError from min() of an empty sequence) is no verdict either
    from flatcheck import cli

    def broken(sysdef, budgets):
        raise ValueError("min() arg is an empty sequence")

    monkeypatch.setattr(cli, "analyze", broken)
    code = cli.main(["analyze", "--ansatz-degree", "3",
                     str(FIXTURES / "driftless.flt")])
    assert code == cli.EXIT_INTERNAL == 70
    assert capsys.readouterr().err == \
        "internal error: ValueError: min() arg is an empty sequence\n"


def test_trig_inputs_and_parameters_reach_a_verdict(tmp_path, capsys):
    from flatcheck import cli
    for name, text in (
            ("trig_input", "state x1 x2\ninput u1 u2\n"
                           "dot x1 = sin(u1)\ndot x2 = u2\n"),
            ("trig_param", "state x1 x2\ninput u1\nparam a = 1/2\n"
                           "dot x1 = sin(a)*x2\ndot x2 = u1\n")):
        path = tmp_path / (name + ".flt")
        path.write_text("system %s\n%s" % (name, text))
        code = cli.main(["analyze", "--json", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2) and doc["verdict"] == "p2_flat", name


def test_a_tan_half_declaration_is_a_usage_error(tmp_path, capsys):
    from flatcheck import cli
    path = tmp_path / "tanhalf.flt"
    path.write_text("system s\nstate x1 x2 x3\ninput u1 u2\n"
                    "param tanhalf_x2\ndot x1 = u1 + u2\ndot x2 = x3\n"
                    "dot x3 = tanhalf_x2*(1 + cos(x2))*u1 + sin(x2)*u2\n")
    assert cli.main(["analyze", str(path)]) == cli.EXIT_USAGE == 64
    assert "reserved" in capsys.readouterr().err


def test_a_parameter_under_cos_defaults_off_its_zero(tmp_path, capsys):
    # a parameter without a value is 1, but one under sin/cos is read as a
    # tan-half value, where 1 is the angle pi/2 and cos vanishes; it gets
    # 1/2 (sin 4/5, cos 3/5) instead
    from fractions import Fraction

    from flatcheck import cli
    from flatcheck.expr import cos_var, sin_var
    from flatcheck.sysdsl import parse_system
    text = ("system trig_default\nstate x1 x2\ninput u1 u2\n"
            "param b\nparam c\ndot x1 = sin(u1)*cos(b)\ndot x2 = c*u2\n")
    path = tmp_path / "trig_default.flt"
    path.write_text(text)
    code = cli.main(["analyze", "--json", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == "p2_flat"
    assert not any("vanishes" in w or "rank drops" in w
                   for w in doc["warnings"]), doc["warnings"]
    sysdef = parse_system(text)
    origin = sysdef.base_point().resolved()
    b, c = sysdef.param("b"), sysdef.param("c")
    assert origin[b] == Fraction(1, 2) and origin[c] == 1
    assert origin[cos_var(b)] == Fraction(3, 5)
    assert origin[sin_var(b)] == Fraction(4, 5)
