import json
import random

import pytest

from flatcheck.expr import render_expr
from flatcheck.report import AnalysisReport
from flatcheck.sysdsl import (DslError, DuplicateEquation,
                              HigherInputDerivativeInDrift, MissingEquation,
                              SyntaxErr, UndeclaredIdentifier, emit_report,
                              parse_system, render_system, tokenize)

from conftest import FIXTURES, load_fixture, random_system


def test_parse_chained(chained):
    assert chained.n == 6 and chained.m == 2
    assert chained.state_names[0] == "x11"
    assert render_expr(chained.f[5]) == "u1*u2"
    assert len(chained.declared_flat_outputs) == 2


def test_parse_pendulum_trig_and_param(pendulum):
    assert pendulum.n == 6 and pendulum.m == 2
    assert "eps" in pendulum.params
    bases = [v.label for v in pendulum.trig_bases()]
    assert bases == ["theta1"]


def test_missing_equation():
    with pytest.raises(MissingEquation):
        parse_system("system s\nstate x1 x2\ninput u\ndot x1 = x2\n")


def test_duplicate_equation():
    with pytest.raises(DuplicateEquation):
        parse_system("system s\nstate x1\ninput u\ndot x1 = u\ndot x1 = u\n")


def test_declarations_reject_a_name_already_declared():
    tail = "dot x1 = u\n"
    for text in ("system s\nstate x1 x1\ninput u\n",        # state, state
                 "system s\nparam x1\nstate x1\ninput u\n",  # state, param
                 "system s\nstate x1\ninput u x1\n",        # input, state
                 "system s\nstate x1\ninput u\nparam u\n"):  # param, input
        with pytest.raises(DslError, match="duplicate name"):
            parse_system(text + tail)


def test_declarations_reject_the_tan_half_prefix():
    # tanhalf_<base> names the internal tan-half parameter of a trig base;
    # declared, it would be that same variable
    tail = "dot x1 = u\n"
    for text in ("system s\nstate x1 tanhalf_x1\ninput u\n",
                 "system s\nstate x1\ninput u tanhalf_u\n",
                 "system s\nstate x1\ninput u\nparam tanhalf_x2\n",
                 "system s\nstate x1\ninput u\nparam tanhalf_ = 1\n"):
        with pytest.raises(DslError, match="reserved"):
            parse_system(text + tail)
    parse_system("system s\nstate x1\ninput u\nparam tanhalf\n" + tail)


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifier):
        parse_system("system s\nstate x1\ninput u\ndot x1 = y\n")


def test_higher_derivative_rejected_in_drift():
    with pytest.raises(HigherInputDerivativeInDrift):
        parse_system("system s\nstate x1\ninput u\ndot x1 = u_1\n")


def test_derivative_identifiers_allowed_in_flatoutput():
    s = parse_system("system s\nstate x1\ninput u\ndot x1 = u\nflatoutput u_2\n")
    (e,) = s.declared_flat_outputs
    assert render_expr(e) == "u_2"


def test_syntax_error_carries_location():
    try:
        parse_system("system s\nstate x1\ninput u\ndot x1 = (u\n")
    except SyntaxErr as err:
        assert err.line == 4 and err.col is not None
    else:
        pytest.fail("expected a syntax error")


def test_reserved_words_rejected():
    with pytest.raises(DslError):
        parse_system("system dot\nstate x1\ninput u\ndot x1 = u\n")


def test_point_and_param_values():
    s = parse_system("system s\nstate x1\ninput u\nparam a = 3/2\n"
                     "dot x1 = a*u\npoint x1 = 1/4\n")
    pt = s.base_point().resolved()
    assert pt[s.state(1)] == 0.25
    assert pt[s.param("a")] == 1.5


def test_roundtrip_fixtures():
    for name in ("chained.flt", "driftless.flt", "clm.flt", "pendulum.flt",
                 "threeinput.flt"):
        s = load_fixture(name)
        again = parse_system(render_system(s))
        assert again.f == s.f
        assert again.state_names == s.state_names
        assert again.declared_flat_outputs == s.declared_flat_outputs


def test_roundtrip_randomized():
    rng = random.Random(777)
    for _ in range(60):
        s = random_system(rng)
        t = parse_system(render_system(s))
        assert t.f == s.f and t.input_names == s.input_names


def _reconstruct(toks):
    lines = {}
    for t in toks:
        lines.setdefault(t.line, []).append(t)
    out = []
    for ln in sorted(lines):
        out.append(" ".join(t.text for t in lines[ln] if t.kind != "NEWLINE"))
    return "\n".join(out) + "\n"


def _drop_token(toks, idx):
    kept = [t for i, t in enumerate(toks) if i != idx]
    if toks[idx].kind == "NEWLINE":
        # merge the two lines the deleted separator used to split
        line = toks[idx].line
        merged = []
        for t in kept:
            if t.line > line:
                t = type(t)(t.kind, t.text, t.line - 1, t.col)
            merged.append(t)
        return _reconstruct(merged)
    return _reconstruct(kept)


def test_token_deletion_fuzz_rejected_everywhere():
    for name in ("chained.flt", "driftless.flt", "clm.flt", "pendulum.flt",
                 "threeinput.flt"):
        text = (FIXTURES / name).read_text()
        toks = tokenize(text)
        # sanity: the reconstruction itself parses
        parse_system(_reconstruct(toks))
        for i in range(len(toks)):
            if i == len(toks) - 1:
                continue   # trailing newline: deleting it is the identity
            mutated = _drop_token(toks, i)
            with pytest.raises(DslError):
                parse_system(mutated)


def test_emit_report_empty_trace():
    rep = AnalysisReport(verdict="not_p2_flat", j_min=None,
                         input_permutation=None, k_star=None, kappa=None,
                         flat_outputs=None, sigma_trace=[], singular_locus=[],
                         seed=0, system="s")
    doc = json.loads(emit_report(rep))
    assert doc["sigma_trace"] == []
    assert doc["verdict"] == "not_p2_flat"


def test_emit_report_chained_and_expression_roundtrip(chained):
    from flatcheck.flatness import Budgets, analyze
    rep = analyze(chained, Budgets(seed=0))
    doc = json.loads(emit_report(rep))
    assert doc["j_min"] == [4, 0]
    assert list(doc.keys())[0] == "verdict"
    # emitted expression strings reparse to identical canonical expressions
    src = render_system(chained).rstrip() + "\nflatoutput %s\n" % \
        ", ".join(doc["flat_outputs"])
    lines = [l for l in src.split("\n") if l]
    lines = [l for i, l in enumerate(lines)
             if not (l.startswith("flatoutput") and i < len(lines) - 1)]
    reparsed = parse_system("\n".join(lines) + "\n")
    want = {render_expr(e) for e in reparsed.declared_flat_outputs}
    assert want == set(doc["flat_outputs"])
