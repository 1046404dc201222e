import itertools
import random

import pytest

from flatcheck.expr import Expr, render_expr
from flatcheck.flatness import (Budgets, CandidateCountMismatch, Context,
                                Initialization, NotLinearizable, SigmaRun,
                                _rendered, analyze, brunovsky_indices,
                                cns_check, search_flat_outputs, sigma_delta,
                                sigma_gamma_delta, static_linearizable,
                                verify_flat_output)
from flatcheck.jetgeom import MultiIndex, bracket_failures
from flatcheck.prolong import (build_prolonged, delta_filtration,
                               gamma_filtration)
from flatcheck.report import INF
from flatcheck.sysdsl import parse_system

from conftest import load_fixture


def double_integrator():
    return parse_system("system di\nstate x1 x2\ninput u\n"
                        "dot x1 = x2\ndot x2 = u\n")


# -- static linearizability ---------------------------------------------------

def test_static_double_integrator():
    st = static_linearizable(double_integrator())
    assert st.linearizable and st.kappa == (3,)


def test_static_chained_fails(chained):
    st = static_linearizable(chained)
    assert not st.linearizable
    assert st.first_noninvolutive_k == 1


def test_static_pendulum_fails(pendulum):
    st = static_linearizable(pendulum)
    assert not st.linearizable
    assert st.first_noninvolutive_k == 2


# -- Brunovsky indices ---------------------------------------------------------

def test_brunovsky_chained(chained):
    assert brunovsky_indices(build_prolonged(chained, [4, 0])) == (8, 4)


def test_brunovsky_driftless(driftless):
    assert brunovsky_indices(build_prolonged(driftless, [2, 0])) == (4, 4)


def test_brunovsky_clm(clm):
    assert brunovsky_indices(build_prolonged(clm, [0, 3])) == (5, 4)


def test_brunovsky_requires_linearizable(chained):
    with pytest.raises(NotLinearizable):
        brunovsky_indices(build_prolonged(chained, [0, 0]))


# -- theorem-level check -------------------------------------------------------

def test_cns_chained_accepts_minimal(chained):
    res = cns_check(chained, [4, 0])
    assert res.ok and res.k_star == 7
    assert res.cross_check_agrees


def test_cns_chained_rejects_three(chained):
    res = cns_check(chained, [3, 0])
    assert not res.ok
    assert res.violation["condition"] == "gamma_invariance"
    assert res.violation["k"] == 2


def test_cns_driftless_rejects_one(driftless):
    res = cns_check(driftless, [1, 0])
    assert not res.ok
    assert res.violation["condition"] == "involutivity"
    assert res.violation["k"] == 2


def test_cns_requires_zero_component(chained):
    with pytest.raises(ValueError):
        cns_check(chained, [4, 1])


# -- Gamma invariance -----------------------------------------------------------

def test_gamma_invariant_matches_the_full_sweep_on_ps_j(chained, driftless, clm,
                                                        pendulum, threeinput):
    # the former definition: every Gamma_k x Delta_k bracket on ps(j) itself
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        old = Context(sysdef, Budgets())
        for k in range(1, 4):
            for j in itertools.product(range(0, 2 * k + 2), repeat=sysdef.m):
                ps = old.ps(j)
                dist = delta_filtration(ps, k)
                want = [_rendered(f) for f in bracket_failures(
                    itertools.product(gamma_filtration(ps, k).generators,
                                      dist.generators), dist.contains)]
                new = Context(sysdef, Budgets())
                ok, fails = new.gamma_invariant(j, k)
                assert ok == (not want), (sysdef.name, j, k)
                assert [_rendered(f) for f in fails] == want, (sysdef.name, j, k)
                # the one prolonged system it may build is the (k+1)-capped one
                assert set(new._ps) <= {tuple(min(jp, k + 1) for jp in j)}
                if k == 1:
                    # no Gamma_1 coordinate has order < 1
                    assert (ok, fails) == (True, [])


# -- sigma values ---------------------------------------------------------------

def test_sigma_delta_chained_examples(chained):
    init = Initialization((2,), "standard")    # keep u2, prolong u1
    assert sigma_delta(chained, init, 1) == (2,)
    assert sigma_delta(chained, init, 2) == (0,)


def test_sigma_gamma_delta_chained_examples(chained):
    init = Initialization((2,), "standard")
    assert sigma_gamma_delta(chained, init, 2) == (4,)
    assert sigma_gamma_delta(chained, init, 1) == (0,)
    k0 = sigma_gamma_delta(chained, init, 0)
    assert all(v in (0, 1) for v in k0)
    eager = Initialization((2,), "eager")
    k0e = sigma_gamma_delta(chained, eager, 0)
    assert all(v in (0, 1) for v in k0e)


def test_eager_variant_copy_keeps_the_run_past_step0(chained):
    # a budget-stopped run: its last bound decides minimality in analyze,
    # so the eager copy must carry it like every other field
    base = SigmaRun(Context(chained, Budgets(max_k=1)),
                    Initialization((2,), "standard")).run()
    assert base.outcome == "budget" and base.last_bound is not None
    eager = base.for_variant(Initialization((2,), "eager"))
    assert eager.init.variant == "eager" and base.init.variant == "standard"
    assert eager.steps[0].sigma_delta == (1,)
    assert base.steps[0].sigma_delta == (0,)
    assert eager.steps[1:] == base.steps[1:]
    for attr in ("outcome", "candidate", "failure_k", "failure_note",
                 "witnesses", "last_bound"):
        assert getattr(eager, attr) == getattr(base, attr)


def test_sigma_delta_pendulum_infinite(pendulum):
    for kept in ((1,), (2,)):
        init = Initialization(kept, "standard")
        assert sigma_delta(pendulum, init, 2) == (INF,)


# -- flat output verification ---------------------------------------------------

def test_verify_chained_accepts_paper_pair(chained):
    ps = build_prolonged(chained, [4, 0])
    ok, cert = verify_flat_output(ps, chained.declared_flat_outputs)
    assert ok
    assert sorted(cert["kappa_assignment"], reverse=True) == [8, 4]


def test_verify_driftless(driftless):
    ps = build_prolonged(driftless, [2, 0])
    ok, _ = verify_flat_output(ps, driftless.declared_flat_outputs)
    assert ok


def test_verify_rejects_top_coordinate(chained):
    ps = build_prolonged(chained, [4, 0])
    bad = [Expr.var(chained.input(1, 4)), Expr.var(chained.state(4))]
    ok, fail = verify_flat_output(ps, bad)
    assert not ok


def test_verify_candidate_count(chained):
    ps = build_prolonged(chained, [4, 0])
    with pytest.raises(CandidateCountMismatch):
        verify_flat_output(ps, [Expr.var(chained.state(1))])


def test_verify_not_linearizable(chained):
    ps = build_prolonged(chained, [1, 0])
    with pytest.raises(NotLinearizable):
        verify_flat_output(ps, chained.declared_flat_outputs)


# -- flat output search ----------------------------------------------------------

def test_search_clm_finds_paper_outputs(clm):
    ps = build_prolonged(clm, [0, 3])
    found = search_flat_outputs(ps, 2)
    got = [render_expr(y) for y in found]
    assert got[0] == "x4"
    y2 = found[1]
    want = Expr.var(clm.state(1)) - Expr.var(clm.input(2)) * Expr.var(clm.state(2))
    assert y2 == want or y2 == -want


def test_search_threeinput_multiset(threeinput):
    ps = build_prolonged(threeinput, [1, 0, 0])
    found = search_flat_outputs(ps, 2)
    names = {render_expr(y) for y in found}
    assert names == {"x1", "x4", "x2"}
    paper_order = [Expr.var(threeinput.state(1)), Expr.var(threeinput.state(4)),
                   Expr.var(threeinput.state(2))]
    ok, _ = verify_flat_output(ps, paper_order)
    assert ok


def test_search_survives_a_singular_sample_point(driftless, threeinput, clm,
                                                 chained):
    # a random sample point on the singular locus (u1 = 0, ...) must not
    # null the search: full rank at any one exact point proves generic rank
    cases = [(driftless, (2, 0)), (threeinput, (1, 0, 0)), (clm, (0, 3)),
             (chained, (4, 0))]
    for sysdef, j in cases:
        for seed in range(11):
            ps = build_prolonged(sysdef, j, seed=seed)
            found = search_flat_outputs(ps, 2)
            assert found is not None, (sysdef.name, seed)
            ok, _ = verify_flat_output(ps, found)
            assert ok, (sysdef.name, seed)


def test_search_linear_chain_coordinate_output():
    di = double_integrator()
    ps = build_prolonged(di, [0])
    found = search_flat_outputs(ps, 2)
    assert [render_expr(y) for y in found] == ["x1"]


# -- analyze fixtures (details asserted in test_acceptance) ----------------------

def test_analyze_verdicts(reports):
    assert reports["chained"].verdict == "p2_flat"
    assert reports["driftless"].verdict == "p2_flat"
    assert reports["clm"].verdict == "p2_flat"
    assert reports["pendulum"].verdict == "not_p2_flat"
    assert reports["threeinput"].verdict == "p2_flat"


def test_analyze_minimality_audit(reports):
    systems = {"chained": load_fixture("chained.flt"),
               "driftless": load_fixture("driftless.flt"),
               "clm": load_fixture("clm.flt"),
               "threeinput": load_fixture("threeinput.flt")}
    for name, sysdef in systems.items():
        jmin = MultiIndex(reports[name].j_min)
        assert cns_check(sysdef, jmin).ok
        ranges = [range(0, c + 1) for c in jmin]
        for below in itertools.product(*ranges):
            if below == tuple(jmin) or min(below) != 0:
                continue
            assert not cns_check(sysdef, below).ok, (name, below)


def test_brunovsky_bookkeeping(reports):
    for name in ("chained", "driftless", "clm", "threeinput"):
        rep = reports[name]
        sysdef = load_fixture(name.replace("threeinput", "threeinput") + ".flt")
        kappa = rep.kappa
        n, m = sysdef.n, sysdef.m
        total = sum(rep.j_min)
        assert sum(kappa) == n + m + total
        assert kappa[0] == rep.k_star + 1
        assert all(a >= b for a, b in zip(kappa, kappa[1:]))
        ps = build_prolonged(sysdef, rep.j_min)
        from flatcheck.prolong import g_stabilization
        ranks, _ = g_stabilization(ps)
        rho = [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]
        assert all(r <= m for r in rho)
        assert all(a >= b for a, b in zip(rho, rho[1:]))


def test_lemma_41_normalization(driftless, reports):
    pre = parse_system("""
system driftless_pre
state x1 x2 x3 x4 z1 z2
input w1 w2
dot x1 = z1
dot x2 = x3*z1
dot x3 = x4*z1
dot x4 = z2
dot z1 = w1
dot z2 = w2
""")
    rep = analyze(pre, Budgets(seed=0))
    assert rep.verdict == "p2_flat"
    assert rep.j_min == tuple(reports["driftless"].j_min)
    ps = build_prolonged(pre, rep.j_min)
    ok, _ = verify_flat_output(ps, [Expr.var(pre.state(1)),
                                    Expr.var(pre.state(2))])
    assert ok


def test_input_permutation_invariance(reports):
    swapped = parse_system("""
system driftless_swapped
state x1 x2 x3 x4
input u2 u1
dot x1 = u1
dot x2 = x3*u1
dot x3 = x4*u1
dot x4 = u2
flatoutput x1, x2
""")
    rep = analyze(swapped, Budgets(seed=0))
    assert rep.verdict == "p2_flat"
    assert rep.j_min == (0, 2)
    assert rep.kappa == tuple(reports["driftless"].kappa)
    assert set(rep.flat_outputs) == set(reports["driftless"].flat_outputs)


def test_sigma_trace_bookkeeping(reports):
    # the final j dominates every recorded finite sigma bound of its trace
    for name in ("chained", "driftless", "clm", "threeinput"):
        rep = reports[name]
        jmin = rep.j_min
        for trace in rep.initializations:
            if trace.candidate != tuple(jmin):
                continue
            kept = set(trace.kept)
            channels = [p for p in range(1, len(jmin) + 1) if p not in kept]
            for step in trace.steps:
                for vec in (step.sigma_delta, step.sigma_gamma_delta):
                    for ch, v in zip(channels, vec):
                        if v != INF:
                            assert jmin[ch - 1] >= v


def test_analyze_m1_shortcircuit():
    rep = analyze(double_integrator())
    assert rep.verdict == "p2_flat" and rep.j_min == (0,)
    nl = parse_system("system nl\nstate x1 x2 x3\ninput u\n"
                      "dot x1 = x2\ndot x2 = u\ndot x3 = x2*x2\n")
    rep = analyze(nl)
    assert rep.verdict == "not_p2_flat"
    assert "single-input" in rep.witness["reason"]


def test_analyze_rank_deficient_lemma_case():
    rd = parse_system("system rd\nstate x1 x2 x3\ninput u1 u2\n"
                      "dot x1 = u1\ndot x2 = u2\ndot x3 = x3\n")
    rep = analyze(rd)
    assert rep.verdict == "not_p2_flat"
    assert "strong controllability" in rep.witness["reason"]


def test_pendulum_witnesses_cover_both_initializations(reports):
    rep = reports["pendulum"]
    per = rep.witness["per_initialization"]
    kept_sets = {tuple(e["kept_channels"]) for e in per}
    assert kept_sets == {(1,), (2,)}
    for e in per:
        assert e["outcome"] == "infinite"
        assert e["k"] == 2
        if e["witnesses"]:
            assert all(w["k"] == 2 for w in e["witnesses"])


def test_analyze_budget_exhaustion_is_inconclusive(chained):
    rep = analyze(chained, Budgets(seed=0, max_k=1))
    assert rep.verdict == "inconclusive"
    assert rep.witness["flag"] == "max_k exhausted"
    rep = analyze(chained, Budgets(seed=0, max_prolong=2))
    assert rep.verdict == "inconclusive"
    assert rep.witness["flag"] == "max_prolong exhausted"


def test_base_point_rank_drop_flagged(reports):
    # at the origin u1_2 = 0, so the chained verdict degenerates there
    notes = " ".join(reports["chained"].warnings)
    assert "rank drops at the base point" in notes
    assert "singular factor u1_2 vanishes at the base point" in notes


def test_base_point_override_clears_derivative_flag(chained):
    import flatcheck.sysdsl as sysdsl
    src = sysdsl.render_system(chained) + "point u1_2 = 1\n"
    moved = parse_system(src)
    rep = analyze(moved, Budgets(seed=0))
    assert rep.verdict == "p2_flat" and rep.j_min == (4, 0)
    assert not any("u1_2 vanishes" in w for w in rep.warnings)


def test_base_point_flags_skip_the_tan_half_factor():
    # the singular locus names the internal tan-half parameter
    # (tanhalf_x2^2 - 1), which the base-point check cannot parse and skips;
    # every other factor is checked
    rep = analyze(parse_system("system th\nstate x1 x2\ninput u1\n"
                               "dot x1 = sin(x2)\ndot x2 = u1\n"))
    assert rep.verdict == "p2_flat"
    flags = [w for w in rep.warnings if w.startswith("singular factor")]
    assert flags == ["singular factor sin(x2) vanishes at the base point",
                     "singular factor u1 vanishes at the base point"]


def _coupled_system(rng):
    # integrator backbones plus input-coupled tail states: the regime where
    # genuine prolongation is needed
    n = rng.randint(3, 5)
    s = parse_system("system fz\nstate %s\ninput u1 u2\n%s" % (
        " ".join("x%d" % i for i in range(1, n + 1)),
        "".join("dot x%d = x%d\n" % (i, i) for i in range(1, n + 1))))
    xs = [Expr.var(s.state(i)) for i in range(1, n + 1)]
    us = [Expr.var(s.input(i)) for i in (1, 2)]
    f = []
    for i in range(n - 1):
        choice = rng.random()
        if choice < 0.45:
            f.append(xs[i + 1])
        elif choice < 0.7:
            f.append(rng.choice(xs) * rng.choice(us))
        else:
            f.append(rng.choice(us))
    f.append(rng.choice([us[0] * us[1], rng.choice(xs) * rng.choice(us),
                         us[rng.randint(0, 1)]]))
    s.f = f
    return s


def test_randomized_end_to_end_minimality():
    rng = random.Random(20260810)
    verdicts = set()
    audited = 0
    for _ in range(40):
        s = _coupled_system(rng)
        rep = analyze(s, Budgets(seed=1, max_k=12, max_prolong=6))
        verdicts.add(rep.verdict)
        if rep.verdict == "p2_flat" and sum(rep.j_min) > 0:
            jmin = MultiIndex(rep.j_min)
            assert cns_check(s, jmin).ok
            for below in itertools.product(*[range(0, c + 1) for c in jmin]):
                if below == tuple(jmin) or min(below) != 0:
                    continue
                assert not cns_check(s, below).ok
            audited += 1
    assert audited >= 3
    assert "p2_flat" in verdicts and "not_p2_flat" in verdicts


def test_chained_alternate_initialization_order_six(reports):
    # prolonging the second input instead yields the non-minimal order 6
    alt = [t for t in reports["chained"].initializations if t.kept == (1,)]
    assert alt and all(t.candidate == (0, 6) for t in alt)


def test_clm_second_input_initialization_rejected(reports):
    alt = [t for t in reports["clm"].initializations if t.kept == (2,)]
    assert alt
    for t in alt:
        assert t.outcome == "infinite" and t.failure_k == 2


def test_search_chained_recovers_declared_pair(chained):
    ps = build_prolonged(chained, [4, 0])
    found = search_flat_outputs(ps, 2)
    assert found is not None
    assert found[0] == Expr.var(chained.state(1))
    declared = chained.declared_flat_outputs[1]
    assert found[1] == declared or found[1] == -declared
