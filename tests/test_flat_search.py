"""The flat-output search against its former eager form: the pools of the
ansatz (letters annihilated by G dropped, outputs built on first read), the
chains grown a derivative at a time, and the chain prefixes that the one
`verify_flat_output` of `analyze` reuses."""

import json
import sys

import pytest

from conftest import ROOT, load_fixture, load_workloads
from flatcheck import flatness
from flatcheck.expr import Expr
from flatcheck.flatness import (Budgets, _kappa_from_ranks, _Lazy,
                                _nullspace_pools, analyze, cns_check,
                                search_flat_outputs)
from flatcheck.jetgeom import QQ, PointEchelon, SamplePoints, VectorField
from flatcheck.prolong import build_prolonged, g_stabilization
from flatcheck.sysdsl import parse_system

import paper_identities as pi

UNICYCLE = """system unicycle
state x1 x2 x3
input u1 u2
dot x1 = u1*cos(x3)
dot x2 = u1*sin(x3)
dot x3 = u2
"""

# more systems with trig atoms, for the ansatz at degree 3
TRIG_TEXTS = {
    "sin_chain": "system sin_chain\nstate x1 x2\ninput u1\n"
                 "dot x1 = sin(x2)\ndot x2 = u1\n",
    "cos_pair": "system cos_pair\nstate x1 x2 x3\ninput u1 u2\n"
                "dot x1 = cos(x2)\ndot x2 = u1\ndot x3 = u2\n",
    "car": "system car\nstate x1 x2 x3 x4\ninput u1 u2\n"
           "dot x1 = u1*cos(x3)\ndot x2 = u1*sin(x3)\ndot x3 = u1*x4\n"
           "dot x4 = u2\n",
}

_EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _systems():
    """(name, sysdef, j): the fixtures, the benchmark's generated systems and
    the unicycle, each at its j_min; pendulum, which has none, at j = 0."""
    wl = load_workloads()
    out = []
    for name in wl.FIXTURES:
        j = _EXPECTED["systems"][name]["j_min"] or [0, 0]
        out.append((name, load_fixture(name + ".flt"), j))
    for workload in ("deep_chains", "wide_inputs"):
        for name, text in wl.workload(workload, str(ROOT)):
            if name not in wl.FIXTURES:
                out.append((name, parse_system(text),
                            _EXPECTED["systems"][name]["j_min"]))
    out.append(("unicycle", parse_system(UNICYCLE), [0, 1]))
    return out


SYSTEMS = _systems()


def _kappas(ps):
    """The chain lengths the search asks pools for: the Brunovsky indices
    where the prolonged system is linearizable, and the same count of the
    G ranks otherwise."""
    return _kappa_from_ranks(ps.sysdef.m, g_stabilization(ps)[0])


def _cases():
    for name, sysdef, j in SYSTEMS:
        yield pytest.param(sysdef, j, 2, id="%s-deg2" % name)
        if not sysdef.trig_bases():
            yield pytest.param(sysdef, j, 3, id="%s-deg3" % name)
    # G_1 holds -d/dx3, whose coordinate is a trig base: no letter is
    # dropped for it
    yield pytest.param(parse_system(UNICYCLE), [0, 0], 2, id="unicycle_j0-deg2")


@pytest.mark.parametrize("sysdef,j,degree", list(_cases()))
def test_pools_equal_the_eager_pools(sysdef, j, degree):
    ps = build_prolonged(sysdef, j)
    kappas = _kappas(ps)
    want = pi.eager_nullspace_pools(ps, kappas, degree)
    got = _nullspace_pools(ps, kappas, degree)
    assert sorted(got) == sorted(want)
    for kap in want:
        assert list(got[kap]) == want[kap], kap


@pytest.mark.parametrize("name,sysdef,j", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_search_equals_the_eager_chain_search(name, sysdef, j):
    got = search_flat_outputs(build_prolonged(sysdef, j), 2)
    want = pi.eager_search_flat_outputs(build_prolonged(sysdef, j), 2)
    assert got == want
    assert (got is None) == (name == "pendulum")


def _counted(monkeypatch):
    # Q inserts, the unit rows {col: 1} among them that were already in
    # the span, and derivatives taken
    counts = {"q_inserts": 0, "dependent_units": 0, "diffs": 0}
    insert, diff = PointEchelon.insert, Expr.diff

    def counting_insert(self, row):
        added = insert(self, row)
        if self.field is QQ:
            counts["q_inserts"] += 1
            counts["dependent_units"] += not added and \
                list(row.values()) == [QQ.one]
        return added

    def counting_diff(self, v):
        counts["diffs"] += 1
        return diff(self, v)

    monkeypatch.setattr(PointEchelon, "insert", counting_insert)
    monkeypatch.setattr(Expr, "diff", counting_diff)
    return counts


def test_dropped_letters_cut_the_ansatz_work_on_chained_5_3(monkeypatch):
    wl = load_workloads()
    ps = build_prolonged(parse_system(wl.chained_text(5, 3)), [6, 0])
    kappas = _kappas(ps)
    assert kappas == (12, 5)
    counts = _counted(monkeypatch)
    pi.eager_nullspace_pools(ps, kappas, 2)
    assert counts == {"q_inserts": 410, "dependent_units": 59, "diffs": 306}
    counts.update(q_inserts=0, dependent_units=0, diffs=0)
    pools = _nullspace_pools(ps, kappas, 2)
    # no unit row is inserted twice or after the span holds it, and no
    # image is built at a column a unit row has zeroed
    want = {"q_inserts": 89, "dependent_units": 0, "diffs": 53}
    assert counts == want
    # building the outputs takes neither
    assert [len(list(pools[k])) for k in (12, 5)] == [2, 45]
    assert counts == want


@pytest.mark.parametrize("text", [UNICYCLE] + list(TRIG_TEXTS.values()),
                         ids=["unicycle"] + list(TRIG_TEXTS))
def test_no_pool_holds_a_zero_function_at_degree_3(text):
    # x*(sin^2 + cos^2 - 1) is a nullspace vector of every trig ansatz of
    # degree 3; every pool is read in full, as the search may stop early
    sysdef = parse_system(text)
    rep = analyze(sysdef, Budgets(seed=0))
    if rep.verdict == "p2_flat":
        ps = build_prolonged(sysdef, rep.j_min)
    else:
        ps = build_prolonged(sysdef, [0] * sysdef.m)
    pools = _nullspace_pools(ps, _kappas(ps), 3)
    read = [y for pool in pools.values() for y in pool]
    assert read and not any(y.is_zero() for y in read)


def test_pendulum_pools_at_degree_3_hold_no_zero_function(pendulum):
    ps = build_prolonged(pendulum, [0, 0])
    pools = _nullspace_pools(ps, _kappas(ps), 3)
    assert not any(y.is_zero() for pool in pools.values() for y in pool)


def test_unicycle_at_degree_3_finds_the_degree_2_outputs():
    sysdef = parse_system(UNICYCLE)
    at2 = analyze(sysdef, Budgets(seed=0))
    at3 = analyze(sysdef, Budgets(seed=0, ansatz_degree=3))
    assert at3.verdict == at2.verdict == "p2_flat"
    assert at3.flat_outputs == at2.flat_outputs == \
        ["x3", "-x1*sin(x3) + x2*cos(x3)"]


def test_a_lazy_pool_draws_each_item_once_for_two_depths():
    drawn = []

    def items():
        for i in range(3):
            drawn.append(i)
            yield i

    pool = _Lazy(items())
    pairs = [(a, b) for a in pool for b in pool]
    assert pairs == [(a, b) for a in range(3) for b in range(3)]
    assert drawn == [0, 1, 2]
    assert list(pool) == [0, 1, 2]


@pytest.mark.parametrize("name,sysdef,j", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_verifying_the_found_outputs_derives_no_chain_again(
        name, sysdef, j, monkeypatch):
    seen = {"ps": None, "verifies": 0, "g0_applies": 0}
    apply, verify = VectorField.apply, flatness.verify_flat_output

    def counting_apply(self, phi):
        if seen["ps"] is not None and self is seen["ps"].g0:
            seen["g0_applies"] += 1
        return apply(self, phi)

    def counting_verify(ps, candidates):
        seen["ps"] = ps
        seen["verifies"] += 1
        try:
            return verify(ps, candidates)
        finally:
            seen["ps"] = None

    monkeypatch.setattr(VectorField, "apply", counting_apply)
    monkeypatch.setattr(flatness, "verify_flat_output", counting_verify)
    rep = analyze(sysdef, Budgets(seed=0))
    assert (rep.flat_outputs is None) == (name == "pendulum")
    if rep.flat_outputs is not None:
        assert seen["verifies"] == 1
        assert seen["g0_applies"] == 0


@pytest.mark.parametrize("name,sysdef,j", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_verifying_the_found_outputs_differentiates_nothing(
        name, sysdef, j, monkeypatch):
    # the search keeps each chain entry's gradient beside the chain, and
    # the check reads the found outputs' G conditions and chain Jacobian
    # off those gradients
    seen = {"inside": False, "verifies": 0, "diffs": 0}
    diff, verify = Expr.diff, flatness.verify_flat_output

    def counting_diff(self, v):
        seen["diffs"] += seen["inside"]
        return diff(self, v)

    def counting_verify(ps, candidates):
        seen["inside"] = True
        seen["verifies"] += 1
        try:
            return verify(ps, candidates)
        finally:
            seen["inside"] = False

    monkeypatch.setattr(Expr, "diff", counting_diff)
    monkeypatch.setattr(flatness, "verify_flat_output", counting_verify)
    rep = analyze(sysdef, Budgets(seed=0))
    assert (rep.flat_outputs is None) == (name == "pendulum")
    if rep.flat_outputs is not None:
        assert seen["verifies"] == 1
        assert seen["diffs"] == 0


def test_a_fresh_verify_reads_g_conditions_off_the_gradients():
    # without a search, the check builds each output's gradient once and
    # reads every G condition and the chain Jacobian's first rows off it
    wl = load_workloads()
    sysdef = parse_system(wl.chained_text(3, 3))
    j = _EXPECTED["systems"]["chained_3_3"]["j_min"]
    ps = build_prolonged(sysdef, j)
    want = {y: {g: g.apply(y) for level in range(len(ps.sysdef.f) + sum(j))
                for g in flatness.g_level_fields(ps, level)}
            for y in sysdef.declared_flat_outputs}
    ok, _ = flatness.verify_flat_output(ps, sysdef.declared_flat_outputs)
    assert ok
    for y, applied in want.items():
        assert y in ps.gradients
        for g, gy in applied.items():
            assert flatness._along(ps, g, y) == gy


def test_rows_of_fields_with_equal_coefficients_compare_no_exprs(monkeypatch):
    # the G level fields of a channel with j_p = 0 and the Context's chain
    # links have equal coefficients but are separate objects: their rows
    # are found by a field id, and Exprs are compared only when a field
    # object is first given an id
    wl = load_workloads()
    calls = {}
    first_sights = {}
    eq, row = Expr.__eq__, SamplePoints.row

    def counting_eq(self, other):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return eq(self, other)

    def recording_row(self, v, point):
        first_sights.setdefault(id(v), (v, len(v.coeffs)))
        return row(self, v, point)

    monkeypatch.setattr(Expr, "__eq__", counting_eq)
    monkeypatch.setattr(SamplePoints, "row", recording_row)
    for name, text in wl.workload("deep_chains", str(ROOT)):
        sysdef = parse_system(text)
        j = _EXPECTED["systems"][name]["j_min"]
        assert cns_check(sysdef, j, seed=0).ok
        ps = build_prolonged(sysdef, j, seed=0,
                             base_point=sysdef.base_point().resolved())
        assert flatness.verify_flat_output(
            ps, sysdef.declared_flat_outputs)[0]
    assert first_sights and "row" not in calls and "recording_row" not in calls
    assert calls.get("field_id", 0) <= sum(n for _, n in first_sights.values())
