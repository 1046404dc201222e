import random
from fractions import Fraction

import pytest

from conftest import ROOT, load_workloads
from flatcheck import expr, flatness
from flatcheck.expr import (COS, PARAM, SIN, STATE, UDERIV,
                            DenominatorVanishes, DivisionByZero, Expr, VarRef,
                            cos_var, input_var, mono_from, mono_key,
                            param_var, qdiv, render_expr, sin_var, state_var)
from flatcheck.jetgeom import QQ, MultiIndex, SamplePoints, VectorField
from flatcheck.prolong import ChainLinks, build_space
from flatcheck.sysdsl import parse_system

from paper_identities import mono_cmp

UNICYCLE = """system unicycle
state x1 x2 x3
input u1 u2
dot x1 = u1*cos(x3)
dot x2 = u1*sin(x3)
dot x3 = u2
"""

X1 = state_var(1, "x1")
X2 = state_var(2, "x2")
X3 = state_var(3, "x3")
TH = state_var(4, "theta")
U1 = input_var(1, 0, "u1")
U2 = input_var(2, 0, "u2")
EPS = param_var("eps")

x1, x2, x3 = Expr.var(X1), Expr.var(X2), Expr.var(X3)
u1, u2 = Expr.var(U1), Expr.var(U2)
s, c = Expr.var(sin_var(TH)), Expr.var(cos_var(TH))
one = Expr.one()


def rational(p, q=1):
    return Expr.rational(Fraction(p, q))


def random_expr(rng, depth=3):
    atoms = [x1, x2, x3, u1, u2, s, c, rational(rng.randint(-3, 3))]
    e = rng.choice(atoms)
    for _ in range(depth):
        op = rng.randint(0, 3)
        other = rng.choice(atoms)
        if op == 0:
            e = e + other
        elif op == 1:
            e = e * other
        elif op == 2:
            e = e - other
        else:
            e = e * e if rng.random() < 0.2 else e + other * other
    return e


def tan_half_point(t, extra):
    pt = dict(extra)
    pt[sin_var(TH)] = 2 * t / (1 + t * t)
    pt[cos_var(TH)] = (1 - t * t) / (1 + t * t)
    pt[TH] = t
    return pt


# -- arithmetic examples ------------------------------------------------------

def test_additive_inverse():
    assert (x1 + (-x1)).is_zero()


def test_sin_squared_reduces():
    e = s * s
    assert e == one - c * c
    assert render_expr(e) == "-cos(theta)^2 + 1"


def test_division_cancels_against_long_division_oracle():
    # univariate long-division oracle for (x1^2 - 1) / (x1 - 1)
    num = [Fraction(-1), Fraction(0), Fraction(1)]   # -1 + 0 x + x^2
    den = [Fraction(-1), Fraction(1)]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = list(num)
    for d in range(len(quot) - 1, -1, -1):
        coef = rem[d + len(den) - 1] / den[-1]
        quot[d] = coef
        for i, dc in enumerate(den):
            rem[d + i] -= coef * dc
    assert all(v == 0 for v in rem)
    oracle = sum((Expr.rational(cq) * x1 ** d for d, cq in enumerate(quot)),
                 Expr.zero())
    assert (x1 * x1 - one) / (x1 - one) == oracle == x1 + one


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        x1 / (x2 - x2)


def test_div_requires_symbolic_nonzero_only():
    e = x1 / (s * s + c * c - rational(2))   # denominator == -1
    assert e == -x1


# -- diff ---------------------------------------------------------------------

def test_diff_product():
    assert (u1 * u2).diff(U1) == u2


def test_diff_sin_chain_rule():
    assert s.diff(TH) == c
    assert c.diff(TH) == -s


def test_diff_quotient_matches_finite_differences():
    e = (x2 + x3 * u2) / x1
    d = e.diff(X1)
    rng = random.Random(7)
    checked = 0
    while checked < 5:
        pt = {X1: Fraction(rng.randint(1, 9)), X2: Fraction(rng.randint(-9, 9)),
              X3: Fraction(rng.randint(-9, 9)), U2: Fraction(rng.randint(-9, 9))}
        h = 1e-6
        up = dict(pt)
        dn = dict(pt)
        up[X1] = pt[X1] + Fraction(1, 10 ** 6)
        dn[X1] = pt[X1] - Fraction(1, 10 ** 6)
        num = (float(e.eval_at(up)) - float(e.eval_at(dn))) / (2 * h)
        sym = float(d.eval_at(pt))
        assert abs(num - sym) <= 1e-9 * max(1.0, abs(sym)) + 1e-6
        checked += 1


def test_diff_rejects_trig_atom_variable():
    with pytest.raises(ValueError):
        s.diff(sin_var(TH))


# -- eval ---------------------------------------------------------------------

def test_eval_constant():
    assert one.eval_at({}) == 1


def test_eval_pythagorean_exact():
    pt = tan_half_point(Fraction(3, 7), {})
    assert (s * s + c * c).eval_at(pt) == 1


def test_eval_simple_fraction():
    e = (x1 + x2) / (x1 - x2)
    assert e.eval_at({X1: Fraction(2), X2: Fraction(1)}) == 3


def test_eval_denominator_vanishes():
    e = x1 / x2
    with pytest.raises(DenominatorVanishes):
        e.eval_at({X1: Fraction(1), X2: Fraction(0)})


# -- algebraic properties -----------------------------------------------------

def test_ring_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(200):
        a, b, cc = (random_expr(rng, 2) for _ in range(3))
        assert (a + b) + cc == a + (b + cc)
        assert (a * b) * cc == a * (b * cc)
        assert a * (b + cc) == a * b + a * cc
        assert a + b == b + a
        assert a * b == b * a


def test_canonical_uniqueness():
    rng = random.Random(99)
    for _ in range(100):
        a = random_expr(rng, 2)
        b = random_expr(rng, 2)
        rearranged = (a + b) - b
        assert (rearranged - a).is_zero()
        assert rearranged == a                    # bit-for-bit canonical form
        if not (a - b).is_zero():
            assert a != b


def test_diff_linear_and_leibniz():
    rng = random.Random(4242)
    for _ in range(150):
        a = random_expr(rng, 2)
        b = random_expr(rng, 2)
        v = rng.choice([X1, X2, X3, U1, U2, TH])
        assert (a + b).diff(v) == a.diff(v) + b.diff(v)
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_eval_diff_float_cross_check():
    rng = random.Random(2024)
    for _ in range(10):
        e = random_expr(rng, 3)
        v = rng.choice([X1, X2, U1])
        d = e.diff(v)
        pts = 0
        guard = 0
        while pts < 20 and guard < 200:
            guard += 1
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            pt = tan_half_point(t, {X1: Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                    X2: Fraction(rng.randint(-6, 6)),
                                    X3: Fraction(rng.randint(-6, 6)),
                                    U1: Fraction(rng.randint(-6, 6)),
                                    U2: Fraction(rng.randint(-6, 6))})
            h = Fraction(1, 10 ** 7)
            up, dn = dict(pt), dict(pt)
            up[v] = pt[v] + h
            dn[v] = pt[v] - h
            if v == TH:
                up = tan_half_point(pt[TH] + h, up)
                dn = tan_half_point(pt[TH] - h, dn)
                continue  # trig base shifts move along t, not theta; skip
            try:
                num = (float(e.eval_at(up)) - float(e.eval_at(dn))) / (2e-7)
                sym = float(d.eval_at(pt))
            except DenominatorVanishes:
                continue
            assert abs(num - sym) <= 1e-9 * max(1.0, abs(sym)) + 1e-5
            pts += 1


def test_powers_are_nonnegative_integer_only():
    with pytest.raises(ValueError):
        x1 ** -1
    assert x1 ** 0 == one


def test_param_stays_symbolic():
    e = u1 / Expr.var(EPS)
    assert render_expr(e) == "u1/eps"
    assert e.eval_at({U1: Fraction(3), EPS: Fraction(1, 2)}) == 6


def test_trig_fraction_stress():
    # two trig bases, random add/mul/sub/div towers: canonical equality,
    # exact evaluation, division round trips, sin-free denominators
    rng = random.Random(5150)
    tha, thb = state_var(11, "a"), state_var(12, "b")
    xs = state_var(13, "xs")
    atoms = [Expr.var(sin_var(tha)), Expr.var(cos_var(tha)),
             Expr.var(sin_var(thb)), Expr.var(cos_var(thb)),
             Expr.var(xs), rational(2), rational(-1, 3)]

    def rand_expr(depth):
        e = rng.choice(atoms)
        for _ in range(depth):
            op = rng.randint(0, 3)
            o = rng.choice(atoms)
            if op == 0:
                e = e + o
            elif op == 1:
                e = e * o
            elif op == 2:
                e = e - o
            elif not o.is_zero():
                e = e / o
        return e

    def point():
        pt = {xs: Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
        for th in (tha, thb):
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            pt[th] = t
            pt[sin_var(th)] = 2 * t / (1 + t * t)
            pt[cos_var(th)] = (1 - t * t) / (1 + t * t)
        return pt

    for i in range(120):
        a, b = rand_expr(4), rand_expr(4)
        diff = a - b
        assert diff.is_zero() == (a == b)
        if not b.is_zero():
            assert ((a / b) * b - a).is_zero()
        for _ in range(2):
            pt = point()
            try:
                assert a.eval_at(pt) - b.eval_at(pt) == diff.eval_at(pt)
            except DenominatorVanishes:
                continue
        for m in a.den:
            assert all(v.trig != 1 for v, _ in m)


# -- int coefficients and interned variables ----------------------------------

def _all_fractions(e):
    """e rebuilt with every coefficient a Fraction."""
    return Expr({m: Fraction(q) for m, q in e.num.items()},
                {m: Fraction(q) for m, q in e.den.items()}, _raw=True)


def _coefficients(e):
    return list(e.num.values()) + list(e.den.values())


def test_coefficients_are_exact_and_key_as_all_fractions():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def combine(args):
        op, a, b = args
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a if b.is_zero() else a / b

    consts = st.builds(Fraction, st.integers(-6, 6),
                       st.integers(1, 4)).map(Expr.rational)
    leaves = st.one_of(st.sampled_from([x1, x2, u1, s, c, Expr.var(EPS)]),
                       consts)
    exprs = st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/"), kids, kids).map(combine),
        st.tuples(kids, st.sampled_from([X1, X2, U1, TH])).map(
            lambda t: t[0].diff(t[1]))), max_leaves=8)

    @settings(max_examples=150, deadline=None)
    @given(exprs)
    def check(e):
        for q in _coefficients(e):
            assert type(q) in (int, Fraction)
            # an integral coefficient is an int
            assert type(q) is int or q.denominator != 1
        assert e._q == any(type(q) is Fraction for q in _coefficients(e))
        f = _all_fractions(e)
        assert f._key == e._key and hash(f) == hash(e) and f == e
        assert render_expr(f) == render_expr(e)

    check()


def test_integral_quotients_are_ints():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(-6, 4) == Fraction(-3, 2)
    assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(qdiv(2, Fraction(1, 2))) is int
    e = (Expr.rational(4) * x1 + Expr.rational(6)) / Expr.rational(2)
    assert all(type(q) is int for q in _coefficients(e))
    assert render_expr(e) == "2*x1 + 3"
    # a value at an exact point: an int where integral, never a float
    assert type((x1 / x2).eval_at({X1: 6, X2: 3})) is int
    assert (x1 / x2).eval_at({X1: 1, X2: 3}) == Fraction(1, 3)
    assert type(QQ.monic({0: 2, 1: 4}, 0)[1]) is int


def test_integral_fraction_results_are_ints():
    # 1/2 * 2 is integral: the product of the two factors has the int
    # coefficient 1, and so do sums and derivatives with integral results
    sysdef = parse_system("system halves\nstate x y\ninput u\n"
                          "dot x = x/2*(2*y)\ndot y = u\n")
    f = sysdef.f[0]
    assert render_expr(f) == "x*y" and not f._q
    assert all(type(q) is int for q in _coefficients(f))
    half = x1 * rational(1, 2)
    assert half._q and not (half + half)._q and not (x1 * half).diff(X1)._q
    for e in (half + half, half * rational(4), (x1 * half).diff(X1),
              (half - x2 * rational(1, 3)) * rational(6)):
        assert all(type(q) is int for q in _coefficients(e)), e


def _analysis_coefficients(sysdef, monkeypatch):
    """The coefficients of the drift, of every G level field and of every
    Delta link of `analyze`'s Context."""
    seen = []

    class Recording(flatness.Context):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(flatness, "Context", Recording)
    flatness.analyze(sysdef, flatness.Budgets(seed=0))
    exprs = list(sysdef.f)
    for ctx in seen:
        for ps in ctx._ps.values():
            exprs += ps.g0.coeffs.values()
            for level in ps._g_levels:
                for g in level:
                    exprs += g.coeffs.values()
        for link in ctx.chain_links.fields:
            exprs += link.coeffs.values()
    assert seen and len(exprs) > len(sysdef.f)
    return [q for e in exprs for q in _coefficients(e)]


def _int_systems():
    wl = load_workloads()
    out = [(name, text) for w in ("deep_chains", "wide_inputs")
           for name, text in wl.workload(w, str(ROOT))]
    return out + [(name, wl.fixture_text(str(ROOT), name))
                  for name in ("chained", "driftless", "clm", "threeinput")]


INT_SYSTEMS = _int_systems()


@pytest.mark.parametrize("name,text", INT_SYSTEMS,
                         ids=[n for n, _ in INT_SYSTEMS])
def test_analysis_fields_have_int_coefficients(name, text, monkeypatch):
    coeffs = _analysis_coefficients(parse_system(text), monkeypatch)
    assert coeffs and all(type(q) is int for q in coeffs)


def test_each_variable_is_one_object():
    b = state_var(4, "theta")
    pairs = [(state_var(4, "theta"), VarRef(STATE, i=4, label="theta")),
             (input_var(2, 3, "u2_3"), VarRef(UDERIV, i=2, k=3,
                                              label="u2_3")),
             (param_var("eps"), VarRef(PARAM, name="eps", label="eps")),
             (sin_var(b), VarRef(STATE, i=4, trig=SIN, label="sin(theta)")),
             (cos_var(b), VarRef(STATE, i=4, trig=COS, label="cos(theta)"))]
    for stored, built in pairs:
        assert stored is not built
        assert stored == built and hash(stored) == hash(built)
        assert str(stored) == str(built)
    assert state_var(4, "theta") is b is TH
    assert input_var(2, 3, "u2_3") is pairs[1][0]
    assert param_var("eps") is EPS
    assert sin_var(b) is pairs[3][0] and cos_var(TH) is pairs[4][0]
    assert sin_var(b).base is b and cos_var(b).base is b
    # the label is part of what is stored: equal variables, other labels
    other = state_var(4, "y4")
    assert other is not b and other == b and str(other) == "y4"
    assert state_var(4, "theta") is b
    assert sin_var(other) is not sin_var(b) and \
        str(sin_var(other)) == "sin(y4)" and sin_var(other).base is other
    # the system's own variables, on every space and every call
    sysdef = parse_system(UNICYCLE)
    assert sysdef.state(3) is sysdef.state(3) is state_var(3, "x3")
    assert sysdef.input(1, 2) is input_var(1, 2, "u1_2")
    assert build_space(sysdef, MultiIndex((2, 1))).coords[3] is \
        sysdef.input(1, 0)


# states, input derivatives, parameters whose names share prefixes, and trig
# atoms over a state and over a parameter
KEY_VARS = [X1, X2, TH, U1, U2, input_var(1, 1, "u1_1"), param_var("a"),
            param_var("ab"), param_var("b"), param_var("tanhalf_x"),
            sin_var(TH), cos_var(TH), sin_var(param_var("a")),
            cos_var(param_var("a"))]


def _monomials(st, size=4, exponent=4):
    return st.dictionaries(st.sampled_from(KEY_VARS),
                           st.integers(1, exponent), max_size=size).map(
        lambda d: mono_from(d.items()))


def test_mono_key_orders_like_the_former_comparator():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=500, deadline=None)
    @given(_monomials(st), _monomials(st))
    def check(a, b):
        ka, kb = mono_key(a), mono_key(b)
        assert (ka > kb) - (ka < kb) == mono_cmp(a, b)

    check()


def test_equal_terms_in_any_insertion_order_are_one_key():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coeffs = st.one_of(st.integers(-5, 5).filter(bool),
                       st.builds(Fraction, st.integers(-5, 5).filter(bool),
                                 st.integers(2, 4)))
    # small denominators keep the gcd of `Expr.make` cheap
    nums = st.dictionaries(_monomials(st), coeffs, min_size=1, max_size=6)
    dens = st.dictionaries(_monomials(st, 2, 2), coeffs, min_size=1,
                           max_size=2)
    space = build_space(parse_system(UNICYCLE), MultiIndex((1, 0)))

    @settings(max_examples=150, deadline=None)
    @given(nums, dens, st.randoms(use_true_random=False))
    def check(num, den, rng):
        def shuffled(d):
            items = list(d.items())
            rng.shuffle(items)
            return dict(items)

        try:
            e = Expr.make(num, den)
        except DivisionByZero:      # den reduced to 0 by sin^2 -> 1 - cos^2
            return
        f = Expr.make(shuffled(num), shuffled(den))
        g = Expr(shuffled(e.num), shuffled(e.den), _raw=True)
        for other in (f, g):
            assert other == e and hash(other) == hash(e)
            assert render_expr(other) == render_expr(e)
        coords = {v: e + Expr.rational(i) for i, v in enumerate(space.coords)}
        v = VectorField(space, coords)
        w = VectorField(space, shuffled(coords))
        assert v == w and hash(v) == hash(w)
        points = SamplePoints(0)
        assert points.field_id(v) == points.field_id(w)

    check()


# small-family system 50 of the random systems (n = 4, m = 2, degree 2): its
# chain links on channel 2 grow to numerators of dozens of terms
R50 = """system r50
state x1 x2 x3 x4
input u1 u2
dot x1 = x2*x4
dot x2 = x1*x3 + u2^2
dot x3 = u2^2 + 3*x3
dot x4 = x2*x3 + 2
"""


def test_building_expressions_orders_no_terms(monkeypatch):
    # graded lex is read only where a leading term or printed order is
    # needed, so building the chain links orders next to no monomials
    calls = []
    key = expr.mono_key

    def counted(m):
        calls.append(m)
        return key(m)

    monkeypatch.setattr(expr, "mono_key", counted)
    store = ChainLinks(parse_system(R50))
    for r in range(7):
        ids = store.links(2, r, (8, 8))
    assert max(len(e.num) for e in store.fields[ids[-1]].coeffs.values()) > 20
    assert len(calls) < 100
