import random
from fractions import Fraction

import pytest

from flatcheck.expr import (DenominatorVanishes, DivisionByZero, Expr,
                            cos_var, input_var, param_var, render_expr,
                            sin_var, state_var)

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
