"""Sampled rank and membership (over F_p) against sympy's exact rank of the
coefficient matrix over the field of rational functions, on random small
systems; the sparse rational echelon against sympy's rank, nullspace and
reduced row echelon form; and `lie_bracket` against sympy's derivatives
(skips when sympy is not installed)."""

import itertools
import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from flatcheck.expr import Expr, cos_var, sin_var, state_var  # noqa: E402
from flatcheck.jetgeom import (Distribution, JetSpace,  # noqa: E402
                               MultiIndex, PointEchelon, VectorField,
                               brackets_to_zero, generic_rank, lie_bracket)
from flatcheck.prolong import build_prolonged, g_level_fields  # noqa: E402

from conftest import random_field, random_system  # noqa: E402


def _to_sympy(e, symbols):
    def poly(p):
        total = sp.Integer(0)
        for mono, c in p.items():
            term = sp.Rational(c.numerator, c.denominator)
            for v, k in mono:
                term *= symbols[v] ** k
            total += term
        return total
    return poly(e.num) / poly(e.den)


def _sympy_rank(fields, space, symbols):
    if not fields:
        return 0
    matrix = sp.Matrix([[_to_sympy(f.coeff(c), symbols) for c in space.coords]
                        for f in fields])
    return DomainMatrix.from_Matrix(matrix).to_field().rank()


def test_sampled_rank_and_membership_match_sympy():
    rng = random.Random(2024)
    verdicts = []
    for _ in range(20):
        sysdef = random_system(rng)
        j = [rng.randint(0, 1) for _ in range(sysdef.m)]
        ps = build_prolonged(sysdef, j)
        space = ps.space
        symbols = {v: sp.Symbol("c%d" % i) for i, v in enumerate(space.coords)}
        gens = [g for r in range(2) for g in g_level_fields(ps, r)
                if not g.is_zero()]
        drawn = random_field(rng, space)
        # a generator whose denominators differ by coordinate
        mixed = VectorField(space, {
            c: e / (Expr.var(rng.choice(space.coords)) + Expr.rational(i + 2))
            for i, (c, e) in enumerate(drawn.coeffs.items())})
        gens += [drawn, mixed]
        rank = _sympy_rank(gens, space, symbols)
        assert generic_rank(gens, space, symbolic=False).sampled_rank == rank
        dist = Distribution(space, gens)
        weight = Expr.var(rng.choice(space.coords)) + Expr.rational(2)
        members = [gens[0].scale(weight) + drawn, mixed.scale(weight) + gens[0]]
        brackets = [lie_bracket(a, b)
                    for a, b in itertools.combinations(gens, 2)][:3]
        for v in members + brackets + [random_field(rng, space)]:
            want = _sympy_rank(gens + [v], space, symbols) == rank
            assert dist.contains(v) == want, (sysdef.f, j, v)
            verdicts.append(want)
    assert len(verdicts) >= 60 and True in verdicts and False in verdicts


def test_point_echelon_rank_and_nullspace_match_sympy():
    # small rational matrices with some all-zero columns and some rows of
    # one nonzero entry; the nullspace basis is read off the RREF in both,
    # one vector per free column with that column set to one
    rng = random.Random(11)
    zero_cols = single_rows = 0
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        live = sorted(rng.sample(range(ncols), ncols - rng.randint(0, ncols // 2)))
        zero_cols += ncols - len(live)
        rows = []
        for _ in range(nrows):
            cols = [rng.choice(live)] if rng.random() < 0.3 else live
            single_rows += len(cols) == 1
            rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                     rng.randint(1, 3))
                         for c in cols if len(cols) == 1 or rng.random() < 0.7})
        ech = PointEchelon.of(rows)
        matrix = sp.Matrix([[sp.Rational(r.get(c, 0)) for c in range(ncols)]
                            for r in rows])
        assert ech.rank == matrix.rank(), rows
        assert [[sp.Rational(a) for a in vec] for vec in ech.nullspace(ncols)] \
            == [list(vec) for vec in matrix.nullspace()], rows
    assert zero_cols and single_rows


def test_point_echelon_rows_are_sympys_rref():
    # the stored rows, in pivot order, are the nonzero rows of the reduced
    # row echelon form
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{c: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for c in range(ncols) if rng.random() < 0.6}
                for _ in range(nrows)]
        rows = [{c: a for c, a in r.items() if a} for r in rows]
        rref, pivots = sp.Matrix([[sp.Rational(r.get(c, 0))
                                   for c in range(ncols)]
                                  for r in rows]).rref()
        ech = PointEchelon.of(rows)
        assert [pc for pc, _ in ech.rows] == list(pivots), rows
        assert [[sp.Rational(row.get(c, 0)) for c in range(ncols)]
                for _, row in ech.rows] == \
            [list(rref.row(i)) for i in range(len(pivots))], rows


def _bracket_space() -> JetSpace:
    xs = tuple(state_var(i, "x%d" % i) for i in range(1, 5))
    return JetSpace(n=4, m=0, j=MultiIndex(()), coords=xs, trig_bases=xs[3:])


def _random_coefficient(rng, letters) -> Expr:
    """A polynomial in a few of `letters`, over a linear denominator a
    third of the time."""
    e = Expr.zero()
    for _ in range(rng.randint(1, 2)):
        term = Expr.rational(rng.choice([-2, -1, 1, 3]))
        for _ in range(rng.randint(0, 2)):
            term = term * Expr.var(rng.choice(letters))
        e = e + term
    if rng.random() < 0.3:
        e = e / (Expr.var(rng.choice(letters)) + Expr.rational(rng.randint(1, 3)))
    return e


def _random_bracket_field(rng, space) -> VectorField:
    # few coordinates and few letters each, so that many pairs bracket to
    # zero structurally
    base = space.coords[3]
    letters = rng.sample(space.coords, rng.randint(1, 2))
    if rng.random() < 0.3:
        letters.append(rng.choice([sin_var(base), cos_var(base)]))
    return VectorField(space, {c: _random_coefficient(rng, letters)
                               for c in rng.sample(space.coords,
                                                   rng.randint(1, 2))})


def test_lie_bracket_matches_sympy_and_skipped_pairs_bracket_to_zero():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    space = _bracket_space()
    xs = {c: sp.Symbol(c.label) for c in space.coords}
    base = space.coords[3]
    atoms = dict(xs)
    atoms[sin_var(base)] = sp.sin(xs[base])
    atoms[cos_var(base)] = sp.cos(xs[base])
    # after differentiation, sin and cos by tan-half: then sin^2 + cos^2 = 1,
    # which the library may use, holds as an identity of rational functions
    t = sp.Symbol("t")
    trig = {atoms[sin_var(base)]: 2 * t / (1 + t ** 2),
            atoms[cos_var(base)]: (1 - t ** 2) / (1 + t ** 2)}
    seen = {"skipped": 0, "nonzero": 0}

    def sym(v: VectorField, c):
        return _to_sympy(v.coeff(c), atoms)

    def is_zero(e) -> bool:
        return sp.cancel(e.subs(trig)) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        v, w = (_random_bracket_field(rng, space) for _ in range(2))
        got = lie_bracket(v, w)
        for c in space.coords:
            want = sum((sym(v, d) * sp.diff(sym(w, c), xs[d])
                        - sym(w, d) * sp.diff(sym(v, c), xs[d])
                        for d in space.coords), sp.Integer(0))
            assert is_zero(sym(got, c) - want), (v, w, c)
            if brackets_to_zero(v, w):
                assert is_zero(want), (v, w, c)
        seen["skipped"] += brackets_to_zero(v, w)
        seen["nonzero"] += not got.is_zero()

    check()
    assert seen["skipped"] and seen["nonzero"]
