"""The exact elimination over Z[x] (`jetgeom.symbolic_rank`) against the
former elimination over Q (`paper_identities.q_symbolic_rank`), exact
division on packed monomials, and certified membership, which replays the
elimination's pivot rows, against a full elimination of generators plus
probe."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from flatcheck.expr import (Expr, mono_cmp, mono_mul, param_var, pconst,
                            render_poly, sin_var, state_var)
from flatcheck.flatness import _chain, _gradient_field, verify_flat_output
from flatcheck.jetgeom import (Distribution, GeometryError, JetSpace,
                               MultiIndex, VectorField, _Packing, _zdiv,
                               _zmul, generic_rank, symbolic_rank, unit_field)
from flatcheck.prolong import (build_prolonged, delta_generators,
                               g_level_fields)

from paper_identities import q_symbolic_rank

FIVE = ("chained", "driftless", "clm", "pendulum", "threeinput")
# the paper's minimal prolongations of the flat fixtures
J_MIN = {"chained": (4, 0), "driftless": (2, 0), "clm": (0, 3),
         "threeinput": (1, 0, 0)}


def _assert_same(fields, space):
    got = symbolic_rank(fields, space)
    want = q_symbolic_rank(fields, space)
    assert tuple(got) == want
    assert [render_poly(f) for f in got[1]] == \
        [render_poly(f) for f in want[1]]
    return got


@pytest.mark.parametrize("name", FIVE)
def test_z_elimination_matches_q_on_the_filtrations(name, request):
    sysdef = request.getfixturevalue(name)
    for j in itertools.product(range(3), repeat=sysdef.m):
        ps = build_prolonged(sysdef, j)
        g_gens = []
        for k in range(4):
            g_gens = g_gens + g_level_fields(ps, k)
            for gens in (delta_generators(ps, k), g_gens):
                _assert_same([g for g in gens if not g.is_zero()], ps.space)


@pytest.mark.parametrize("name", sorted(J_MIN))
def test_z_elimination_matches_q_on_the_chain_jacobian(name, request):
    sysdef = request.getfixturevalue(name)
    ps = build_prolonged(sysdef, J_MIN[name],
                         base_point=sysdef.base_point().resolved())
    outputs = sysdef.declared_flat_outputs
    ok, cert = verify_flat_output(ps, outputs)
    assert ok
    rows = [_gradient_field(ps, phi)
            for y, kap in zip(outputs, cert["kappa_assignment"])
            for phi in _chain(ps, y, kap)]
    rank, _ = _assert_same(rows, ps.space)
    assert rank == ps.space.dim


# -- planted dependencies -------------------------------------------------------

def _space(ncols):
    coords = tuple(state_var(i, "x%d" % i) for i in range(1, ncols + 1))
    return JetSpace(n=ncols, m=0, j=MultiIndex(()), coords=coords)


def _poly_expr(rng, xs):
    """A random polynomial of degree <= 2 in xs with small rational
    coefficients, possibly zero."""
    out = Expr.zero()
    for _ in range(rng.randint(0, 3)):
        term = Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for v in rng.choices(xs, k=rng.randint(0, 2)):
            term = term * Expr.var(v)
        out = out + term
    return out


def test_z_elimination_rank_is_the_planted_rank():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 3),
           st.integers(0, 2 ** 32))
    def check(ncols, rank, extra, seed):
        rank = min(rank, ncols)
        rng = random.Random(seed)
        space = _space(ncols)
        xs = list(space.coords)
        # C = [I | *] has rank `rank`; rows are C's rows and random
        # combinations of them, so the matrix has rank `rank` exactly
        basis = []
        for i in range(rank):
            row = [Expr.one() if c == i else Expr.zero() for c in range(rank)]
            row += [_poly_expr(rng, xs) for _ in range(ncols - rank)]
            basis.append(row)
        rows = list(basis)
        for _ in range(extra):
            coeffs = [_poly_expr(rng, xs) for _ in basis]
            rows.append([sum((a * r[c] for a, r in zip(coeffs, basis)),
                             Expr.zero()) for c in range(ncols)])
        rng.shuffle(rows)
        order = list(range(ncols))
        rng.shuffle(order)
        fields = []
        for row in rows:
            # a nonzero rational scale with a denominator on some rows
            s = Expr.one() / (Expr.var(xs[0]) + Expr.rational(2)) \
                if rng.random() < 0.3 else Expr.rational(rng.choice([1, -2]))
            fields.append(VectorField(space, {xs[order[c]]: s * e
                                              for c, e in enumerate(row)}))
        got = _assert_same(fields, space)
        assert got[0] == rank

    check()


# -- exact division on packed monomials ----------------------------------------

VARS = [state_var(i, "x%d" % i) for i in range(1, 4)]


def _zpoly(draw, st, packing):
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
        st.integers(-4, 4).filter(bool)), min_size=1, max_size=4))
    out = {}
    for exps, c in terms:
        key = packing.pack(tuple((v, e) for v, e in zip(VARS, exps) if e))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def test_packed_exact_division():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    # factors of degree <= 9, so products of degree <= 18 fit
    packing = _Packing(VARS, 18)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        a = _zpoly(data.draw, st, packing)
        b = _zpoly(data.draw, st, packing)
        assume(a and b)
        assert _zdiv(_zmul(a, b), b, packing.guard) == a
        # b of positive degree never divides a*b + 1, and 2*b divides a*b
        # only if every coefficient of a is even
        if any(packing.unpack(k) for k in b):
            ab1 = _zmul(a, b)
            ab1[0] = ab1.get(0, 0) + 1
            with pytest.raises(ArithmeticError):
                _zdiv({k: c for k, c in ab1.items() if c}, b, packing.guard)
        if any(c % 2 for c in a.values()):
            with pytest.raises(ArithmeticError):
                _zdiv(_zmul(a, b), {k: 2 * c for k, c in b.items()},
                      packing.guard)

    check()


def test_packing_orders_like_graded_lex():
    packing = _Packing(VARS, 8)
    monos = [tuple((v, e) for v, e in zip(VARS, exps) if e)
             for exps in itertools.product(range(3), repeat=3)]
    for m1, m2 in itertools.product(monos, repeat=2):
        k1, k2 = packing.pack(m1), packing.pack(m2)
        assert (k1 > k2) - (k1 < k2) == mono_cmp(m1, m2)
        assert packing.unpack(k1) == m1
        assert packing.unpack(k1 + k2) == mono_mul(m1, m2)


def test_exponents_beyond_fifteen_bits():
    space = _space(3)
    x, y, z = (Expr.var(v) for v in space.coords)
    big = Expr.make({((space.coords[0], 2 ** 15),): Fraction(1)}, pconst(1))
    # [[x^(2^15), 1], [1, x]]: pivots x^(2^15) and x^(2^15 + 1) - 1
    fields = [VectorField(space, {space.coords[0]: big,
                                  space.coords[1]: Expr.one()}),
              VectorField(space, {space.coords[0]: Expr.one(),
                                  space.coords[1]: x})]
    rank, factors = _assert_same(fields, space)
    assert rank == 2
    assert [render_poly(f) for f in factors] == ["x1", "x1^32769 - 1"]
    # a third row divides by the pivot x^(2^15) at the second step
    third = VectorField(space, {space.coords[0]: y, space.coords[1]: z,
                                space.coords[2]: big * y})
    rank, _ = _assert_same(fields + [third], space)
    assert rank == 3
    dep = VectorField(space, {space.coords[0]: big * y + z,
                              space.coords[1]: y + z * x})
    rank, _ = _assert_same(fields + [dep], space)
    assert rank == 2


def test_a_trig_atom_left_after_the_substitution_raises():
    # a space that does not list x1 as a trig base leaves sin(x1) in place,
    # where the elimination's products would need sin^2 -> 1 - cos^2
    space = _space(2)
    s = Expr.var(sin_var(space.coords[0]))
    fields = [VectorField(space, {space.coords[0]: s,
                                  space.coords[1]: Expr.one()})]
    with pytest.raises(GeometryError):
        symbolic_rank(fields, space)
    trig = dataclasses.replace(space, trig_bases=(space.coords[0],))
    assert symbolic_rank([f.on(trig) for f in fields], trig)[0] == 1


# -- certified membership off the workloads' path -------------------------------

def _involved(gens):
    out = set()
    for g in gens:
        for e in g.coeffs.values():
            out |= e.free_base_vars()
    return out


def _probes(dist):
    """(label, probe) pairs: members and non-members of every kind the
    replay distinguishes."""
    space, gens = dist.space, dist.generators
    involved = _involved(gens)
    outside = [c for c in space.coords
               if not dist.contains(unit_field(space, c))]
    loose = [c for c in space.coords if c not in involved]
    g = gens[-1]
    x0 = space.coords[0]
    out = [("scaled member", g.scale(Expr.one() / (Expr.var(x0)
                                                   + Expr.rational(3))))]
    for c in outside:
        out.append(("off the span", unit_field(space, c)))
        out.append(("member plus outsider", g + unit_field(space, c)))
    for c in loose:
        out.append(("times an uninvolved coordinate", g.scale(Expr.var(c))))
        out.append(("unit field on an uninvolved coordinate",
                    unit_field(space, c)))
    out.append(("times a fresh parameter",
                g.scale(Expr.var(param_var("zeta")) ** 40)))
    # exponents beyond what the generators' own packing holds
    first = min(involved or space.coords, key=lambda v: v.sort_key())
    out.append(("times a high power", g.scale(Expr.var(first) ** 40)))
    out.append(("plus a high power off the span",
                g + unit_field(space, outside[0]).scale(
                    Expr.var(first) ** 40)))
    return out


CASES = [("chained", (1, 0), 1), ("chained", (2, 1), 2),
         ("driftless", (1, 0), 1), ("clm", (0, 1), 1),
         ("pendulum", (1, 1), 1), ("threeinput", (0, 1, 0), 1)]


@pytest.mark.parametrize("name,j,k", CASES)
def test_certified_membership_replays_a_full_elimination(name, j, k, request):
    sysdef = request.getfixturevalue(name)
    ps = build_prolonged(sysdef, j)
    dist = Distribution(ps.space, delta_generators(ps, k))
    assert dist.rank < ps.space.dim
    seen = {True: 0, False: 0}
    for label, v in _probes(dist):
        aug, _ = symbolic_rank(dist.generators + [v], dist.space)
        want = aug <= dist.rank
        assert dist.contains_certified(v) == want, label
        seen[want] += 1
    assert seen[True] and seen[False]


def test_certified_membership_without_generators(chained):
    ps = build_prolonged(chained, (0, 0))
    empty = Distribution(ps.space, [])
    assert empty.contains_certified(VectorField(ps.space, {}))
    assert not empty.contains_certified(unit_field(ps.space,
                                                   ps.space.coords[0]))


def test_certified_membership_widens_the_packing_for_the_probe():
    # the generator's row [x1, x2] packs into 3-bit fields, where x1^66 and
    # x1*x2^72 would share a key; the probe's replayed entry is their
    # difference, so only a packing wide enough for the probe tells it apart
    # from zero
    space = _space(2)
    x1, x2 = space.coords
    dist = Distribution(space, [VectorField(space, {x1: Expr.var(x1),
                                                    x2: Expr.var(x2)})])
    assert dist.certified(True).elimination.packing.width == 3
    probe = VectorField(space, {x2: Expr.var(x1) ** 65 - Expr.var(x2) ** 72})
    assert not dist.contains_certified(probe)
    assert symbolic_rank(dist.generators + [probe], space)[0] == 2
    assert dist.contains_certified(dist.generators[0].scale(
        Expr.var(x1) ** 65 - Expr.var(x2) ** 72))


def test_tan_half_clearing_keeps_the_rank_of_a_row_with_mixed_trig_degree():
    # g3 = g1 + g2, so the rank is 2; g2's d/dx3 entry has trig degree 1
    # and its d/dx2 entry degree 0
    xs = tuple(state_var(i, "x%d" % i) for i in range(1, 5))
    space = JetSpace(n=4, m=0, j=MultiIndex(()), coords=xs,
                     trig_bases=xs[3:])
    one = Expr.one()
    g1 = VectorField(space, {xs[0]: one, xs[2]: one})
    g2 = VectorField(space, {xs[1]: one, xs[2]: Expr.var(sin_var(xs[3]))})
    fields = [g1, g2, g1 + g2]
    assert generic_rank(fields, space, symbolic=False).sampled_rank == 2
    assert symbolic_rank(fields, space)[0] == 2
