import itertools
import random

import pytest

from flatcheck.expr import Expr
from flatcheck.jetgeom import (MultiIndex, VectorField, ad_pow, lie_bracket,
                               unit_field)
from flatcheck.prolong import (DomainError, PreconditionNotMet,
                               bracket_comparison_check, build_prolonged,
                               decomposition_check, delta_filtration,
                               delta_generators, g_filtration, g_stabilization,
                               gamma_coordinates, gamma_field,
                               gamma_filtration, gamma_rank_formula,
                               gamma_sequence, lift_field)
from flatcheck.sysdsl import SystemDef

from conftest import random_system
from propsuites import (suite_decomposition, suite_gamma_recursion,
                        suite_prolonged_bracket_identities)


def linear_system():
    # xdot = A x + B u with A = [[0,1],[0,0]], B = [[0,0],[1,2]]
    s = SystemDef(name="lin", state_names=["x1", "x2"],
                  input_names=["u1", "u2"], params={}, f=[])
    x2 = Expr.var(s.state(2))
    u1, u2 = Expr.var(s.input(1)), Expr.var(s.input(2))
    s.f = [x2, u1 + Expr.rational(2) * u2]
    return s


def uncontrollable_involutive_system():
    # all G_k^(0) involutive, max rank 4 < n + m = 5
    s = SystemDef(name="unc", state_names=["x1", "x2", "x3"],
                  input_names=["u1", "u2"], params={}, f=[])
    s.f = [Expr.var(s.input(1)), Expr.var(s.input(2)), Expr.var(s.state(3))]
    return s


# -- construction -------------------------------------------------------------

def test_build_prolonged_zero_reproduces_base_fields(chained):
    ps = build_prolonged(chained, [0, 0])
    assert ps.space.dim == 8
    for i, name in enumerate(chained.state_names, start=1):
        assert ps.g0.coeff(chained.state(i)) == chained.f[i - 1]
    assert ps.gi[0] == unit_field(ps.space, chained.input(1, 0))
    assert ps.gi[1] == unit_field(ps.space, chained.input(2, 0))


def test_build_prolonged_adds_integrator_chain(chained):
    ps = build_prolonged(chained, [4, 0])
    for p in range(0, 4):
        assert ps.g0.coeff(chained.input(1, p)) == Expr.var(chained.input(1, p + 1))
    assert ps.g0.coeff(chained.input(2, 0)).is_zero()
    assert ps.gi[0] == unit_field(ps.space, chained.input(1, 4))


# -- Gamma --------------------------------------------------------------------

def test_gamma_is_an_exact_coordinate_span(chained, driftless, clm, pendulum,
                                           threeinput):
    # rank and membership come from the coordinates alone: no sample points
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        for j in itertools.product(range(0, 4), repeat=sysdef.m):
            ps = build_prolonged(sysdef, j)
            for k in range(0, 5):
                gam = gamma_filtration(ps, k)
                assert gam.rank == gamma_rank_formula(ps.j, k), (j, k)
                assert gam.certificate.points == []
                assert len(gam.generators) == gam.rank


def test_gamma_membership_is_a_support_test(chained):
    ps = build_prolonged(chained, [4, 0])
    gam = gamma_filtration(ps, 1)             # d/du1^(4), d/du1^(3)
    u13, u14 = chained.input(1, 3), chained.input(1, 4)
    x1 = Expr.var(chained.state(1))
    inside = VectorField(ps.space, {u13: x1 * x1 + Expr.one(),
                                    u14: Expr.var(u13) / (x1 + Expr.one())})
    assert gam.contains(inside)
    assert gam.contains(VectorField(ps.space, {}))
    for outside in (chained.input(1, 2), chained.input(2, 0), chained.state(3)):
        assert not gam.contains(
            VectorField(ps.space, {**inside.coeffs, outside: x1}))
        assert not gam.contains(unit_field(ps.space, outside))


def test_gamma_filtration_examples(chained):
    ps = build_prolonged(chained, [4, 0])
    for k in range(3, 9):
        assert gamma_filtration(ps, k).rank == 4       # = |j| once k >= j_m - 1
    ps0 = build_prolonged(chained, [0, 0])
    assert gamma_filtration(ps0, 3).rank == 0          # j = 0: empty
    gens = gamma_filtration(ps, 2).generators
    want = [unit_field(ps.space, chained.input(1, 4)),
            unit_field(ps.space, chained.input(1, 3)),
            unit_field(ps.space, chained.input(1, 2))]
    assert gens == want


# -- Delta --------------------------------------------------------------------

def test_delta_convention_k0(threeinput):
    ps = build_prolonged(threeinput, [1, 0, 0])
    gens = delta_filtration(ps, 0).generators
    # only channels with j_p = 0 contribute at k = 0
    assert gens == [unit_field(ps.space, threeinput.input(2, 0)),
                    unit_field(ps.space, threeinput.input(3, 0))]


def test_delta_driftless_reaches_full_vertical(driftless):
    ps = build_prolonged(driftless, [2, 0])
    assert delta_filtration(ps, 3).rank == 6           # T R^6


def test_delta_clm_reaches_full_vertical(clm):
    ps = build_prolonged(clm, [0, 3])
    assert delta_filtration(ps, 4).rank == 6


# -- G ------------------------------------------------------------------------

def test_g_filtration_examples(chained, driftless):
    ps0 = build_prolonged(chained, [0, 0])
    assert g_filtration(ps0, 0).rank == 2              # rank m by construction
    ps = build_prolonged(chained, [4, 0])
    assert g_filtration(ps, 7).rank == 12              # T R^12
    psd = build_prolonged(driftless, [2, 0])
    assert g_filtration(psd, 3).rank == 8              # T R^8


def test_g_stabilization_bound(chained):
    ps = build_prolonged(chained, [4, 0])
    ranks, kstar = g_stabilization(ps)
    assert kstar == 7 <= chained.n + 4
    assert ranks == [2, 4, 6, 8, 9, 10, 11, 12]


# -- decomposition ------------------------------------------------------------

def test_decomposition_fixture_levels(chained, clm):
    ps = build_prolonged(chained, [4, 0])
    for k in range(0, 8):
        assert decomposition_check(ps, k)
    psc = build_prolonged(clm, [0, 3])
    for k in range(0, 5):
        assert decomposition_check(psc, k)


def test_decomposition_k0_random():
    rng = random.Random(88)
    for _ in range(10):
        sysdef = random_system(rng)
        j = MultiIndex(sorted([0] + [rng.randint(0, 3)
                                     for _ in range(sysdef.m - 1)]))
        assert decomposition_check(build_prolonged(sysdef, j), 0)


def test_delta_rank_nondecreasing_and_tail(chained):
    ps = build_prolonged(chained, [4, 0])
    ranks = [delta_filtration(ps, k).rank for k in range(0, 10)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    _, kstar = g_stabilization(ps)
    # Prop 3.2 tail: Delta and Gamma freeze at k_star
    for k in range(kstar, kstar + 3):
        assert delta_filtration(ps, k).rank == delta_filtration(ps, kstar).rank
        assert gamma_filtration(ps, k).rank == gamma_filtration(ps, kstar).rank
    top = delta_filtration(ps, kstar)
    for g in delta_filtration(ps, kstar + 2).generators:
        assert top.contains(g)


def test_gamma_delta_brackets_stay_vertical(chained, clm):
    # [Gamma_k, Delta_l] has no components on prolonged-derivative coordinates
    for sysdef, j in ((chained, [4, 0]), (clm, [0, 3])):
        ps = build_prolonged(sysdef, j)
        for k, l in ((1, 2), (2, 3), (3, 3)):
            for gv in gamma_filtration(ps, k).generators:
                for dv in delta_filtration(ps, l).generators:
                    br = lie_bracket(gv, dv)
                    for coord in br.coeffs:
                        assert coord.kind != 1 or coord.k == 0


def test_gamma_invariance_reduces_to_the_k_plus_1_capped_prolongation(
        chained, driftless, clm, pendulum, threeinput):
    # the two facts behind Context.gamma_invariant, for j in {0..2k+1}^m:
    # Delta_k has the same generators on the (k+1)-capped prolongation, and
    # a Gamma coordinate of order >= k brackets to zero with all of them
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        systems = {}

        def ps(j):
            if j not in systems:
                systems[j] = build_prolonged(sysdef, j)
            return systems[j]

        for k in range(0, 4):
            for j in itertools.product(range(0, 2 * k + 2), repeat=sysdef.m):
                gens = delta_generators(ps(j), k)
                capped = tuple(min(jp, k + 1) for jp in j)
                assert [g.key() for g in gens] == \
                    [g.key() for g in delta_generators(ps(capped), k)], (j, k)
                for c in gamma_coordinates(sysdef, j, k):
                    if c.k >= k:
                        d_c = unit_field(ps(j).space, c)
                        assert all(lie_bracket(d_c, g).is_zero()
                                   for g in gens), (j, k, c)


# -- gamma sequence -----------------------------------------------------------

def test_gamma_sequence_base_case(chained):
    gam = gamma_sequence(chained, [4, 0], 2, 1)
    # (-1)^(0+1) df/du2: entries -1 on the x22 row and -u1 on the x3 row
    assert gam[4] == -Expr.one()
    assert gam[5] == -Expr.var(chained.input(1, 0))
    assert all(gam[r].is_zero() for r in (0, 1, 2, 3))
    with pytest.raises(DomainError):
        gamma_sequence(chained, [4, 0], 2, 0)


def test_gamma_sequence_matches_bracket(chained):
    ps = build_prolonged(chained, [4, 0])
    for i, k in ((2, 1), (2, 2), (2, 3), (1, 1), (1, 2)):
        assert gamma_field(ps, i, k) == ps.ad_top(i, ps.j[i - 1] + k)


def test_gamma_sequence_linear_closed_form():
    s = linear_system()
    A = [[Expr.zero(), Expr.one()], [Expr.zero(), Expr.zero()]]
    B = [[Expr.zero(), Expr.zero()], [Expr.one(), Expr.rational(2)]]
    for j in (MultiIndex([0, 0]), MultiIndex([0, 2]), MultiIndex([1, 0])):
        for i in (1, 2):
            col = [B[0][i - 1], B[1][i - 1]]
            sign = -1 if (j[i - 1] + 1) % 2 else 1
            for k in range(1, 4):
                gam = gamma_sequence(s, j, i, k)
                want = [Expr.rational(sign) * col[0],
                        Expr.rational(sign) * col[1]]
                assert gam == want
                # advance the closed form: col <- -A col
                col = [-(A[0][0] * col[0] + A[0][1] * col[1]),
                       -(A[1][0] * col[0] + A[1][1] * col[1])]


# -- appendix comparison ------------------------------------------------------

def test_bracket_comparison_exact_identity(chained):
    assert bracket_comparison_check(chained, [4, 0], 1, 0)
    assert bracket_comparison_check(chained, [2, 0], 1, 0)


def test_bracket_comparison_linear_difference_vanishes():
    s = linear_system()
    for j in ([0, 0], [2, 0], [1, 3]):
        ps = build_prolonged(s, j)
        ps0 = build_prolonged(s, [0, 0])
        for i in (1, 2):
            for nu in (1, 2, 3):
                lhs = ps.ad_top(i, ps.j[i - 1] + nu)
                rhs = lift_field(ad_pow(ps0.g0, ps0.gi[i - 1], nu), ps.space)
                if ps.j[i - 1] % 2 == 1:
                    rhs = -rhs
                assert (lhs - rhs).is_zero()


def test_bracket_comparison_membership_on_involutive_fixture():
    s = uncontrollable_involutive_system()
    for j in ([0, 1], [0, 2], [0, 3]):
        for nu in (1, 2, 3):
            assert bracket_comparison_check(s, j, 2, nu)


def test_bracket_comparison_precondition(chained):
    with pytest.raises(PreconditionNotMet):
        bracket_comparison_check(chained, [1, 0], 1, 1)


def test_strong_controllability_reduction_lemma():
    # all G_k^(0) involutive and rank-deficient: every prolongation keeps the
    # deficiency (max rank G^(j) = max rank G^(0) + |j| < n + m + |j|), and
    # the vertical block never exceeds the order-zero maximum
    s = uncontrollable_involutive_system()
    ps0 = build_prolonged(s, [0, 0])
    ranks0, kstar0 = g_stabilization(ps0)
    assert ranks0[-1] < s.n + s.m
    for k in range(0, kstar0 + 1):
        ok, _ = g_filtration(ps0, k).is_involutive()
        assert ok
    for j in ([0, 1], [0, 3], [2, 0], [0, 2], [1, 3]):
        ps = build_prolonged(s, MultiIndex(j))
        ranks, kst = g_stabilization(ps)
        total = sum(j)
        assert ranks[-1] == ranks0[-1] + total < s.n + s.m + total
        for k in range(0, kst + 1):
            assert delta_filtration(ps, k).rank <= ranks0[-1]
            ok, _ = g_filtration(ps, k).is_involutive()
            assert ok


# -- randomized suites (smaller sizes; acceptance runs them at 200) -----------

def test_prolonged_identities_small():
    assert suite_prolonged_bracket_identities(40) == 40


def test_decomposition_small():
    assert suite_decomposition(40) == 40


def test_gamma_recursion_small():
    assert suite_gamma_recursion(40) == 40


def test_gamma_filtration_always_involutive(chained, clm):
    for sysdef, j in ((chained, [4, 0]), (clm, [0, 3])):
        ps = build_prolonged(sysdef, j)
        for k in (0, 2, 5):
            ok, _ = gamma_filtration(ps, k).is_involutive()
            assert ok
