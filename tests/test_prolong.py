import itertools
import json
import random

import pytest

from flatcheck import prolong
from flatcheck.expr import DenominatorVanishes, Expr
from flatcheck.jetgeom import (Distribution, MultiIndex, PointEchelon,
                               SamplePoints, VectorField, ad_pow, lie_bracket,
                               unit_field)
from flatcheck.prolong import (build_prolonged, delta_filtration,
                               delta_generators, g_filtration, g_level_fields,
                               g_stabilization, gamma_coordinates,
                               gamma_filtration)
from flatcheck.flatness import Budgets, Context
from flatcheck.sysdsl import SystemDef, parse_system

from conftest import DRIFTLESS_PLUS_Z, ROOT, load_workloads, random_system
from paper_identities import (BoxSigmaRun, DomainError, PreconditionNotMet,
                              ad_top, bracket_comparison_check,
                              decomposition_check,
                              gamma_field, gamma_rank_formula, gamma_sequence,
                              lift_field, span_contains, span_is_involutive)
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
    assert span_contains(gam, inside)
    assert span_contains(gam, VectorField(ps.space, {}))
    for outside in (chained.input(1, 2), chained.input(2, 0), chained.state(3)):
        assert not span_contains(
            gam, VectorField(ps.space, {**inside.coeffs, outside: x1}))
        assert not span_contains(gam, unit_field(ps.space, outside))


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


# -- the nested G filtration ---------------------------------------------------

CHAIN_JS = {"chained": [(0, 0), (4, 0)], "driftless": [(0, 0), (2, 0)],
            "clm": [(0, 0), (0, 3)], "pendulum": [(0, 0), (1, 1)],
            "threeinput": [(0, 0, 0), (1, 0, 0)]}


def _chains(fixtures, seeds=(0, 11)):
    """(ps, [G_0, ..., G_{k*+1}]) for each fixture, j and seed, each G_k
    built by `g_stabilization` and so extended from G_{k-1}."""
    for sysdef in fixtures:
        for j in CHAIN_JS[sysdef.name]:
            for seed in seeds:
                ps = build_prolonged(sysdef, j, seed=seed,
                                     base_point=sysdef.base_point().resolved())
                _, kstar = g_stabilization(ps)
                yield ps, [g_filtration(ps, k) for k in range(kstar + 2)]


def _from_scratch(ps, dist):
    return Distribution(ps.space, dist.generators, seed=ps.seed,
                        samples=ps.samples, base_point=ps.base_point,
                        points=ps.points)


def _full_sweep(dist):
    """(ok, first failure) of every generator pair, in combinations order."""
    for a, b in itertools.combinations(dist.generators, 2):
        br = lie_bracket(a, b)
        if not br.is_zero() and not dist.contains(br):
            return False, (a, b, br)
    return True, None


def test_extended_g_echelons_equal_a_build_from_scratch(chained, driftless,
                                                        clm, pendulum,
                                                        threeinput):
    extended = 0
    for ps, dists in _chains((chained, driftless, clm, pendulum, threeinput)):
        for k, dist in enumerate(dists):
            assert dist._extended == (k > 0), (ps.sysdef.name, ps.j, k)
            extended += dist._extended
            fresh = _from_scratch(ps, dist)
            got, want = dist.certified(False), fresh.certified(False)
            assert got.points == want.points
            assert [e.rows for e in got.echelons] == \
                [e.rows for e in want.echelons]
            assert dist.sampled_rank == fresh.sampled_rank
            assert (got.base_point_rank, got.base_point_drop) == \
                (want.base_point_rank, want.base_point_drop)
            assert dist._base_echelon().rows == fresh._base_echelon().rows
            assert dist.rank == fresh.rank
    assert extended > 50


def test_involutivity_on_the_new_pairs_matches_the_full_sweep(
        chained, driftless, clm, pendulum, threeinput):
    shortcut = failed_on_new_pairs = after_a_failure = 0
    for ps, dists in _chains((chained, driftless, clm, pendulum, threeinput)):
        for k, dist in enumerate(dists):
            prefix = dists[k - 1] if k else None
            new_pairs_only = bool(prefix and dist._extended
                                  and prefix.is_involutive()[0])
            got = dist.is_involutive()
            want = _full_sweep(_from_scratch(ps, dist))
            assert got[0] == want[0], (ps.sysdef.name, ps.j, k)
            if not got[0]:
                assert got[1][:2] == want[1][:2]
                assert got[1][2] == want[1][2]
            shortcut += new_pairs_only
            failed_on_new_pairs += new_pairs_only and not got[0]
            after_a_failure += bool(prefix) and not prefix.is_involutive()[0]
    # pendulum's static G_2 fails on a new pair; driftless' G_3 at j = 0
    # follows a non-involutive G_2
    assert shortcut and failed_on_new_pairs and after_a_failure


def test_involutivity_sweeps_only_the_new_pairs(pendulum, monkeypatch):
    from flatcheck import jetgeom
    ps = build_prolonged(pendulum, [0, 0])
    g0, g1 = g_filtration(ps, 0), g_filtration(ps, 1)
    assert g0.is_involutive()[0]
    swept = []
    orig = jetgeom.bracket_failures

    def counted(pairs, member, bracket=None):
        pairs = list(pairs)
        swept.extend(pairs)
        return orig(pairs, member, bracket)

    monkeypatch.setattr(jetgeom, "bracket_failures", counted)
    assert g1.is_involutive()[0]
    old = len(g0.generators)
    assert swept == [(a, b) for a, b in
                     itertools.combinations(g1.generators, 2)
                     if g1.generators.index(b) >= old]


def test_a_pole_at_a_prefix_point_falls_back_to_a_fresh_sample(chained,
                                                               monkeypatch):
    ps = build_prolonged(chained, [1, 0])
    level1 = {f.key() for f in g_level_fields(ps, 1)}
    orig = SamplePoints.row

    def pole_at_point_0(self, v, point):
        if point.index == 0 and v.key() in level1:
            raise DenominatorVanishes(point)
        return orig(self, v, point)

    monkeypatch.setattr(SamplePoints, "row", pole_at_point_0)
    g0, g1 = g_filtration(ps, 0), g_filtration(ps, 1)
    assert g0._extended is False and g1._extended is False
    assert [p.index for p in g0.certified(False).points] == [0, 1, 2, 3, 4]
    assert [p.index for p in g1.certified(False).points] == [1, 2, 3, 4, 5]
    fresh = _from_scratch(ps, g1)
    assert [e.rows for e in g1.certified(False).echelons] == \
        [e.rows for e in fresh.certified(False).echelons]
    assert g1.sampled_rank == fresh.sampled_rank == 4
    assert g1.is_involutive() == _full_sweep(fresh)


# -- nested Delta homes -------------------------------------------------------

FIXTURE_J_MIN = {"chained": (4, 0), "driftless": (2, 0), "clm": (0, 3),
                 "threeinput": (1, 0, 0)}


def _analysis_contexts(sysdef, seed, monkeypatch):
    """The Contexts of one analyze, of one analyze with the former sigma
    step, which builds the home of every class of the box, and of one
    cns_check at the fixture's j_min on a fresh Context, each with every
    home it built."""
    from flatcheck import flatness
    made = []
    orig = flatness.Context.__init__

    def recorded(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(flatness.Context, "__init__", recorded)
    flatness.analyze(sysdef, Budgets(seed=seed))
    with monkeypatch.context() as patch:
        patch.setattr(flatness, "SigmaRun", BoxSigmaRun)
        flatness.analyze(sysdef, Budgets(seed=seed))
    if sysdef.name in FIXTURE_J_MIN:
        flatness.cns_check(sysdef, FIXTURE_J_MIN[sysdef.name], seed=seed)
    monkeypatch.setattr(flatness.Context, "__init__", orig)
    return made


def test_extended_delta_homes_equal_a_build_from_scratch(
        chained, driftless, clm, pendulum, threeinput, monkeypatch):
    from flatcheck.flatness import _cap
    nested = extended = homes = 0
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        for seed in (0, 11):
            for ctx in _analysis_contexts(sysdef, seed, monkeypatch):
                for (capped, k), dist in ctx._delta.items():
                    homes += 1
                    where = (sysdef.name, seed, capped, k)
                    lower = ctx._delta.get((_cap(capped, k), k - 1))
                    if k and lower is not None:
                        nested += 1
                        assert {g.key() for g in lower.generators} <= \
                            {g.key() for g in dist.generators}, where
                    extended += dist._extended
                    fresh = Distribution(
                        dist.space, dist.generators, seed=seed,
                        samples=ctx.budgets.samples,
                        base_point=ctx.base_point, points=ctx.points)
                    got, want = dist.certified(False), fresh.certified(False)
                    assert got.points == want.points, where
                    assert [e.rows for e in got.echelons] == \
                        [e.rows for e in want.echelons], where
                    assert dist.sampled_rank == fresh.sampled_rank, where
                    assert dist.is_involutive() == fresh.is_involutive(), \
                        where
                    for c in list(dist._coordinate_failures) + \
                            list(dist.space.coords[sysdef.n:]):
                        assert dist.coordinate_failure(c) == \
                            fresh.coordinate_failure(c), where
    assert nested > 400 and extended > 400 and homes > 500


def test_delta_sweeps_visit_only_the_new_generators(chained, monkeypatch):
    from flatcheck import jetgeom
    ctx = Context(chained, Budgets())
    d0, d1 = ctx.home((0, 0), 0), ctx.home((0, 0), 1)
    assert d1._prefix is d0 and d1._extended
    assert ctx.delta_involutive((0, 0), 0)[0]
    u1 = chained.input(1, 0)
    assert d0.coordinate_failure(u1) is None
    # by channel, then depth: the new links do not come last
    gens = d1.generators
    assert d1._new == [gens[1], gens[3]]
    swept = []
    orig = jetgeom.bracket_failures

    def counted(pairs, member, bracket=None):
        pairs = list(pairs)
        swept.extend(pairs)
        return orig(pairs, member, bracket)

    monkeypatch.setattr(jetgeom, "bracket_failures", counted)
    d1.is_involutive()
    assert swept == [(a, b) for a, b in itertools.combinations(gens, 2)
                     if a in d1._new or b in d1._new]
    del swept[:]
    d1.coordinate_failure(u1)
    assert [b for _, b in swept] == [gens[1], gens[3]]


def test_a_prefix_must_have_only_generators_of_the_distribution(chained):
    ps = build_prolonged(chained, [0, 0])
    g0, g1 = ps.gi
    prefix = Distribution(ps.space, [g0, g1], points=ps.points)
    with pytest.raises(ValueError):
        Distribution(ps.space, [g1, ps.g0], points=ps.points, prefix=prefix)
    dist = Distribution(ps.space, [g1, ps.g0, g0], points=ps.points,
                        prefix=prefix)
    assert dist._extended and dist._new == [ps.g0]


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


def _link_systems(chained, driftless, clm, pendulum, threeinput):
    return (chained, driftless, clm, pendulum, threeinput,
            parse_system(DRIFTLESS_PLUS_Z))


def _link_box(sysdef):
    """(p, r, j) for r <= 3 and j in {0..r+1}^m."""
    return [(p, r, j) for r in range(0, 4)
            for j in itertools.product(range(0, r + 2), repeat=sysdef.m)
            for p in range(1, sysdef.m + 1)]


def test_chain_links_equal_their_cap_j_r_links(chained, driftless, clm,
                                               pendulum, threeinput):
    # ad_{g0}^r d/du_p^(0) has the same coefficients on X^(j) as on
    # X^(min(j, r)), each prolongation bracketing its own chain
    for sysdef in _link_systems(chained, driftless, clm, pendulum, threeinput):
        systems = {}

        def ps(j):
            if j not in systems:
                systems[j] = build_prolonged(sysdef, j)
            return systems[j]

        for p, r, j in _link_box(sysdef):
            capped = tuple(min(jq, r) for jq in j)
            assert ps(j).ad_u0(p, r).key() == ps(capped).ad_u0(p, r).key(), \
                (sysdef.name, j, p, r)
            # links 0..r meet drift terms only at u_q^(t), t <= r - 2, so
            # they are those of X^(cap(j, r - 1)) too, which is what the
            # Context's memo of `links` keys on
            below = tuple(min(jq, max(r - 1, 0)) for jq in j)
            assert ps(j).ad_u0(p, r).key() == ps(below).ad_u0(p, r).key(), \
                (sysdef.name, j, p, r)


def test_context_brackets_each_chain_link_once(chained, driftless, clm,
                                               pendulum, threeinput,
                                               monkeypatch):
    # the Context's link store brackets once per (previous link, drift terms
    # it meets), and never more often than once per (p, r, cap(j, r))
    brackets = []
    orig = prolong.lie_bracket

    def counted(v, w):
        brackets.append((v, w))
        return orig(v, w)

    for sysdef in _link_systems(chained, driftless, clm, pendulum, threeinput):
        ctx = Context(sysdef, Budgets())
        store = ctx.chain_links
        box = _link_box(sysdef)
        with monkeypatch.context() as patch:
            patch.setattr(prolong, "lie_bracket", counted)
            del brackets[:]
            shared = [store.links(p, r, j)[-1] for p, r, j in box]
        links = {(p, s, tuple(min(jq, s) for jq in j))
                 for p, r, j in box for s in range(1, r + 1)}
        assert len(brackets) == len(store._link_next), sysdef.name
        assert len(brackets) <= len(links), sysdef.name
        for (p, r, j), lid in zip(box, shared):
            ps = build_prolonged(sysdef, j)
            direct = ad_pow(ps.g0, unit_field(ps.space, sysdef.input(p, 0)), r)
            assert store.fields[lid].key() == direct.key(), \
                (sysdef.name, j, p, r)


def test_context_links_are_memoized_on_cap_j_r_minus_1(chained, driftless,
                                                       clm, pendulum,
                                                       threeinput):
    # a second walk of a chain is one lookup, for every j with the same
    # cap(j, r - 1), and brackets nothing
    for sysdef in _link_systems(chained, driftless, clm, pendulum, threeinput):
        store = Context(sysdef, Budgets()).chain_links
        box = _link_box(sysdef)
        first = [store.links(p, r, j) for p, r, j in box]
        made = len(store._link_next)
        for (p, r, j), ids in zip(box, first):
            below = tuple(min(jq, max(r - 1, 0)) for jq in j)
            assert store.links(p, r, below) == ids, (sysdef.name, j, p, r)
            if r:
                assert store.links(p, r, below) is ids
        assert len(store._link_next) == made, sysdef.name


def _ad_pow_levels(ps, top):
    return [[ad_pow(ps.g0, g, r).key() for g in ps.gi]
            for r in range(top + 1)]


def test_g_levels_equal_the_iterated_brackets(chained, driftless, clm,
                                              pendulum, threeinput,
                                              monkeypatch):
    # level r of channel i is (-1)^r d/du_i^(j_i - r) up to r = j_i, then
    # (-1)^j_i times chain link r - j_i: key for key ad_{g0}^r g_i, both on a
    # system of a Context, which brackets no link its store already holds,
    # and on a standalone one, whose own store brackets each link once
    own = []
    real = prolong.lie_bracket

    def counted(v, w):
        own.append((v.key(), w.key()))
        return real(v, w)

    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        ctx = Context(sysdef, Budgets())
        for j in itertools.product(range(0, 3), repeat=sysdef.m):
            expected = _ad_pow_levels(build_prolonged(sysdef, j), 5)
            for ps in (ctx.ps(j), build_prolonged(sysdef, j)):
                held = len(ps.links._link_next)
                with monkeypatch.context() as patch:
                    patch.setattr(prolong, "lie_bracket", counted)
                    del own[:]
                    levels = [g_level_fields(ps, r) for r in range(6)]
                # every bracket made a link the store did not hold
                assert len(own) == len(set(own)) == \
                    len(ps.links._link_next) - held, (sysdef.name, j)
                if ps.links is not ctx.chain_links:
                    assert held == 0 and own, (sysdef.name, j)
                assert [[g.key() for g in level] for level in levels] == \
                    expected, (sysdef.name, j)
                assert all(g.space is ps.space
                           for level in levels for g in level)


def _stabilization_systems(chained, driftless, clm, pendulum, threeinput):
    """(system, j) for the five fixtures and the 6 generated benchmark
    systems, at j = 0 and at the j_min of perfbench/expected.json."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    wl = load_workloads()
    systems = {s.name: s for s in (chained, driftless, clm, pendulum,
                                   threeinput)}
    for w in ("deep_chains", "wide_inputs"):
        for _, text in wl.workload(w, str(ROOT)):
            sysdef = parse_system(text)
            systems.setdefault(sysdef.name, sysdef)
    assert len(systems) == 11
    for name, sysdef in systems.items():
        yield sysdef, (0,) * sysdef.m
        if expected["systems"][name]["j_min"] is not None:
            yield sysdef, tuple(expected["systems"][name]["j_min"])


def test_sample_proven_g_ranks_equal_the_certified_rank(chained, driftless,
                                                        clm, pendulum,
                                                        threeinput):
    # g_stabilization takes a G_k's sampled rank where it reaches
    # min(#generators, dim), with no elimination for it; each rank so taken
    # equals the rank of the exact elimination, at every dimension
    taken = certified = 0
    for sysdef, j in _stabilization_systems(chained, driftless, clm,
                                            pendulum, threeinput):
        ps = build_prolonged(sysdef, j)
        ranks, _ = g_stabilization(ps)
        for (_, k), dist in sorted(ps._dist_cache.items()):
            bound = min(len(dist.generators), ps.space.dim)
            if dist.sampled_rank != bound:
                certified += ps.space.dim <= 12
                assert (True in dist._certificates) == (ps.space.dim <= 12)
                continue
            taken += 1
            assert True not in dist._certificates, (sysdef.name, j, k)
            assert dist.certified(True).rank == bound, (sysdef.name, j, k)
            assert ranks[k:k + 1] in ([], [bound])
    assert (taken, certified) == (108, 6)


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
        assert gamma_field(ps, i, k) == ad_top(ps, i, ps.j[i - 1] + k)


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
                lhs = ad_top(ps, i, ps.j[i - 1] + nu)
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
            ok, _ = span_is_involutive(gamma_filtration(ps, k))
            assert ok


def test_delta_home_base_point_ranks_equal_a_build_from_scratch(
        chained, driftless, clm, pendulum, threeinput, monkeypatch):
    # a home extends its Delta_{k-1} home's base-point echelon even from a
    # smaller jet space: base-point rows share the sample rows' columns
    across = 0
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        for seed in (0, 11):
            for ctx in _analysis_contexts(sysdef, seed, monkeypatch):
                for (capped, k), dist in ctx._delta.items():
                    where = (sysdef.name, seed, capped, k)
                    fresh = Distribution(
                        dist.space, dist.generators, seed=seed,
                        samples=ctx.budgets.samples,
                        base_point=ctx.base_point, points=ctx.points)
                    got, want = dist.certified(False), fresh.certified(False)
                    assert (got.base_point_rank, got.base_point_drop) == \
                        (want.base_point_rank, want.base_point_drop), where
                    ech, ref = dist._base_echelon(), fresh._base_echelon()
                    assert (ech is None) == (ref is None), where
                    assert ech is None or ech.rows == ref.rows, where
                    prefix = dist._prefix
                    across += prefix is not None and prefix.space != dist.space
    assert across > 50


def test_a_home_evaluates_only_its_new_generators_at_the_base_point(
        monkeypatch):
    # one deep_chains analyze pass at seed 0: the homes whose Delta_{k-1}
    # home lies on a smaller jet space evaluate 12 rows at the base point,
    # where rebuilding their echelons from scratch took 54
    from flatcheck import flatness
    from flatcheck.expr import JetOrigin
    building, rows = [], {}
    base_echelon = Distribution._base_echelon
    evaluate = SamplePoints.evaluate

    def tracked_echelon(self):
        building.append(self)
        try:
            return base_echelon(self)
        finally:
            building.pop()

    def counted(self, v, point):
        if isinstance(point, JetOrigin):
            rows[id(building[-1])] = rows.get(id(building[-1]), 0) + 1
        return evaluate(self, v, point)

    monkeypatch.setattr(Distribution, "_base_echelon", tracked_echelon)
    monkeypatch.setattr(SamplePoints, "evaluate", counted)
    made = []
    init = flatness.Context.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(flatness.Context, "__init__", recorded)
    for _, text in load_workloads().workload("deep_chains", str(ROOT)):
        flatness.analyze(parse_system(text), Budgets(seed=0))
    across = evaluated = 0
    for ctx in made:
        for dist in set(ctx._delta.values()):
            # homes whose base-point echelon was read and has no pole
            if dist._prefix is None or \
                    not isinstance(dist._base_ech, PointEchelon):
                continue
            n = rows.get(id(dist), 0)
            assert n == len(dist._new), dist.space.j
            if dist._prefix.space != dist.space:
                across += 1
                evaluated += n
    assert (across, evaluated) == (12, 12)
