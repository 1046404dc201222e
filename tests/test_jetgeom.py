import itertools
import random
from fractions import Fraction

import pytest

from flatcheck.expr import Expr, fraction_mod, state_var, tan_half_values
from flatcheck.jetgeom import (FP, QQ, Distribution, MultiIndex,
                               PointEchelon, SamplePoints, SpaceMismatch,
                               VectorField, ad_pow,
                               bracket_failures, brackets_to_zero,
                               fraction_rank, lie_bracket, unit_field)
from flatcheck.prolong import (build_prolonged, delta_filtration, g_filtration,
                               g_level_fields)

from conftest import oracle_bracket, random_field, random_system
from paper_identities import (IterationBudgetExceeded, ad_top,
                              back_substituted_nullspace, cmin,
                              involutive_closure, is_vertical)
from propsuites import suite_bracket_algebra


def test_multiindex_ops():
    a = MultiIndex([2, 0, 3])
    b = MultiIndex([1, 4, 3])
    assert cmin(a, b) == (1, 0, 3)
    assert cmin(a, 1) == (1, 0, 1)
    assert a.total == 5
    srt, perm = a.sorted_permutation()
    assert srt == (0, 2, 3) and perm == (1, 0, 2)
    with pytest.raises(ValueError):
        MultiIndex([-1])


def test_chained_bracket_examples(chained):
    ps = build_prolonged(chained, [0, 0])
    g0, g1 = ps.g0, ps.gi[0]
    br = lie_bracket(g0, g1)
    want = VectorField(ps.space, {chained.state(3): -Expr.one(),
                                  chained.state(6): -Expr.var(chained.input(2))})
    assert br == want
    assert lie_bracket(g1, g1).is_zero()


def test_ad_pow_examples(chained):
    ps = build_prolonged(chained, [0, 0])
    g0, g1 = ps.g0, ps.gi[0]
    assert ad_pow(g0, g1, 0) == g1
    assert ad_pow(g0, g1, 2) == unit_field(ps.space, chained.state(2))
    assert ad_pow(g0, g1, 4).is_zero()
    with pytest.raises(ValueError):
        ad_pow(g0, g1, -1)


def test_bracket_matches_independent_oracle():
    rng = random.Random(606)
    for _ in range(100):
        sysdef = random_system(rng)
        ps = build_prolonged(sysdef, [0] * sysdef.m)
        v = random_field(rng, ps.space)
        w = random_field(rng, ps.space)
        assert lie_bracket(v, w) == oracle_bracket(v, w)


def test_space_mismatch(chained, driftless):
    s1 = build_prolonged(chained, [0, 0])
    s2 = build_prolonged(driftless, [0, 0])
    with pytest.raises(SpaceMismatch):
        lie_bracket(s1.g0, s2.g0)


def test_generic_rank_identity_distribution(chained):
    ps = build_prolonged(chained, [0, 0])
    gens = [unit_field(ps.space, chained.state(i)) for i in range(1, 7)]
    d = Distribution(ps.space, gens)
    assert d.rank == 6


def test_generic_rank_chained_g1(chained):
    ps = build_prolonged(chained, [0, 0])
    assert g_filtration(ps, 1).rank == 4


def test_generic_rank_constructed_dependency(chained):
    ps = build_prolonged(chained, [0, 0])
    rng = random.Random(3)
    a = random_field(rng, ps.space)
    b = random_field(rng, ps.space)
    d = Distribution(ps.space, [a, b, a + b])
    assert d.rank == Distribution(ps.space, [a, b]).rank


def test_contains(chained):
    ps = build_prolonged(chained, [0, 0])
    G1 = g_filtration(ps, 1)
    assert G1.contains(G1.generators[0])
    assert G1.contains(VectorField(ps.space, {}))
    bad = lie_bracket(ps.gi[1], lie_bracket(ps.g0, ps.gi[0]))
    assert bad == VectorField(ps.space, {chained.state(6): -Expr.one()})
    assert not G1.contains(bad)


def test_is_involutive_examples(chained, pendulum):
    ps = build_prolonged(chained, [0, 0])
    coord = Distribution(ps.space, [unit_field(ps.space, chained.state(i))
                                    for i in (1, 2, 3)])
    ok, wit = coord.is_involutive()
    assert ok and wit is None
    G1 = g_filtration(ps, 1)
    ok, wit = G1.is_involutive()
    assert not ok and wit is not None
    _, _, br = wit
    assert not G1.contains(br)
    # pendulum: Delta_2^(0,l2) is non-involutive for l2 in {1,2,3}
    for l2 in (1, 2, 3):
        pps = build_prolonged(pendulum, [0, l2])
        ok, wit = delta_filtration(pps, 2).is_involutive()
        assert not ok


def test_involutive_closure_examples(chained):
    ps = build_prolonged(chained, [0, 0])
    coord = Distribution(ps.space, [unit_field(ps.space, chained.state(i))
                                    for i in (1, 2)])
    assert involutive_closure(coord).rank == coord.rank
    G1 = g_filtration(ps, 1)
    assert involutive_closure(G1).rank == 5
    G2 = g_filtration(ps, 2)
    assert involutive_closure(G2).rank == 7


def test_involutive_closure_idempotent_monotone():
    rng = random.Random(11)
    for _ in range(20):
        sysdef = random_system(rng)
        ps = build_prolonged(sysdef, [0] * sysdef.m)
        d = Distribution(ps.space, [random_field(rng, ps.space)
                                    for _ in range(2)])
        cl = involutive_closure(d)
        assert cl.rank >= d.rank
        assert involutive_closure(cl).rank == cl.rank


def test_is_vertical(chained):
    ps = build_prolonged(chained, [4, 0])
    v = unit_field(ps.space, chained.state(1))
    assert is_vertical(v, MultiIndex([0, 0]))
    u = unit_field(ps.space, chained.input(1, 0))
    assert not is_vertical(u, MultiIndex([4, 0]))
    ad5 = ad_top(ps, 1, 5)
    assert is_vertical(ad5, cmin(MultiIndex([4, 0]), 0))


def test_rank_invariance_under_reorder_and_scaling():
    rng = random.Random(17)
    for _ in range(30):
        sysdef = random_system(rng)
        ps = build_prolonged(sysdef, [0] * sysdef.m)
        gens = [random_field(rng, ps.space) for _ in range(3)]
        base = Distribution(ps.space, gens).rank
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert Distribution(ps.space, shuffled).rank == base
        scale = Expr.var(rng.choice(ps.space.coords)) + Expr.rational(2)
        scaled = [gens[0].scale(scale)] + gens[1:]
        assert Distribution(ps.space, scaled).rank == base


def test_bracket_antisymmetry_jacobi_small():
    assert suite_bracket_algebra(40) == 40


def test_symbolic_and_sampled_ranks_agree_on_fixture_distributions(chained):
    ps = build_prolonged(chained, [4, 0])
    for k in range(0, 8):
        cert = g_filtration(ps, k).certificate
        assert cert.symbolic_rank is not None
        assert cert.symbolic_rank == cert.sampled_rank == cert.rank


def test_involutive_closure_budget(chained):
    ps = build_prolonged(chained, [0, 0])
    G1 = g_filtration(ps, 1)
    with pytest.raises(IterationBudgetExceeded):
        involutive_closure(G1, max_iter=0)


def _sparse(row):
    return {c: a for c, a in enumerate(row) if a}


def test_point_echelon_rank_and_rref_nullspace():
    F = Fraction
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    assert fraction_rank([_sparse(r) for r in rows]) == 2
    ech = PointEchelon()
    for row in rows:
        ech.insert(_sparse(row))
    # RREF [[1, 0, 1], [0, 1, 1]]: one free column, entries read off exactly
    assert ech.nullspace(3) == [[F(-1), F(-1), F(1)]]
    assert PointEchelon().nullspace(2) == [[F(1), F(0)], [F(0), F(1)]]
    rng = random.Random(5)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(rng.randint(0, 6))]
        ech = PointEchelon()
        for row in rows:
            ech.insert(_sparse(row))
        basis = ech.nullspace(ncols)
        assert len(basis) == ncols - fraction_rank(
            [_sparse(r) for r in rows]) == ncols - ech.rank
        for vec in basis:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_nullspace_matches_back_substitution():
    # the stored rows are reduced, so the nullspace is read off them; the
    # former back-substitution from an unreduced echelon must agree
    rng = random.Random(7)
    for field in (QQ, FP):
        for _ in range(40):
            ncols = rng.randint(1, 7)
            rows = []
            for _ in range(rng.randint(0, 7)):
                row = {c: rng.randint(-3, 3) for c in range(ncols)
                       if rng.random() < 0.6}
                if field is QQ:
                    row = {c: Fraction(a, rng.randint(1, 3))
                           for c, a in row.items()}
                rows.append({c: a % FP.p if field is FP else a
                             for c, a in row.items() if a})
            ech = PointEchelon.of(rows, field=field)
            assert ech.nullspace(ncols) == \
                back_substituted_nullspace(rows, ncols, field), rows


def test_bracket_failures_lazy_in_pair_order(chained):
    ps = build_prolonged(chained, [1, 0])
    fields = [ps.g0] + ps.gi + [lie_bracket(ps.g0, ps.gi[0])]
    pairs = list(itertools.combinations(fields, 2))
    want = [(a, b, lie_bracket(a, b)) for a, b in pairs
            if not lie_bracket(a, b).is_zero()]
    assert list(bracket_failures(pairs, lambda v: False)) == want
    assert list(bracket_failures(pairs, lambda v: True)) == []
    probed = []
    first = next(bracket_failures(pairs, lambda v: probed.append(v) or False))
    assert first == want[0] and probed == [want[0][2]]


def test_structurally_skipped_pairs_bracket_to_zero(chained, driftless, clm,
                                                   pendulum, threeinput):
    skipped = nonzero = 0
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        ps = build_prolonged(sysdef, [1] * sysdef.m)
        fields = [ps.g0] + [unit_field(ps.space, c) for c in ps.space.coords]
        fields += [g for r in range(3) for g in g_level_fields(ps, r)]
        for a, b in itertools.product(fields, repeat=2):
            br = lie_bracket(a, b)
            if brackets_to_zero(a, b):
                assert br.is_zero(), (sysdef.name, a, b)
                # a copy on another space carries the same variables
                assert brackets_to_zero(a.on(ps.space), b)
                skipped += 1
            nonzero += not br.is_zero()
    assert skipped and nonzero


def test_membership_reuses_the_rank_sampling_echelons(chained, monkeypatch):
    # a distribution evaluates each generator once per sample point of its
    # SamplePoints; membership probes evaluate only the probed field,
    # against those same echelons
    calls = []
    orig = SamplePoints.row

    def counted(self, v, point):
        calls.append(v)
        return orig(self, v, point)

    monkeypatch.setattr(SamplePoints, "row", counted)
    ps = build_prolonged(chained, [1, 0])
    gens = [ps.g0] + ps.gi
    dist = Distribution(ps.space, gens, samples=4)
    assert len(calls) == 4 * len(gens)
    cert = dist.certificate
    assert [e.point for e in cert.echelons] == cert.points
    assert max(e.rank for e in cert.echelons) == cert.sampled_rank
    fresh_points = SamplePoints(dist.seed)
    for ech in cert.echelons:
        pt = fresh_points.point(ech.point.index)
        fresh = PointEchelon.of([orig(fresh_points, g, pt) for g in gens],
                                field=FP)
        assert ech.rows == fresh.rows
    top = [e for e in cert.echelons if e.rank == cert.sampled_rank]
    del calls[:]
    probe = ps.g0 + ps.gi[0]     # members: every top echelon is probed
    assert dist.contains(probe) and dist.contains(ps.gi[1])
    assert calls == [probe] * len(top) + [ps.gi[1]] * len(top)


def test_membership_at_poles_compares_sampled_ranks(chained, monkeypatch):
    # v has a pole at every top echelon point, so no cached point can probe
    # it: the fresh sampled rank of gens + [v] is compared with the
    # distribution's sampled rank, and nothing is eliminated symbolically
    from flatcheck import jetgeom
    ps = build_prolonged(chained, [1, 0])
    gens = [ps.g0] + ps.gi
    dist = Distribution(ps.space, gens)
    x1 = chained.state(1)
    den = Expr.one()
    for ech in dist._echelons:
        den = den * (Expr.var(x1) - Expr.rational(ech.point[x1]))
    pole = Expr.one() / den
    member = ps.gi[0].scale(pole)
    outsider = unit_field(ps.space, chained.state(2)).scale(pole)
    symbolic, resampled = [], []
    real = jetgeom.generic_rank

    def counted(*args, **kwargs):
        resampled.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jetgeom, "symbolic_rank",
                        lambda *args: symbolic.append(args))
    monkeypatch.setattr(jetgeom, "generic_rank", counted)
    assert dist.contains(member)
    assert not dist.contains(outsider)
    assert len(resampled) == 2
    assert symbolic == []
    assert ps.space.dim <= 12


def test_is_involutive_is_memoized(chained, monkeypatch):
    from flatcheck import jetgeom
    ps = build_prolonged(chained, [0, 0])
    dist = g_filtration(ps, 1)
    brackets = []
    orig = jetgeom.lie_bracket

    def counted(v, w):
        brackets.append((v, w))
        return orig(v, w)

    monkeypatch.setattr(jetgeom, "lie_bracket", counted)
    first = dist.is_involutive()
    swept = len(brackets)
    assert swept > 0 and not first[0]
    assert dist.is_involutive() is first
    assert len(brackets) == swept


def test_sample_point_is_the_image_of_the_rational_draw(pendulum, chained):
    # the same integer draws, in the same order, as the rational point
    # num/den (params nonzero, trig pairs via tan-half), taken mod p
    for sysdef in (pendulum, chained):
        space = build_prolonged(sysdef, [1] * sysdef.m).space
        assert sysdef is chained or (space.params and space.trig_bases)
        for seed in range(20):
            rng = random.Random(seed)
            ref = {v: Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                   for v in space.coords}
            for v in space.params:
                num = 0
                while num == 0:
                    num = rng.randint(-20, 20)
                ref[v] = Fraction(num, rng.randint(1, 7))
            for b in space.trig_bases:
                ref.update(tan_half_values(
                    b, Fraction(rng.randint(-20, 20), rng.randint(1, 7))))
            drawn = random.Random(seed)
            pt = space.sample_point(drawn)
            assert pt == {v: fraction_mod(q, FP.p) for v, q in ref.items()}
            assert all(pt[v] for v in space.params)
            assert drawn.random() == rng.random()     # as many draws


def test_jet_space_columns_and_var_hash(chained):
    ps = build_prolonged(chained, [2, 1])
    for c, v in enumerate(ps.space.coords):
        assert ps.space.col(v) == c
        assert hash(v) == hash(v.skey)
    with pytest.raises(KeyError):
        ps.space.col(chained.input(1, 3))
    relabeled = state_var(1, "other")
    assert relabeled == chained.state(1)
    assert hash(relabeled) == hash(chained.state(1))
