import itertools
import random
from fractions import Fraction

import pytest

from flatcheck.expr import (DenominatorVanishes, Expr, pmul, render_expr,
                            render_poly)
from flatcheck.flatness import (Budgets, CandidateCountMismatch, Context,
                                Initialization, NotLinearizable, SigmaRun,
                                _rendered, analyze, brunovsky_indices,
                                cns_check, enumerate_initializations,
                                search_flat_outputs, static_linearizable,
                                verify_flat_output)
from flatcheck import flatness, jetgeom
from flatcheck.jetgeom import (MultiIndex, SpaceMismatch, bracket_failures,
                               fraction_rank, generic_rank, lie_bracket,
                               unit_field)
from flatcheck.prolong import (build_prolonged, delta_filtration,
                               delta_generators, gamma_filtration)
from flatcheck.report import INF
from flatcheck.sysdsl import parse_system

from conftest import (DRIFTLESS_PLUS_Z, DRIFTLESS_PLUS_Z2, ROOT, load_fixture,
                      load_workloads, widened_fixture)
from paper_identities import (BoxSigmaRun, all_k_survivors, block_tuples,
                              box_tuples, eval_row, sigma_delta,
                              sigma_gamma_delta)


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


def test_cns_factors_do_not_depend_on_the_order_of_distribution_builds(
        threeinput):
    # Delta_3 of threeinput at (1, 0, 0) lists its factors as x1, u3, u1:
    # built first, it used to put u3 before u1 in the singular locus
    j = (1, 0, 0)
    want = cns_check(threeinput, j, ctx=Context(threeinput, Budgets()))
    ctx = Context(threeinput, Budgets())
    for k in reversed(range(want.k_star + 2)):
        delta_filtration(ctx.ps(j), k)
    got = cns_check(threeinput, j, ctx=ctx)
    assert want.ok and got.ok
    assert got.factors == want.factors == ["x1", "u1", "u3"]


def test_cns_requires_zero_component(chained):
    with pytest.raises(ValueError):
        cns_check(chained, [4, 1])


# -- Gamma invariance -----------------------------------------------------------

def test_gamma_invariant_matches_the_full_sweep_on_ps_j(chained, driftless, clm,
                                                        pendulum, threeinput):
    # the former definition: every Gamma_k x Delta_k bracket on ps(j) itself;
    # both checks report the first failure of the plain sweep on ps(j)
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
                ok, fail = new.gamma_invariant(j, k)
                assert ok == (not want), (sysdef.name, j, k)
                assert _first(fail) == (want[0] if want else None), \
                    (sysdef.name, j, k)
                # it builds no prolonged system, and one home, on the
                # (k+1)-capped jet space
                assert new._ps == {}
                assert [d.space.j for d in new._homes.values()] == \
                    [tuple(min(jp, k + 1) for jp in j)]
                if k == 1:
                    # no Gamma_1 coordinate has order < 1
                    assert (ok, fail) == (True, None)
                # involutivity: old shares homes across the box, the oracle
                # sweeps the pairs of Delta_k^(j) on ps(j)
                inv = next(bracket_failures(
                    itertools.combinations(dist.generators, 2),
                    dist.contains), None)
                ok, fail = old.delta_involutive(j, k)
                assert (ok, _first(fail)) == (inv is None, _first(inv)), \
                    (sysdef.name, j, k)


def _first(fail):
    """The report form of a check's first failure, or None."""
    return None if fail is None else _rendered(fail)


# -- sharing and on-demand certification ---------------------------------------

def _counted_brackets(monkeypatch):
    """The key pairs of every lie_bracket that flatness calls from now on."""
    calls = []
    orig = flatness.lie_bracket

    def counted(a, b):
        calls.append((a.key(), b.key()))
        return orig(a, b)

    monkeypatch.setattr(flatness, "lie_bracket", counted)
    return calls


def test_shared_verdicts_match_a_fresh_context_per_query(chained, driftless,
                                                         clm, pendulum,
                                                         threeinput,
                                                         monkeypatch):
    # and the warm Context runs lie_bracket once per distinct key pair
    calls = _counted_brackets(monkeypatch)
    systems = (chained, driftless, clm, pendulum, threeinput,
               parse_system(DRIFTLESS_PLUS_Z), parse_system(DRIFTLESS_PLUS_Z2))
    for sysdef in systems:
        warm = Context(sysdef, Budgets())
        asked, warm_calls = [], []
        memo = warm.bracket
        warm.bracket = lambda a, b: asked.append((a, b)) or memo(a, b)
        fresh = {}
        for k in range(1, 4):
            for j in itertools.product(range(0, k + 2), repeat=sysdef.m):
                # (j, k-1) first: for a j new to the box it is often
                # answered by another prolongation's home
                for kk in (k - 1, k):
                    for check in ("delta_involutive", "gamma_invariant"):
                        key = (check, j, kk)
                        if key not in fresh:
                            ok, fail = getattr(
                                Context(sysdef, Budgets()), check)(j, kk)
                            fresh[key] = ok, _first(fail)
                        before = len(calls)
                        ok, fail = getattr(warm, check)(j, kk)
                        warm_calls.extend(calls[before:])
                        assert (ok, _first(fail)) == fresh[key], \
                            (sysdef.name, key)
        # fewer home distributions than (j, k) that asked
        assert len(warm._homes) < len(warm._delta), sysdef.name
        assert set(map(id, warm._delta.values())) == \
            set(map(id, warm._homes.values())), sysdef.name
        assert len(warm_calls) == len(set(warm_calls)) == \
            len(warm._brackets), sysdef.name
        assert len(asked) > len(warm_calls), sysdef.name


def test_context_bracket_is_lie_bracket_on_the_first_fields_space(chained):
    ctx = Context(chained, Budgets())
    small, big = ctx.ps((1, 0)), ctx.ps((3, 2))
    fields = [small.g0] + small.gi + [unit_field(small.space, c)
                                      for c in small.space.coords[:2]]
    # g0 + g1 shares its leading coefficients with g0
    fields += [lie_bracket(small.g0, small.gi[0]), small.g0 + small.gi[0]]
    pairs = list(itertools.product(fields, repeat=2))
    for a, b in pairs:
        assert ctx.bracket(a, b) == lie_bracket(a, b)
        # the same coefficients on a larger space: a memo hit, on that space
        wide_a, wide_b = a.on(big.space), b.on(big.space)
        br = ctx.bracket(wide_a, wide_b)
        assert br == lie_bracket(wide_a, wide_b) and br.space == big.space
        with pytest.raises(SpaceMismatch):
            ctx.bracket(a, wide_b)
    assert any(not lie_bracket(a, b).is_zero() for a, b in pairs)
    assert len(ctx._brackets) == len({(a.key(), b.key()) for a, b in pairs})


def test_a_new_context_starts_with_an_empty_bracket_memo(chained, monkeypatch):
    calls = _counted_brackets(monkeypatch)
    analyze(chained)
    first = len(calls)
    assert first > 0
    assert Context(chained, Budgets())._brackets == {}
    # a second analysis brackets as much as the first: nothing outlives one
    del calls[:]
    analyze(chained)
    assert len(calls) == first


def test_gamma_failures_swept_on_a_home_space_match_a_fresh_context(chained,
                                                                    clm):
    # the involutivity checks run first, over the uncapped box, so a list's
    # home is the one its first asker built; every Gamma sweep runs on that
    # home's (k+1)-capped jet space, and no prolonged system is built
    for sysdef in (chained, clm):
        warm = Context(sysdef, Budgets())
        failed = 0
        for k in range(1, 4):
            box = sorted(itertools.product(range(0, 2 * k + 2),
                                           repeat=sysdef.m), reverse=True)
            for j in box:
                warm.delta_involutive(j, k)
            for j in box:
                ok, fail = warm.gamma_invariant(j, k)
                want_ok, want = Context(sysdef, Budgets()).gamma_invariant(j, k)
                assert (ok, _first(fail)) == (want_ok, _first(want)), \
                    (sysdef.name, j, k)
                if fail is not None:
                    failed += 1
                    space = warm.home(j, k).space
                    assert fail[0].space == fail[2].space == space
                    assert max(space.j) <= k + 1, (sysdef.name, j, k)
        assert failed > 0 and warm._ps == {}, sysdef.name


def test_a_failing_check_brackets_fewer_pairs_than_the_full_sweep(chained,
                                                                  driftless):
    # a full sweep brackets every pair, Delta_k x Delta_k or (Gamma
    # coordinates of order < k) x Delta_k; a check stops at its first failure
    for sysdef, check, j, k in ((driftless, "delta_involutive", (1, 0), 2),
                                (chained, "delta_involutive", (0, 0), 2),
                                (chained, "gamma_invariant", (1, 2), 3)):
        ctx = Context(sysdef, Budgets())
        ctx.home(j, k)      # its chain links bracket through ctx.bracket too
        asked = []
        memo = ctx.bracket
        ctx.bracket = lambda a, b: asked.append((a, b)) or memo(a, b)
        ok, fail = getattr(ctx, check)(j, k)
        assert not ok and asked[-1] == fail[:2], (sysdef.name, check)
        if check == "delta_involutive":
            gens = delta_filtration(ctx.ps(j), k).generators
            full = len(gens) * (len(gens) - 1) // 2
        else:
            gens = delta_filtration(ctx.ps(flatness._cap(j, k + 1)),
                                    k).generators
            full = len(gens) * sum(
                len(ctx._gamma_coordinates_below(p, jp, k))
                for p, jp in enumerate(j, start=1))
        assert len(asked) < full, (sysdef.name, check)


def test_certificates_are_computed_on_first_read(chained, driftless, clm,
                                                 threeinput):
    for sysdef, j in ((chained, (4, 0)), (driftless, (2, 0)), (clm, (0, 3)),
                      (threeinput, (1, 0, 0))):
        ctx = Context(sysdef, Budgets())
        assert cns_check(sysdef, j, ctx=ctx).ok
        dists = [d for ps in ctx._ps.values() for d in ps._dist_cache.values()]
        homes = list(ctx._homes.values())
        assert dists and homes
        assert all(ps.points is ctx.points for ps in ctx._ps.values())
        for dist in dists + homes:
            lazy = dist.certificate
            eager = generic_rank(dist.generators, dist.space, seed=dist.seed,
                                 samples=dist.samples)
            assert (lazy.rank, lazy.sampled_rank, lazy.symbolic_rank) == \
                (eager.rank, eager.sampled_rank, eager.symbolic_rank)
            # a home and a prolonged system's distribution keep the shared
            # points they sampled at (`ps.points`, which is `ctx.points`)
            echelons = ctx.points.echelons(dist.generators, dist.samples)
            assert lazy.points == [e.point for e in echelons]
            assert [e.rows for e in lazy.echelons] == \
                [e.rows for e in echelons]
            assert lazy.factors == eager.factors
            # the rank over Q at the jet origin of the base point
            origin = {**{v: Fraction(0) for v in dist.space.coords},
                      **ctx.base_point}
            try:
                at_origin = fraction_rank([eval_row(g, origin)
                                           for g in dist.generators])
            except DenominatorVanishes:
                at_origin = None
            assert (lazy.base_point_rank, lazy.base_point_drop) == \
                (at_origin, at_origin is None or at_origin < lazy.rank)


def test_sigma_conditions_run_no_symbolic_elimination(chained, monkeypatch):
    calls = []
    real = jetgeom.symbolic_rank

    def counted(fields, space):
        calls.append(space.dim)
        return real(fields, space)

    monkeypatch.setattr(jetgeom, "symbolic_rank", counted)
    ctx = Context(chained, Budgets())
    for k in range(1, 4):
        for j in itertools.product(range(0, 2 * k + 2), repeat=chained.m):
            ctx.delta_involutive(j, k)
            ctx.gamma_invariant(j, k)
    assert calls == []
    dist = next(d for d in ctx._homes.values()
                if d.space.dim <= 12 and d.generators)
    rank = dist.rank
    assert len(calls) == 1
    assert dist.rank == rank and dist.certificate.symbolic_rank == rank
    assert len(calls) == 1


def _counted_eliminations(monkeypatch):
    calls = []
    real = jetgeom.symbolic_rank

    def counted(fields, space):
        calls.append(space.dim)
        return real(fields, space)

    monkeypatch.setattr(jetgeom, "symbolic_rank", counted)
    return calls


def test_the_static_test_on_deep_chains_eliminates_nothing(monkeypatch):
    # every G_k^(0) of the three chained systems reaches min(#generators,
    # dim) at a sample point, which proves its rank
    calls = _counted_eliminations(monkeypatch)
    for _, text in load_workloads().workload("deep_chains", str(ROOT)):
        static_linearizable(parse_system(text))
    assert calls == []


def test_an_exact_rank_apart_from_the_sampled_rank_is_a_warning(
        driftless, monkeypatch):
    # an elimination of one generator that reports rank 0 stands in for an
    # exact rank that differs from the sampled one: here Delta_0 at j_min,
    # d/du2 alone, whose rank the verdict does not read
    real = jetgeom.symbolic_rank

    def low(fields, space):
        out = real(fields, space)
        if len(fields) == 1:
            out = jetgeom.Elimination(out[0] - 1, out[1], out.space,
                                      out.steps, out.packing, out.degree)
        return out

    monkeypatch.setattr(jetgeom, "symbolic_rank", low)
    rep = analyze(driftless, Budgets(seed=0))
    assert (rep.verdict, rep.j_min) == ("p2_flat", (2, 0))
    mismatches = [w for w in rep.warnings if w.startswith("exact rank")]
    assert mismatches == [
        "exact rank of Delta_0 (0) differs from the sampled rank (1)"]


def test_analyze_leaves_no_context_alive(monkeypatch):
    # nothing an analysis keeps refers back to its Context, so each one is
    # freed by reference counting alone when analyze returns
    import gc
    import weakref

    alive = []

    class Recorded(Context):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(flatness, "Context", Recorded)
    wl = load_workloads()
    systems = {s.name: s for w in wl.NAMES
               for s in map(parse_system, (t for _, t in wl.workload(
                   w, str(ROOT))))}
    assert len(systems) == 11
    gc.collect()
    gc.disable()
    try:
        for name, sysdef in sorted(systems.items()):
            analyze(sysdef, Budgets(seed=0))
            assert alive[-1]() is None, name
    finally:
        gc.enable()
    assert len(alive) == 11


# -- the link store, homes on capped spaces, carried survivors -----------------

def _five_and_z2(chained, driftless, clm, pendulum, threeinput):
    return (chained, driftless, clm, pendulum, threeinput,
            parse_system(DRIFTLESS_PLUS_Z2))


def test_interned_links_equal_the_chains_of_ps_j(chained, driftless, clm,
                                                 pendulum, threeinput):
    for sysdef in _five_and_z2(chained, driftless, clm, pendulum, threeinput):
        ctx = Context(sysdef, Budgets())
        for j in itertools.product(range(0, 4), repeat=sysdef.m):
            ps = build_prolonged(sysdef, j)
            for p in range(1, sysdef.m + 1):
                for r, lid in enumerate(ctx.links(p, 3, j)):
                    assert ctx._links[lid].coeffs == ps.ad_u0(p, r).coeffs, \
                        (sysdef.name, j, p, r)


def test_homes_hold_the_delta_generators_of_ps_j(chained, driftless, clm,
                                                 pendulum, threeinput):
    for sysdef in _five_and_z2(chained, driftless, clm, pendulum, threeinput):
        ctx = Context(sysdef, Budgets())
        for k in range(0, 3):
            for j in itertools.product(range(0, k + 3), repeat=sysdef.m):
                want = [g.key() for g in
                        delta_generators(build_prolonged(sysdef, j), k)
                        if not g.is_zero()]
                home = ctx.home(j, k)
                assert [g.key() for g in home.generators] == want, \
                    (sysdef.name, j, k)
                assert home is ctx.home(flatness._cap(j, k + 1), k)


def test_checks_read_only_the_capped_tuple(chained, driftless, clm, pendulum,
                                           threeinput):
    # Delta_k at j is Delta_k at cap(j, k+1), and Gamma_k invariance at j is
    # that at cap(j, 2k): a channel with j_p >= 2k has no Gamma coordinate of
    # order < k.  Each side is asked on its own fresh Context.
    for sysdef in _five_and_z2(chained, driftless, clm, pendulum, threeinput):
        at_j, capped = Context(sysdef, Budgets()), Context(sysdef, Budgets())
        for k in range(1, 4):
            for j in itertools.product(range(0, 2 * k + 2), repeat=sysdef.m):
                for check, cap in (("delta_involutive", k + 1),
                                   ("gamma_invariant", 2 * k)):
                    ok, fail = getattr(at_j, check)(j, k)
                    want_ok, want = getattr(capped, check)(
                        flatness._cap(j, cap), k)
                    assert (ok, _first(fail)) == (want_ok, _first(want)), \
                        (sysdef.name, check, j, k)


def test_prior_survivors_are_the_capped_survivors_of_the_last_step(
        chained, driftless, clm, pendulum, threeinput):
    # l survived steps 1..k-1 iff cap(l, 2k-2) survived step k-1, both with
    # the default boxes and with a user box that steps 1-3 share; a step's
    # survivors are read as the box tuples of their blocks
    systems = (chained, driftless, clm, pendulum, threeinput,
               widened_fixture("driftless", 2))
    checked = widened = 0
    for budgets in (Budgets(), Budgets(max_prolong=7)):
        for sysdef in systems:
            ctx = Context(sysdef, budgets)
            for init in enumerate_initializations(ctx):
                run = SigmaRun(ctx, init)
                step, last = run.step, []

                def checked_step(k, box, run=run, step=step, last=last):
                    nonlocal checked, widened
                    where = (sysdef.name, budgets.max_prolong, init, k)
                    if k >= 2:
                        widened += box > 2 * k + 1
                        prior = {t for t in box_tuples(run.width, box)
                                 if flatness._cap(t, 2 * k - 2) in last[-1]}
                        assert prior == set(
                            all_k_survivors(run, box, k - 1)), where
                        assert prior == set(block_tuples(
                            run._survivors, k - 1, box)), where
                    found, surv = step(k, box)
                    tuples = block_tuples(surv, k, box)
                    assert tuples == sorted(all_k_survivors(run, box, k)), \
                        where
                    last.append(set(tuples))
                    checked += 1
                    return found, surv

                run.step = checked_step
                run.run()
    assert checked > 0 and widened > 0


def _oracle_systems():
    """The five fixtures, the generated benchmark systems and driftless
    plus three decoupled integrators."""
    wl = load_workloads()
    systems = [load_fixture(name + ".flt") for name in wl.FIXTURES]
    for workload in ("deep_chains", "wide_inputs"):
        systems += [parse_system(text) for name, text in
                    wl.workload(workload, str(ROOT)) if name not in wl.FIXTURES]
    return systems + [widened_fixture("driftless", 3)]


def _logged(run: SigmaRun, expand: bool) -> list:
    """Wrap run.step to log (k, box, a tuple satisfies Delta_k, the
    survivors as box tuples) per step."""
    log, step = [], run.step

    def logged(k, box):
        found, surv = step(k, box)
        tuples = block_tuples(surv, k, box) if expand else surv
        log.append((k, box, bool(found), tuples))
        return found, surv

    run.step = logged
    return log


@pytest.mark.parametrize("seed", [0, 11])
def test_capped_class_steps_equal_the_box_steps(seed):
    # each run to its own end, without the pruning of analyze, next to the
    # former step that asks both conditions of every capped tuple of the box
    systems = _oracle_systems()
    assert len(systems) == 12
    runs = 0
    for budgets in (Budgets(seed=seed), Budgets(seed=seed, max_prolong=7)):
        for sysdef in systems:
            ctx = Context(sysdef, budgets)
            for init in enumerate_initializations(ctx):
                if init.variant != "standard":
                    continue
                where = (sysdef.name, budgets.max_prolong, init.kept)
                new, old = SigmaRun(ctx, init), BoxSigmaRun(ctx, init)
                logs = _logged(new, True), _logged(old, False)
                for run in (new, old):
                    run.run()
                assert new.steps == old.steps, where
                assert logs[0] == logs[1], where
                assert (new.outcome, new.candidate, new.last_bound,
                        new.failure_k, new.failure_note, new.witnesses) == \
                    (old.outcome, old.candidate, old.last_bound,
                     old.failure_k, old.failure_note, old.witnesses), where
                runs += 1
    assert runs > 100


def _counting(monkeypatch):
    """Count Distribution.coordinate_failure calls and misses of its
    per-coordinate memo, and record each analysis's Context."""
    counts = {"calls": 0, "misses": 0, "contexts": []}
    failure = jetgeom.Distribution.coordinate_failure

    def counted(dist, c, bracket=None):
        counts["calls"] += 1
        counts["misses"] += c not in dist._coordinate_failures
        return failure(dist, c, bracket)

    class Recorded(Context):
        def __init__(self, *args):
            super().__init__(*args)
            counts["contexts"].append(self)

    monkeypatch.setattr(jetgeom.Distribution, "coordinate_failure", counted)
    monkeypatch.setattr(flatness, "Context", Recorded)
    return counts


@pytest.mark.parametrize("name, calls, homes", [
    ("driftless_plus3", 2108, 574), ("chained_5_3", 597, 89)])
def test_sigma_steps_ask_few_gamma_coordinates_and_homes(monkeypatch, name,
                                                         calls, homes):
    # the box step made 78634 coordinate_failure calls (from 14650
    # gamma_invariant calls) and built 628 homes on driftless_plus3, and
    # 1594 calls and 135 homes on chained_5_3
    wl = load_workloads()
    text = dict(wl.workload("deep_chains", str(ROOT)) +
                [("driftless_plus3", wl.widened_text(
                    wl.fixture_text(str(ROOT), "driftless"), 3))])[name]
    counts = _counting(monkeypatch)
    analyze(parse_system(text), Budgets(seed=0))
    assert (counts["calls"], len(counts["contexts"][0]._homes)) == \
        (calls, homes)


def test_sigma_steps_sweep_no_gamma_coordinate_the_box_steps_did_not(
        monkeypatch):
    # first-time sweeps of the per-home memo, per benchmark system at seed 0
    wl = load_workloads()
    texts = dict(text for workload in wl.NAMES
                 for text in wl.workload(workload, str(ROOT)))
    counts = _counting(monkeypatch)
    for name, text in texts.items():
        sysdef = parse_system(text)
        misses = []
        for run in (SigmaRun, BoxSigmaRun):
            monkeypatch.setattr(flatness, "SigmaRun", run)
            counts["misses"] = 0
            rep = analyze(sysdef, Budgets(seed=0))
            misses.append((counts["misses"], rep.to_json_dict()))
        assert misses[0][1] == misses[1][1], name
        assert misses[0][0] <= misses[1][0], name


def test_cns_check_after_analyze_matches_a_fresh_context(chained, driftless,
                                                         clm, pendulum,
                                                         threeinput,
                                                         monkeypatch):
    # the factors and base-point drops come from the filtrations cns_check
    # builds at j, not from whatever the search left behind
    contexts = []

    class Recorded(Context):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(flatness, "Context", Recorded)
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        del contexts[:]
        rep = analyze(sysdef, Budgets(seed=0))
        used = contexts[0]
        js = [rep.j_min] if rep.j_min else [(0, 2), (2, 0), (0, 0)]
        for j in js:
            got = cns_check(sysdef, j, ctx=used)
            want = cns_check(sysdef, j, ctx=Context(sysdef, Budgets(seed=0)))
            assert (got.ok, got.violation, got.delta_ranks, got.gamma_ranks,
                    got.g_ranks, got.factors) == \
                (want.ok, want.violation, want.delta_ranks, want.gamma_ranks,
                 want.g_ranks, want.factors), (sysdef.name, j)
            assert [(name, c.base_point_drop) for name, c in
                    got.certificates] == \
                [(name, c.base_point_drop) for name, c in want.certificates]


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
    # (tanhalf_x2^2 - 1), which has no value at the base point, so the
    # check skips it; every other factor is checked
    rep = analyze(parse_system("system th\nstate x1 x2\ninput u1\n"
                               "dot x1 = sin(x2)\ndot x2 = u1\n"))
    assert rep.verdict == "p2_flat"
    flags = [w for w in rep.warnings if w.startswith("singular factor")]
    assert flags == ["singular factor sin(x2) vanishes at the base point",
                     "singular factor u1 vanishes at the base point"]


TRIG_INPUT = ("system trig_input\nstate x1 x2\ninput u1 u2\n"
              "dot x1 = sin(u1)\ndot x2 = u2\n")
TRIG_PARAM = ("system trig_param\nstate x1 x2\ninput u1\nparam a = 1/2\n"
              "dot x1 = sin(a)*x2\ndot x2 = u1\n")


def test_base_point_flags_equal_the_dsl_round_trip(monkeypatch):
    # every singular factor, kept as a polynomial, is evaluated at the jet
    # origin of the base point; the former check rendered it, parsed it back
    # through the DSL and evaluated it at the base point completed with zeros
    # and with the tan-half values of every trig base.  Both skip a factor
    # in a tan-half parameter and flag the same factors.
    from flatcheck.expr import peval, tan_half_values
    from flatcheck.prolong import build_space
    from paper_identities import dsl_factor_value
    wl = load_workloads()
    texts = [text for name in wl.NAMES
             for _, text in wl.workload(name, str(ROOT))]
    assert len(texts) == 11
    seen = []
    flag = flatness._flag_base_point

    def recorded(ctx, res, locus):
        seen.append((ctx.base_point, dict(locus)))
        return flag(ctx, res, locus)

    monkeypatch.setattr(flatness, "_flag_base_point", recorded)
    evaluated = skipped = 0
    for text, seeds in [(t, (0, 11)) for t in texts] + \
            [(TRIG_INPUT, (0,)), (TRIG_PARAM, (0,))]:
        sysdef = parse_system(text)
        for seed in seeds:
            del seen[:]
            rep = analyze(sysdef, Budgets(seed=seed))
            if rep.verdict != "p2_flat":
                assert not seen
                continue
            (origin, locus), = seen
            assert list(locus) == rep.singular_locus
            former = {v: Fraction(0)
                      for v in build_space(sysdef, rep.j_min).coords}
            former.update(sysdef.base_point().assign)
            for b in sysdef.trig_bases():
                former.update(tan_half_values(b, former[b]))
            flags = []
            for s, f in locus.items():
                try:
                    got = peval(f, origin)
                except KeyError:
                    got = None
                assert got == dsl_factor_value(sysdef, s, former), \
                    (sysdef.name, seed, s)
                evaluated += got is not None
                skipped += got is None
                if got == 0:
                    flags.append("singular factor %s vanishes at the base "
                                 "point" % s)
            assert [w for w in rep.warnings
                    if w.startswith("singular factor")] == flags
    assert evaluated > 150 and skipped > 0


def test_the_decision_layer_imports_only_the_system_from_the_parser():
    # the singular locus is evaluated as polynomials, not parsed back
    import ast
    tree = ast.parse((ROOT / "src" / "flatcheck" / "flatness.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module in ("sysdsl", "flatcheck.sysdsl")
             for alias in node.names]
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if "sysdsl" in alias.name]
    assert names == ["SystemDef"] and not imports


def test_no_reported_factor_is_a_power_of_one_plus_a_tan_half_square():
    # 1 + t^2, t = tan(x3/2), is positive on R, so no power of it is a rank
    # drop; this system's elimination meets (1 + t^2)^2 as a pivot factor
    sysdef = parse_system("system unicycle\nstate x1 x2 x3\ninput u1 u2\n"
                          "dot x1 = u1*cos(x3)\ndot x2 = u1*sin(x3)\n"
                          "dot x3 = u2\n")
    rep = analyze(sysdef)
    assert rep.verdict == "p2_flat" and rep.singular_locus
    t = jetgeom._tanhalf_var(sysdef.state(3))
    square = {(): Fraction(1), ((t, 2),): Fraction(1)}
    power, powers = square, set()
    for _ in range(8):
        powers.add(render_poly(power))
        power = pmul(power, square)
    assert not powers & set(rep.singular_locus)


def test_tan_half_names_do_not_depend_on_earlier_systems():
    # state 3 is a trig base in both systems, under its own name in each;
    # a tan-half parameter is named after the label it has in this system,
    # whichever system the process analysed before
    a = ("system a\nstate x1 x2 x3\ninput u1 u2\ndot x1 = u1*cos(x3)\n"
         "dot x2 = u1*sin(x3)\ndot x3 = u2\n")
    b = ("system b\nstate p q th\ninput v w\ndot p = v*cos(th)\n"
         "dot q = v*sin(th)\ndot th = w\n")
    for first, second, own, other in ((a, b, "tanhalf_th", "tanhalf_x3"),
                                      (b, a, "tanhalf_x3", "tanhalf_th")):
        analyze(parse_system(first))
        locus = analyze(parse_system(second)).singular_locus
        assert any(own in f for f in locus), locus
        assert not any(other in f for f in locus), locus


def test_analyze_samples_every_distribution_at_the_shared_points(
        chained, driftless, clm, pendulum, threeinput, monkeypatch):
    # no draws of its own anywhere: every Distribution an analysis builds,
    # the H_1 of an initialization and the chain Jacobian included, samples
    # at the SamplePoints of its Context
    contexts, built, drawn, inside = [], [], [], [None]
    real_ctx, real_dist = Context.__init__, jetgeom.Distribution.__init__

    def ctx_init(self, *args, **kwargs):
        real_ctx(self, *args, **kwargs)
        contexts.append(self)

    def dist_init(self, *args, **kwargs):
        real_dist(self, *args, **kwargs)
        built.append((inside[0], self._points))

    def within(name):
        real = getattr(flatness, name)

        def wrapped(*args, **kwargs):
            inside[0] = name
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] = None
        monkeypatch.setattr(flatness, name, wrapped)

    monkeypatch.setattr(Context, "__init__", ctx_init)
    monkeypatch.setattr(jetgeom.Distribution, "__init__", dist_init)
    monkeypatch.setattr(jetgeom.JetSpace, "sample_point",
                        lambda space, rng: drawn.append(space))
    within("_h1_distribution")
    within("_chain_jacobian_certificate")
    seen = set()
    for sysdef in (chained, driftless, clm, pendulum, threeinput):
        del contexts[:], built[:]
        analyze(sysdef, Budgets(seed=0))
        assert len(contexts) == 1 and built, sysdef.name
        assert all(points is contexts[0].points for _, points in built)
        seen.update(name for name, _ in built)
    assert drawn == []
    assert {"_h1_distribution", "_chain_jacobian_certificate"} <= seen


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
