"""The decision layer: static feedback linearizability, the prolonged
necessary-and-sufficient conditions, the sigma minimization, the full
pure-prolongation analysis, and flat-output verification and search."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

from .expr import (DenominatorVanishes, Expr, VarRef, cos_var, mono_cmp,
                   mono_from, pconst, primitive_scale, render_expr,
                   render_poly, sin_var)
from .jetgeom import (Distribution, MultiIndex, PointEchelon, VectorField,
                      _factor_polys, accumulate_factors, bracket_failures,
                      generic_rank, lie_bracket, unit_field)
from .prolong import (ProlongedSystem, build_prolonged, delta_filtration,
                      delta_generators, g_filtration, g_level_fields,
                      g_stabilization, gamma_coordinates, gamma_filtration)
from .report import INF, AnalysisReport, InitTrace, SigmaStep
from .sysdsl import DslError, SystemDef, _Parser, tokenize


class NotLinearizable(Exception):
    pass


class CandidateCountMismatch(Exception):
    pass


class InternalError(Exception):
    """A proved bound failed; indicates a defect, never expected at runtime."""


@dataclass
class Budgets:
    seed: int = 0
    samples: int = 5
    max_k: Optional[int] = None
    max_prolong: Optional[int] = None
    ansatz_degree: int = 2

    def resolved_max_prolong(self, sysdef: SystemDef) -> int:
        return self.max_prolong if self.max_prolong is not None else 2 * sysdef.n

    def resolved_max_k(self, sysdef: SystemDef) -> int:
        if self.max_k is not None:
            return self.max_k
        return sysdef.n + self.resolved_max_prolong(sysdef)


# ---------------------------------------------------------------------------
# Analysis context: shared caches, deterministic under a fixed seed

class Context:
    def __init__(self, sysdef: SystemDef, budgets: Budgets):
        self.sysdef = sysdef
        self.budgets = budgets
        self.base_point = sysdef.base_point().resolved()
        self._ps: Dict[Tuple[int, ...], ProlongedSystem] = {}
        self._inv: Dict[Tuple[Tuple[int, ...], int], Tuple[bool, list]] = {}
        self._gam: Dict[Tuple[Tuple[int, ...], int], Tuple[bool, list]] = {}
        self._gam_coord: Dict[Tuple[Tuple[int, ...], int, VarRef], list] = {}
        self.warnings: List[str] = []

    def ps(self, j) -> ProlongedSystem:
        key = tuple(j)
        if key not in self._ps:
            self._ps[key] = build_prolonged(
                self.sysdef, MultiIndex(j), seed=self.budgets.seed,
                samples=self.budgets.samples, base_point=self.base_point)
        return self._ps[key]

    # involutivity of Delta_k^(j), incremental in k per j
    def delta_involutive(self, j: Tuple[int, ...], k: int):
        key = (j, k)
        if key in self._inv:
            return self._inv[key]
        ps = self.ps(j)
        dist = delta_filtration(ps, k)
        pairs = itertools.combinations(dist.generators, 2)
        fails = []
        if k > 0 and (j, k - 1) in self._inv:
            # Delta is nested: only brackets touching new generators, plus the
            # previous failures against the bigger span, need rechecking
            old = set(delta_generators(ps, k - 1))
            pairs = [(a, b) for a, b in pairs if a not in old or b not in old]
            fails = [f for f in self._inv[(j, k - 1)][1]
                     if not dist.contains(f[2])]
        fails.extend(bracket_failures(pairs, dist.contains))
        self._inv[key] = (not fails, fails)
        return self._inv[key]

    # [Gamma_k, Delta_k] c Delta_k, one bracket sweep per Gamma coordinate
    def gamma_invariant(self, j: Tuple[int, ...], k: int):
        """Checked on the (k+1)-capped prolongation, and exactly so: Delta_k^(j)
        has the generators of Delta_k^(min(j, k+1)), since channel p enters
        iff j_p <= k and ad_{g0}^r d/du_p^(0), r <= k, involves only u_q^(s)
        with s < k; so [d/dc, V] = dV/dc vanishes for every Gamma coordinate c
        of order >= k.  Failures keep the order channel, l, generator."""
        key = (j, k)
        if key not in self._gam:
            capped = _cap(j, k + 1)
            fails = [f for c in gamma_coordinates(self.sysdef, j, k) if c.k < k
                     for f in self._gamma_failures(capped, k, c)]
            self._gam[key] = (not fails, fails)
        return self._gam[key]

    def _gamma_failures(self, j: Tuple[int, ...], k: int, c: VarRef) -> list:
        key = (j, k, c)
        if key not in self._gam_coord:
            ps = self.ps(j)
            dist = delta_filtration(ps, k)
            self._gam_coord[key] = list(bracket_failures(
                ((unit_field(ps.space, c), g) for g in dist.generators),
                dist.contains))
        return self._gam_coord[key]


# ---------------------------------------------------------------------------
# Static feedback linearizability (order zero)

@dataclass
class StaticResult:
    linearizable: bool
    kappa: Optional[Tuple[int, ...]]
    k_star: int
    ranks: List[int]
    all_involutive: bool
    first_noninvolutive_k: Optional[int]
    witness: Optional[tuple]
    max_rank: int


def _kappa_from_ranks(m: int, ranks: List[int]) -> Tuple[int, ...]:
    rho = [ranks[0]] + [ranks[i] - ranks[i - 1] for i in range(1, len(ranks))]
    return tuple(sum(1 for r in rho if r >= k) for k in range(1, m + 1))


def static_linearizable(sysdef: SystemDef, seed: int = 0, samples: int = 5,
                        ctx: Optional[Context] = None) -> StaticResult:
    """Theorem-level test on the order-zero filtration G_k^(0), k <= n."""
    if ctx is None:
        ctx = Context(sysdef, Budgets(seed=seed, samples=samples))
    ps0 = ctx.ps((0,) * sysdef.m)
    ranks, kstar = g_stabilization(ps0, k_cap=sysdef.n)
    all_inv = True
    first_bad = None
    witness = None
    for k in range(0, kstar + 1):
        ok, wit = g_filtration(ps0, k).is_involutive()
        if not ok:
            all_inv = False
            first_bad, witness = k, wit
            break
    full = ranks[-1] == sysdef.n + sysdef.m
    lin = all_inv and full
    kappa = _kappa_from_ranks(sysdef.m, ranks) if lin else None
    return StaticResult(lin, kappa, kstar, ranks, all_inv, first_bad,
                        witness, ranks[-1])


# ---------------------------------------------------------------------------
# Brunovsky indices of a prolonged linearizable system

def brunovsky_indices(ps: ProlongedSystem) -> Tuple[int, ...]:
    """Non-increasing controllability indices of the prolonged system;
    NotLinearizable unless its G filtration is involutive up to
    stabilization and reaches full dimension."""
    ranks, kstar = g_stabilization(ps)
    if ranks[-1] != ps.space.dim:
        raise NotLinearizable("G filtration stabilizes below full dimension")
    for k in range(0, kstar + 1):
        ok, _ = g_filtration(ps, k).is_involutive()
        if not ok:
            raise NotLinearizable("G_%d is not involutive" % k)
    kappa = _kappa_from_ranks(ps.sysdef.m, ranks)
    if sum(kappa) != ps.space.dim:
        raise InternalError("Brunovsky indices do not sum to the dimension")
    return kappa


# ---------------------------------------------------------------------------
# Theorem-level check at a fixed prolongation

@dataclass
class CnsResult:
    ok: bool
    violation: Optional[dict]
    k_star: Optional[int]
    delta_ranks: List[int]
    gamma_ranks: List[int]
    g_ranks: List[int]
    cross_check_agrees: bool
    factors: List[str]


def cns_check(sysdef: SystemDef, j, seed: int = 0, samples: int = 5,
              ctx: Optional[Context] = None) -> CnsResult:
    """Involutivity of Delta_k, invariance under Gamma_k, and the strong
    controllability rank condition, for all k up to stabilization; the
    G_k-involutivity route is computed independently as a cross-check."""
    j = MultiIndex(j)
    if min(j) != 0:
        raise ValueError("prolongation must have a zero component "
                         "(normalize per the reduction lemma)")
    if ctx is None:
        ctx = Context(sysdef, Budgets(seed=seed, samples=samples))
    ps = ctx.ps(tuple(j))
    n, m = sysdef.n, sysdef.m
    cap = n + j.total
    full = n + m + j.total
    d_ranks: List[int] = []
    g_ranks: List[int] = []
    gam_ranks: List[int] = []
    cross_ok = True
    k = 0
    kstar = None
    while k <= cap + 1:
        dist = delta_filtration(ps, k)
        gdist = g_filtration(ps, k)
        d_ranks.append(dist.rank)
        gam_ranks.append(gamma_filtration(ps, k).rank)
        g_ranks.append(gdist.rank)
        inv_ok, inv_fails = ctx.delta_involutive(tuple(j), k)
        gam_ok, gam_fails = ctx.gamma_invariant(tuple(j), k)
        if not (inv_ok and gam_ok):
            condition, fails = (("involutivity", inv_fails) if not inv_ok
                                else ("gamma_invariance", gam_fails))
            violation = {"condition": condition, "k": k,
                         **_rendered(fails[0])}
            return CnsResult(False, violation, None, d_ranks, gam_ranks,
                             g_ranks, cross_ok, [])
        g_inv, _ = gdist.is_involutive()
        if not g_inv:
            cross_ok = False
        if k > 0 and g_ranks[-1] == g_ranks[-2]:
            kstar = k - 1
            break
        k += 1
    if kstar is None:
        kstar = len(g_ranks) - 1
    if d_ranks[kstar] != n + m:
        violation = {"condition": "full_rank", "k": kstar,
                     "rank": d_ranks[kstar], "expected": n + m}
    elif gam_ranks[kstar] != j.total:
        violation = {"condition": "full_rank", "k": kstar,
                     "rank": gam_ranks[kstar], "expected": j.total}
    else:
        if g_ranks[kstar] != full:
            cross_ok = False
        violation = _certify_conditions(ps, kstar)
    factors: List[str] = []
    for dist in ps._dist_cache.values():
        for s in dist.certificate.factor_strings():
            if s not in factors:
                factors.append(s)
    return CnsResult(violation is None, violation, kstar, d_ranks,
                     gam_ranks, g_ranks, cross_ok, factors)


def _certify_conditions(ps: ProlongedSystem, kstar: int) -> Optional[dict]:
    """Re-run every membership of a passing verdict through the symbolic
    elimination (exact, not sampled) wherever that path is available."""
    for k in range(0, kstar + 1):
        dist = delta_filtration(ps, k)
        if dist.certificate.symbolic_rank is None:
            continue
        member = dist.contains_certified
        condition = "involutivity"
        fail = next(bracket_failures(
            itertools.combinations(dist.generators, 2), member), None)
        if fail is None:
            condition = "gamma_invariance"
            fail = next(bracket_failures(itertools.product(
                gamma_filtration(ps, k).generators, dist.generators),
                member), None)
        if fail is not None:
            return {"condition": condition, "k": k, "certified": True,
                    **_rendered(fail)}
    return None


def _rendered(fail) -> dict:
    """The report form of a failing bracket pair (g_a, g_b, [g_a, g_b])."""
    ga, gb, br = fail
    return {"pair": [ga.render(), gb.render()], "bracket": br.render()}


# ---------------------------------------------------------------------------
# Initializations and the sigma recursion

@dataclass
class Initialization:
    kept: Tuple[int, ...]          # original 1-based channel indices, order 0
    variant: str                   # "standard" | "eager"

    @property
    def p0(self) -> int:
        return len(self.kept)

    def prolonged(self, m: int) -> Tuple[int, ...]:
        return tuple(p for p in range(1, m + 1) if p not in self.kept)


def _h1_distribution(ctx: Context, kept: Sequence[int]) -> Distribution:
    ps0 = ctx.ps((0,) * ctx.sysdef.m)
    gens: List[VectorField] = []
    for p in kept:
        gens.append(ps0.gi[p - 1])
        gens.append(lie_bracket(ps0.g0, ps0.gi[p - 1]))
    return Distribution(ps0.space, gens, seed=ctx.budgets.seed,
                        samples=ctx.budgets.samples)


def _embed(init: Initialization, m: int, assign: Tuple[int, ...]) -> Tuple[int, ...]:
    full = [0] * m
    for ch, val in zip(init.prolonged(m), assign):
        full[ch - 1] = val
    return tuple(full)


def _cap(assign: Tuple[int, ...], cap: int) -> Tuple[int, ...]:
    return tuple(min(a, cap) for a in assign)


def _box_limit(k: int, user: Optional[int] = None) -> int:
    base = max(k + 1, 2 * k + 1)
    if user is not None and user > base:
        return user
    return base


def _cmin(tuples: List[Tuple[int, ...]], width: int) -> Tuple:
    if not tuples:
        return (INF,) * width
    return tuple(min(t[i] for t in tuples) for i in range(width))


def _smallest(tuples: List[Tuple[int, ...]]) -> Tuple[int, ...]:
    return min(tuples, key=lambda t: (sum(t), t))


def eager_admissible(ctx: Context, init_kept: Tuple[int, ...]) -> bool:
    m = ctx.sysdef.m
    init = Initialization(init_kept, "eager")
    chans = init.prolonged(m)
    assign = tuple(1 if idx == 0 else 2 for idx in range(len(chans)))
    jf = _embed(init, m, assign)
    ok_d, _ = ctx.delta_involutive(jf, 1)
    ok_g, _ = ctx.gamma_invariant(jf, 1)
    return ok_d and ok_g


class SigmaRun:
    """The per-initialization recursion: satisfying sets per k, reported
    sigma vectors with the non-binding-0 convention, and the candidate
    prolongation as the componentwise minimum of the surviving box."""

    def __init__(self, ctx: Context, init: Initialization):
        self.ctx = ctx
        self.init = init
        self.m = ctx.sysdef.m
        self.channels = init.prolonged(self.m)
        self.width = len(self.channels)
        self.steps: List[SigmaStep] = []
        self.outcome = "running"
        self.candidate: Optional[Tuple[int, ...]] = None
        self.failure_k: Optional[int] = None
        self.failure_note: Optional[str] = None
        self.witnesses: List[dict] = []
        self.last_bound: Optional[Tuple[int, ...]] = None

    def _tuples(self, box: int) -> List[Tuple[int, ...]]:
        return list(itertools.product(range(1, box + 1), repeat=self.width))

    def _delta_ok(self, assign: Tuple[int, ...], k: int) -> bool:
        capped = _cap(assign, k + 1)
        ok, _ = self.ctx.delta_involutive(_embed(self.init, self.m, capped), k)
        return ok

    def _gamma_ok(self, assign: Tuple[int, ...], k: int) -> bool:
        ok, _ = self.ctx.gamma_invariant(_embed(self.init, self.m, assign), k)
        return ok

    def _survivors(self, box: int, upto_k: int) -> List[Tuple[int, ...]]:
        return [t for t in self._tuples(box)
                if all(self._delta_ok(t, k) and self._gamma_ok(t, k)
                       for k in range(1, upto_k + 1))]

    def _step0(self):
        # k = 0: both conditions hold for every l (coordinate fields); the
        # eager variant records the pinned start l_{p0+1} = 1
        lead = 1 if self.init.variant == "eager" else 0
        vec = tuple(lead if i == 0 else 0 for i in range(self.width))
        self.steps.append(SigmaStep(0, vec, vec, None, 1))

    def for_variant(self, init: Initialization) -> "SigmaRun":
        """This run under another variant of the same kept channels: only
        step 0 depends on the variant, every later field carries over."""
        clone = copy.copy(self)
        clone.init = init
        clone.steps = []
        clone._step0()
        clone.steps.extend(self.steps[1:])
        return clone

    def step(self, k: int, box: int):
        """Evaluate both conditions on the box at k, record the SigmaStep and
        return (s_delta, sorted survivors of every step up to k)."""
        tuples = self._tuples(box)
        s_delta = {t for t in tuples if self._delta_ok(t, k)}
        s_gamma = {t for t in tuples if self._gamma_ok(t, k)}
        prior = set(self._survivors(box, k - 1))
        surv = sorted(prior & s_delta & s_gamma)
        # reported sigma: literal componentwise min, masked to 0 when the
        # condition eliminates nothing that everything else allows
        lit_d = _cmin(sorted(s_delta), self.width)
        lit_g = _cmin(sorted(s_gamma), self.width)
        rep_d = (0,) * self.width if (prior & s_gamma) <= s_delta else lit_d
        rep_g = (0,) * self.width if (prior & s_delta) <= s_gamma else lit_g
        witness = None
        if surv:
            w = _smallest(surv)
            witness = {self.ctx.sysdef.input_names[c - 1]: v
                       for c, v in zip(self.channels, w)}
        self.steps.append(SigmaStep(k, rep_d, rep_g, witness, box))
        return s_delta, surv

    def run(self, best_total: Optional[int] = None):
        ctx, init = self.ctx, self.init
        sysdef = ctx.sysdef
        n, m = sysdef.n, sysdef.m
        user_box = ctx.budgets.max_prolong
        self._step0()
        stable = 0
        prev_state = None
        max_k = ctx.budgets.resolved_max_k(sysdef)
        k = 1
        while True:
            if k > max_k:
                self.outcome = "budget"
                self.failure_note = "max_k exhausted"
                return self
            box = _box_limit(k, user_box)
            s_delta, surv = self.step(k, box)
            if not s_delta:
                self.outcome = "infinite"
                self.failure_k = k
                self._record_noninvolutive_witness(k, box)
                return self
            if not surv:
                self.outcome = "infinite"
                self.failure_k = k
                self.failure_note = ("no prolongation in the certified box "
                                     "satisfies every step up to k=%d" % k)
                return self
            cand = _cmin(surv, self.width)
            if cand not in surv:
                ctx.warnings.append(
                    "componentwise minimum of the satisfying set is not itself "
                    "satisfying at k=%d (kept=%s); using the smallest element"
                    % (k, init.kept))
                cand = _smallest(surv)
            self.last_bound = cand
            jf = _embed(init, m, cand)
            if best_total is not None and sum(cand) > best_total:
                self.outcome = "pruned"
                self.candidate = jf
                return self
            if max(cand) > ctx.budgets.resolved_max_prolong(sysdef):
                self.outcome = "budget"
                self.failure_note = "max_prolong exhausted"
                return self
            ps = ctx.ps(jf)
            dr = delta_filtration(ps, k).rank
            gr = gamma_filtration(ps, k).rank
            state = (cand, dr, gr)
            if state == prev_state:
                stable += 1
            else:
                stable = 0
            prev_state = state
            if stable >= 1 and dr == n + m and gr == sum(jf):
                self.candidate = jf
                self.outcome = "candidate"
                return self
            if k > n + sum(cand) and stable >= 1:
                if dr < n + m:
                    self.outcome = "rank_deficient"
                    self.failure_k = k
                    self.failure_note = ("Delta rank stabilized at %d < %d"
                                         % (dr, n + m))
                    return self
                self.candidate = jf
                self.outcome = "candidate"
                return self
            k += 1

    def _record_noninvolutive_witness(self, k: int, box: int):
        for t in sorted(self._tuples(box)):
            jf = _embed(self.init, self.m, _cap(t, k + 1))
            ok, fails = self.ctx.delta_involutive(jf, k)
            if not ok:
                self.witnesses.append({"l": list(jf), "k": k,
                                       **_rendered(fails[0])})
                if len(self.witnesses) >= 3:
                    return

    def trace(self) -> InitTrace:
        return InitTrace(kept=self.init.kept, variant=self.init.variant,
                         steps=self.steps, outcome=self.outcome,
                         candidate=self.candidate, failure_k=self.failure_k,
                         failure_note=self.failure_note)


def enumerate_initializations(ctx: Context) -> List[Initialization]:
    m = ctx.sysdef.m
    out: List[Initialization] = []
    for size in range(1, m):
        for kept in itertools.combinations(range(1, m + 1), size):
            ok, _ = _h1_distribution(ctx, kept).is_involutive()
            if not ok:
                continue
            out.append(Initialization(kept, "standard"))
            if eager_admissible(ctx, kept):
                out.append(Initialization(kept, "eager"))
    return out


def sigma_delta(sysdef: SystemDef, init: Initialization, k: int,
                box_limit: Optional[int] = None, ctx: Optional[Context] = None):
    """Reported sigma_Delta(k) for one initialization (see SigmaRun)."""
    return _sigma_step(sysdef, init, k, box_limit, ctx).sigma_delta


def sigma_gamma_delta(sysdef: SystemDef, init: Initialization, k: int,
                      box_limit: Optional[int] = None,
                      ctx: Optional[Context] = None):
    return _sigma_step(sysdef, init, k, box_limit, ctx).sigma_gamma_delta


def _sigma_step(sysdef, init, k, box_limit, ctx) -> SigmaStep:
    """Step k of the recursion, the user box applying at k only."""
    run = SigmaRun(ctx or Context(sysdef, Budgets()), init)
    run._step0()
    for kk in range(1, k + 1):
        run.step(kk, _box_limit(kk, box_limit if kk == k else None))
    return run.steps[k]


# ---------------------------------------------------------------------------
# Flat outputs

def _chain(ps: ProlongedSystem, y: Expr, length: int) -> List[Expr]:
    """y and its time derivatives along the prolonged drift; valid while the
    annihilation conditions hold (the new-input terms vanish)."""
    out = [y]
    for _ in range(length - 1):
        out.append(ps.g0.apply(out[-1]))
    return out


def _gradient_field(ps: ProlongedSystem, phi: Expr) -> VectorField:
    coeffs = {}
    for c in ps.space.coords:
        d = phi.diff(c)
        if not d.is_zero():
            coeffs[c] = d
    return VectorField(ps.space, coeffs)


def verify_flat_output(ps: ProlongedSystem, candidates: Sequence[Expr]):
    """Annihilation/nondegeneracy of each candidate against the prolonged
    filtration for some assignment of the Brunovsky indices, plus full generic
    rank of the chain Jacobian.  Returns (ok, certificate dict)."""
    kappa = brunovsky_indices(ps)
    m = ps.sysdef.m
    if len(candidates) != m:
        raise CandidateCountMismatch("expected %d candidates, got %d"
                                     % (m, len(candidates)))
    assignments = sorted(set(itertools.permutations(kappa)), reverse=True)
    last_fail = None
    for assign in assignments:
        ok, fail = _verify_assignment(ps, candidates, assign)
        if ok:
            rank_ok, cert = _chain_jacobian_certificate(ps, candidates, assign)
            if rank_ok:
                cert["kappa_assignment"] = list(assign)
                return True, cert
            last_fail = {"reason": "chain jacobian rank deficient",
                         "kappa_assignment": list(assign)}
        else:
            last_fail = fail
    return False, last_fail


def _verify_assignment(ps: ProlongedSystem, candidates, assign):
    for i, (y, kap) in enumerate(zip(candidates, assign)):
        for r in range(0, kap - 1):
            for g in g_level_fields(ps, r):
                if not g.is_zero() and not g.apply(y).is_zero():
                    return False, {"reason": "annihilation fails",
                                   "output": i + 1, "level": r,
                                   "generator": g.render()}
        top = [g for g in g_level_fields(ps, kap - 1) if not g.is_zero()]
        if all(g.apply(y).is_zero() for g in top):
            return False, {"reason": "degenerate at top level",
                           "output": i + 1, "level": kap - 1}
    return True, None


def _chain_jacobian_certificate(ps: ProlongedSystem, candidates, assign):
    rows: List[VectorField] = []
    for y, kap in zip(candidates, assign):
        for phi in _chain(ps, y, kap):
            rows.append(_gradient_field(ps, phi))
    cert = generic_rank(rows, ps.space, seed=ps.seed, samples=ps.samples,
                        base_point=ps.base_point)
    polys = list(cert.factors)
    for row in rows:
        for e in row.coeffs.values():
            accumulate_factors(polys, _factor_polys(dict(e.num)))
            if e.den != pconst(1):
                accumulate_factors(polys, _factor_polys(dict(e.den)))
    factors: List[str] = []
    for f in polys:
        s = render_poly(f)
        if s not in factors:
            factors.append(s)
    ok = cert.rank == ps.space.dim
    return ok, {"jacobian_rank": cert.rank, "dimension": ps.space.dim,
                "factors": factors}


def _ansatz_monomials(ps: ProlongedSystem, degree: int):
    letters: List[VarRef] = list(ps.space.coords)
    for b in ps.space.trig_bases:
        letters.append(sin_var(b))
        letters.append(cos_var(b))
    monos = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(letters, d):
            monos.append(combo)
    return monos


def _mono_expr(combo) -> Expr:
    out = Expr.one()
    for v in combo:
        out = out * Expr.var(v)
    return out


def _nullspace_candidates(ps: ProlongedSystem, kap: int, degree: int) -> List[Expr]:
    """Degree-bounded solutions of <G_k, dy> = 0 for k <= kap - 2, as
    normalized basis vectors of the exact nullspace (constants excluded)."""
    monos = _ansatz_monomials(ps, degree)
    mono_exprs = [_mono_expr(c) for c in monos]
    fields = []
    for r in range(0, kap - 1):
        fields.extend(g for g in g_level_fields(ps, r) if not g.is_zero())
    # linear conditions: rows indexed by (field, result monomial)
    rows: List[List[Fraction]] = []
    row_index: Dict[tuple, int] = {}
    for fi, g in enumerate(fields):
        images = [g.apply(me) for me in mono_exprs]
        dens = []
        for e in images:
            if e.den != pconst(1) and e.den not in dens:
                dens.append(e.den)
        scale = Expr.one()
        for d in dens:
            scale = scale * Expr.make(dict(d), pconst(1))
        for col, e in enumerate(images):
            if e.is_zero():
                continue
            se = e * scale
            assert se.den == pconst(1)
            for mono, coeff in se.num.items():
                key = (fi, mono)
                if key not in row_index:
                    row_index[key] = len(rows)
                    rows.append([Fraction(0)] * len(monos))
                rows[row_index[key]][col] = coeff
    ech = PointEchelon()
    for row in rows:
        ech.insert(row)
    out = []
    for vec in ech.nullspace(len(monos)):
        poly = {}
        for col, c in enumerate(vec):
            if c:
                key = mono_from([(v, 1) for v in monos[col]])
                poly[key] = poly.get(key, Fraction(0)) + c
        if not poly:
            continue
        e = Expr.make(poly, pconst(1))
        out.append(_normalize_output(e))
    return out


def _normalize_output(e: Expr) -> Expr:
    """Integer-primitive scaling with the graded-lex smallest monomial positive."""
    scale = primitive_scale(e.num.values())
    if e.num[min(e.num, key=cmp_to_key(mono_cmp))] < 0:
        scale = -scale
    return e * Expr.rational(scale)


def search_flat_outputs(ps: ProlongedSystem, ansatz_degree: int = 2):
    """Bounded polynomial ansatz for the flat-output PDEs, one chain per
    Brunovsky index in the non-increasing order of the report; None when the
    prolonged system is not static feedback linearizable or the ansatz space
    has no admissible combination.

    Each output annihilates the lower G levels and is nondegenerate at its
    top level by construction, and the chain Jacobian has full rank at one
    exact rational sample point, which proves full generic rank."""
    try:
        kappa = brunovsky_indices(ps)
    except NotLinearizable:
        return None
    pools = {kap: _nullspace_candidates(ps, kap, ansatz_degree)
             for kap in set(kappa)}

    def nondegenerate(y: Expr, kap: int) -> bool:
        top = [g for g in g_level_fields(ps, kap - 1) if not g.is_zero()]
        return any(not g.apply(y).is_zero() for g in top)

    def grown(ech: PointEchelon, rows: List[VectorField]):
        """A copy of ech with every row inserted, or None where one is
        dependent or has a pole at the point."""
        out = PointEchelon(ech.point)
        out.rows = list(ech.rows)
        try:
            if all(out.insert(r.eval_row(out.point)) for r in rows):
                return out
        except DenominatorVanishes:
            pass
        return None

    def backtrack(idx: int, echs: List[PointEchelon]):
        # echs: the sample points at which the chains chosen so far are
        # independent, with their echelons
        if idx == len(kappa):
            return []
        kap = kappa[idx]
        for cand in pools[kap]:
            if not nondegenerate(cand, kap):
                continue
            rows = [_gradient_field(ps, phi) for phi in _chain(ps, cand, kap)]
            alive = [e for e in (grown(ech, rows) for ech in echs)
                     if e is not None]
            rest = backtrack(idx + 1, alive) if alive else None
            if rest is not None:
                return [cand] + rest
        return None

    points = g_filtration(ps, 0).certificate.points
    return backtrack(0, [PointEchelon(pt) for pt in points])


# ---------------------------------------------------------------------------
# The full analysis

def analyze(sysdef: SystemDef, budgets: Optional[Budgets] = None) -> AnalysisReport:
    budgets = budgets or Budgets()
    ctx = Context(sysdef, budgets)
    n, m = sysdef.n, sysdef.m
    static = static_linearizable(sysdef, ctx=ctx)

    if static.linearizable:
        j0 = MultiIndex((0,) * m)
        return _flat_report(ctx, j0, cns_check(sysdef, j0, ctx=ctx), [], [],
                            note="static feedback linearizable")
    if m == 1:
        return _not_flat_report(
            ctx, "not_p2_flat",
            {"reason": "single-input system is P2-flat only if static "
                       "feedback linearizable"})
    if static.all_involutive:
        return _not_flat_report(
            ctx, "not_p2_flat",
            {"reason": "strong controllability fails for every prolongation "
                       "(all G_k^(0) involutive, max rank %d < %d)"
                       % (static.max_rank, n + m)})

    inits = enumerate_initializations(ctx)
    if not inits:
        return _not_flat_report(
            ctx, "not_p2_flat", {"reason": "no involutive initialization exists"})

    runs: List[SigmaRun] = []
    best: Optional[Tuple[Tuple[int, ...], SigmaRun]] = None
    seen_kept = {}
    for init in inits:
        if init.kept in seen_kept:
            runs.append(seen_kept[init.kept].for_variant(init))
            continue
        run = SigmaRun(ctx, init)
        run.run(best_total=sum(best[0]) if best else None)
        seen_kept[init.kept] = run
        runs.append(run)
        if run.outcome == "candidate":
            if best is None or _candidate_order(run.candidate) < \
                    _candidate_order(best[0]):
                best = (run.candidate, run)

    candidates = sorted(
        [(r.candidate, i, r) for i, r in enumerate(runs)
         if r.outcome == "candidate"],
        key=lambda t: (_candidate_order(t[0]), t[1]))
    for jf, _, run in candidates:
        # a budget-stopped initialization whose lower bound is still below the
        # winner would leave minimality unproven
        open_better = [r for r in runs if r.outcome == "budget" and
                       (r.last_bound is None or sum(r.last_bound) < sum(jf))]
        if open_better:
            break
        res = cns_check(sysdef, jf, ctx=ctx)
        if res.ok:
            return _flat_report(ctx, MultiIndex(jf), res, runs, run.steps)
        ctx.warnings.append("candidate %s failed re-verification (%s)"
                            % (jf, res.violation))

    budget_hit = [r for r in runs if r.outcome == "budget"]
    if budget_hit:
        return _not_flat_report(
            ctx, "inconclusive", {"reason": "budget exhausted",
                                  "flag": budget_hit[0].failure_note},
            runs, budget_hit[0].steps)

    witness = {"reason": "every initialization fails the theorem conditions",
               "per_initialization": [
                   {"kept_channels": list(r.init.kept),
                    "variant": r.init.variant,
                    "outcome": r.outcome,
                    "k": r.failure_k,
                    "note": r.failure_note,
                    "witnesses": r.witnesses} for r in runs]}
    return _not_flat_report(ctx, "not_p2_flat", witness, runs, runs[0].steps)


def _candidate_order(jf: Tuple[int, ...]):
    return (sum(jf), tuple(jf))


def _not_flat_report(ctx: Context, verdict: str, witness: dict,
                     runs: Sequence[SigmaRun] = (),
                     steps: Sequence[SigmaStep] = ()) -> AnalysisReport:
    return AnalysisReport(
        verdict=verdict, j_min=None, input_permutation=None, k_star=None,
        kappa=None, flat_outputs=None, sigma_trace=list(steps),
        singular_locus=[], seed=ctx.budgets.seed, witness=witness,
        initializations=[r.trace() for r in runs], system=ctx.sysdef.name,
        warnings=ctx.warnings)


def _flat_report(ctx: Context, j: MultiIndex, res: CnsResult,
                 runs: List[SigmaRun], steps: List[SigmaStep],
                 note: Optional[str] = None) -> AnalysisReport:
    """The p2_flat report at j from its passing `cns_check` result. The one
    `verify_flat_output` of the searched outputs gates `flat_outputs` and
    adds the chain-Jacobian factors to the singular locus."""
    sysdef = ctx.sysdef
    if not res.ok:
        raise InternalError("verified candidate failed the theorem check")
    if not res.cross_check_agrees:
        ctx.warnings.append("Prop. 4.1 cross-check disagreed with the "
                            "Delta/Gamma conditions")
    ps = ctx.ps(tuple(j))
    _, k_star = g_stabilization(ps)
    kappa = brunovsky_indices(ps)
    _audit_bounds(sysdef, j, k_star, kappa, res)
    outputs = search_flat_outputs(ps, ctx.budgets.ansatz_degree)
    out_strings = None
    factors = list(res.factors)
    if outputs is not None:
        ok, cert = verify_flat_output(ps, outputs)
        if ok:
            out_strings = [render_expr(y) for y in outputs]
            for s in cert.get("factors", []):
                if s not in factors:
                    factors.append(s)
    _flag_base_point(ctx, ps, factors)
    _, perm = j.sorted_permutation()
    if note:
        ctx.warnings.append(note)
    return AnalysisReport(
        verdict="p2_flat", j_min=tuple(j), input_permutation=perm,
        k_star=k_star, kappa=kappa, flat_outputs=out_strings,
        sigma_trace=steps, singular_locus=factors, seed=ctx.budgets.seed,
        witness=None, initializations=[r.trace() for r in runs],
        system=sysdef.name, warnings=ctx.warnings)


def _flag_base_point(ctx: Context, ps: ProlongedSystem, factors: List[str]):
    base = dict(ctx.base_point)
    for v in ps.space.coords:
        base.setdefault(v, Fraction(0))
    for s in factors:
        try:
            val = _eval_factor_string(ctx.sysdef, s, base)
        except DslError:
            continue
        if val == 0:
            ctx.warnings.append("singular factor %s vanishes at the base point" % s)
    dropped = []
    for key, dist in ps._dist_cache.items():
        cert = dist.certificate
        if cert.base_point_drop:
            dropped.append("%s_%s" % (key[0], key[1]))
    if dropped:
        ctx.warnings.append(
            "verdict is generic: rank drops at the base point for " +
            ", ".join(dropped))


def _eval_factor_string(sysdef: SystemDef, s: str, base) -> Fraction:
    toks = tokenize(s + "\n")
    p = _Parser(toks, sysdef)
    e = p.expr()
    return e.eval_at(base)


def _audit_bounds(sysdef: SystemDef, j: MultiIndex, k_star: int,
                  kappa: Tuple[int, ...], res: CnsResult):
    n, m = sysdef.n, sysdef.m
    total = j.total
    if k_star > n + total:
        raise InternalError("k_star exceeds n + |j|")
    if res.delta_ranks[res.k_star] == n + m:
        if k_star < max(j) or Fraction(n + total, m) > k_star:
            raise InternalError("k_star below the strong-controllability bound")
    if sum(kappa) != n + m + total:
        raise InternalError("Brunovsky indices do not sum to n+m+|j|")
    if kappa[0] != k_star + 1:
        raise InternalError("kappa_1 != k_star + 1")
