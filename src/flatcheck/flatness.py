"""The decision layer: static feedback linearizability, the prolonged
necessary-and-sufficient conditions, the sigma minimization, the full
pure-prolongation analysis, and flat-output verification and search."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import (Collection, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .expr import (UDERIV, Expr, Poly, VarRef, cos_var, mono_cmp, mono_from,
                   pconst, peval, pis_one, primitive_scale, render_expr,
                   render_poly, sin_var)
from .jetgeom import (FP, QQ, SYMBOLIC_MAX_DIM, Distribution, JetSpace,
                      MultiIndex, PointEchelon, RankCertificate, SamplePoints,
                      VectorField, _factor_polys, _same_space,
                      accumulate_factors, bracket_failures, generic_rank,
                      lie_bracket, unit_field)
from .prolong import (ProlongedSystem, build_prolonged, build_space,
                      g_filtration, g_level_fields, g_stabilization,
                      gamma_coordinates)
from .report import INF, AnalysisReport, InitTrace, SigmaStep
from .sysdsl import SystemDef


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

class ChainLinks:
    """The chain links ad_{g0}^r d/du_p^(0) of one system, for every
    prolongation, each with an id, with the bracket memo and the capped jet
    spaces they live on.  It holds no reference to the `Context` that owns
    it, so the prolonged systems of that Context may keep it (`ps`).

    Link r has the id of the bracket of link r - 1 with the drift terms
    u_q^(t+1) d/du_q^(t) of X^(j) at the coordinates u_q^(t) that link
    r - 1's coefficients involve.  This is exact: [g0, L] reads g0 only
    there and at f d/dx, when L points in x-directions or is d/du_p^(0).
    Each link is bracketed once, through `bracket`, and links with equal
    coefficients share an id."""

    def __init__(self, sysdef: SystemDef):
        self.sysdef = sysdef
        self._spaces: Dict[Tuple[int, ...], JetSpace] = {}
        self._brackets: Dict[tuple, VectorField] = {}
        # chain links by id, with the (q, t) of the u_q^(t) they involve
        self._links: List[VectorField] = []
        self._link_us: List[Tuple[Tuple[int, int], ...]] = []
        self._link_ids: Dict[tuple, int] = {}
        # (link id, drift terms (q, t) it meets) -> id of the next link
        self._link_next: Dict[tuple, int] = {}
        # (p, r, cap(j, r - 1)) -> the ids `links` returns
        self._chains: Dict[tuple, Tuple[int, ...]] = {}
        x0 = self.space((0,) * sysdef.m)
        self._unit_links = [self._link_id(unit_field(x0, sysdef.input(p, 0)))
                            for p in range(1, sysdef.m + 1)]

    def space(self, j: Tuple[int, ...]) -> JetSpace:
        if j not in self._spaces:
            self._spaces[j] = build_space(self.sysdef, MultiIndex(j))
        return self._spaces[j]

    def bracket(self, a: VectorField, b: VectorField) -> VectorField:
        """lie_bracket(a, b) on a's space, computed once per pair of
        coefficient keys in this analysis.  This is exact: a bracket reads
        only the two fields' coefficients and their derivatives, never the
        jet space, so equal keys give equal brackets on every space that
        has both fields."""
        _same_space(a, b)
        key = (a.key(), b.key())
        br = self._brackets.get(key)
        if br is None:
            br = self._brackets[key] = lie_bracket(a, b)
        return br.on(a.space)

    def _link_id(self, link: VectorField) -> int:
        lid = self._link_ids.get(link.key())
        if lid is None:
            lid = self._link_ids[link.key()] = len(self._links)
            self._links.append(link)
            self._link_us.append(tuple(sorted(
                {(v.i, v.k) for e in link.coeffs.values()
                 for v in e.free_base_vars() if v.kind == UDERIV})))
        return lid

    def links(self, p: int, r: int, j: Tuple[int, ...]) -> Tuple[int, ...]:
        """The ids of ad_{g0}^s d/du_p^(0) on X^(j), s = 0..r, memoized on
        (p, r, cap(j, r - 1)).  This is exact: link s involves u_q^(t) only
        for t <= s - 1, so the links up to r meet the drift terms at
        u_q^(t), t <= r - 2, which X^(j) has iff t < min(j_q, r - 1)."""
        if r == 0:
            return (self._unit_links[p - 1],)
        key = (p, r, _cap(j, r - 1))
        out = self._chains.get(key)
        if out is None:
            out = self.links(p, r - 1, j)
            lid = out[-1]
            drift = tuple(qt for qt in self._link_us[lid] if qt[1] < j[qt[0] - 1])
            nxt = self._link_next.get((lid, drift))
            if nxt is None:
                sysdef, space = self.sysdef, self.space(_cap(j, r))
                coeffs = {sysdef.state(i): f_i
                          for i, f_i in enumerate(sysdef.f, start=1)}
                for q, t in drift:
                    coeffs[sysdef.input(q, t)] = Expr.var(sysdef.input(q, t + 1))
                nxt = self._link_next[lid, drift] = self._link_id(self.bracket(
                    VectorField(space, coeffs), self._links[lid].on(space)))
            out = self._chains[key] = out + (nxt,)
        return out

    def link(self, p: int, r: int, j: Tuple[int, ...]) -> VectorField:
        """ad_{g0}^r d/du_p^(0) on X^(j), on the space it was built on."""
        return self._links[self.links(p, r, j)[-1]]


class Context:
    """Shared caches of one analysis.  Both sigma-search conditions on
    Delta_k^(j) are answered by one `Distribution` per generator list, its
    home, built without a prolonged system:

    - The chain links come from one `ChainLinks` store, which also serves
      the G levels of every prolonged system from `ps`.
    - Delta_k^(j) has the generators of Delta_k^(cap(j, k+1)) (see
      `gamma_invariant`), so its home is keyed by that list of link ids and
      lives on X^(cap(j, k+1)).  Involutivity of span{gens}, and whether
      [d/dc, V] = dV/dc lies in it, depend only on the generators'
      coefficients, so a failure may hold fields of another prolongation's
      jet space; it is only rendered.
    - Every home, every distribution of a prolonged system from `ps`, and
      the H_1 of each initialization sample at the shared `points`, so a
      field's row at a point is evaluated once per analysis."""

    def __init__(self, sysdef: SystemDef, budgets: Budgets):
        self.sysdef = sysdef
        self.budgets = budgets
        self.base_point = sysdef.base_point().resolved()
        self.points = SamplePoints(budgets.seed)
        self.chain_links = store = ChainLinks(sysdef)
        self.space, self.bracket, self.links = \
            store.space, store.bracket, store.links
        self._links, self._link_next, self._brackets = \
            store._links, store._link_next, store._brackets
        self._ps: Dict[Tuple[int, ...], ProlongedSystem] = {}
        self._delta: Dict[Tuple[Tuple[int, ...], int], Distribution] = {}
        self._homes: Dict[Tuple[int, ...], Distribution] = {}
        self._gamma_low: Dict[Tuple[int, int, int], List[VarRef]] = {}
        self.warnings: List[str] = []

    def ps(self, j) -> ProlongedSystem:
        key = tuple(j)
        if key not in self._ps:
            self._ps[key] = build_prolonged(
                self.sysdef, MultiIndex(j), seed=self.budgets.seed,
                samples=self.budgets.samples, base_point=self.base_point,
                points=self.points, links=self.chain_links)
        return self._ps[key]

    def home(self, j: Tuple[int, ...], k: int) -> Distribution:
        """The home Delta_k `Distribution` of the generator list of
        Delta_k^(j), in `delta_generators` order, built on X^(cap(j, k+1))
        when the list is new: as an extension of the Delta_{k-1} home of
        cap(j, k) when there is one.  That home's links are among these:
        a link of depth s < k reads no drift term u_q^(t) with t >= k, so
        capping j at k or at k + 1 gives the same links."""
        capped = _cap(j, k + 1)
        dist = self._delta.get((capped, k))
        if dist is None:
            ids = tuple(lid for p, jp in enumerate(capped, start=1)
                        if jp <= k for lid in self.links(p, k - jp, capped)
                        if not self._links[lid].is_zero())
            dist = self._homes.get(ids)
            if dist is None:
                space = self.space(capped)
                dist = self._homes[ids] = Distribution(
                    space, [self._links[lid].on(space) for lid in ids],
                    seed=self.budgets.seed, samples=self.budgets.samples,
                    base_point=self.base_point, points=self.points,
                    prefix=self._delta.get((_cap(j, k), k - 1)))
            self._delta[capped, k] = dist
        return dist

    def delta_involutive(self, j: Tuple[int, ...], k: int):
        """(True, None), or (False, the first failing pair in generator-pair
        order) for Delta_k^(j)."""
        return self.home(j, k).is_involutive(self.bracket)

    # [Gamma_k, Delta_k] c Delta_k, one bracket sweep per Gamma coordinate
    def gamma_invariant(self, j: Tuple[int, ...], k: int):
        """Checked on the home of Delta_k^(j), and exactly so: Delta_k^(j)
        has the generators of Delta_k^(min(j, k+1)), since channel p enters
        iff j_p <= k and ad_{g0}^r d/du_p^(0), r <= k, involves only u_q^(s)
        with s < k; so [d/dc, V] = dV/dc vanishes for every Gamma coordinate c
        of order >= k.  (True, None), or (False, the first failure in the
        order channel, l, generator)."""
        home = self.home(j, k)
        for p, jp in enumerate(j, start=1):
            for c in self._gamma_coordinates_below(p, jp, k):
                fail = home.coordinate_failure(c, self.bracket)
                if fail is not None:
                    return False, fail
        return True, None

    def _gamma_coordinates_below(self, p: int, jp: int, k: int) -> List[VarRef]:
        """Channel p's Gamma_k coordinates of order < k, by l: u_p^(s) for s
        from min(j_p, k - 1) down to max(j_p - k, 1); none when j_p >= 2k."""
        key = (p, jp, k)
        coords = self._gamma_low.get(key)
        if coords is None:
            coords = self._gamma_low[key] = [
                self.sysdef.input(p, s)
                for s in range(min(jp, k - 1), max(jp - k, 1) - 1, -1)]
        return coords


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
    ranks, kstar = g_stabilization(ps0)
    first_bad, witness = _first_noninvolutive_g(ps0, kstar, ctx.bracket)
    all_inv = first_bad is None
    full = ranks[-1] == sysdef.n + sysdef.m
    lin = all_inv and full
    kappa = _kappa_from_ranks(sysdef.m, ranks) if lin else None
    return StaticResult(lin, kappa, kstar, ranks, all_inv, first_bad,
                        witness, ranks[-1])


def _first_noninvolutive_g(ps: ProlongedSystem, kstar: int, bracket=None):
    """(k, witness) of the first G_k, k <= kstar, that is not involutive,
    or (None, None)."""
    for k in range(0, kstar + 1):
        ok, wit = g_filtration(ps, k).is_involutive(bracket)
        if not ok:
            return k, wit
    return None, None


# ---------------------------------------------------------------------------
# Brunovsky indices of a prolonged linearizable system

def brunovsky_indices(ps: ProlongedSystem) -> Tuple[int, ...]:
    """Non-increasing controllability indices of the prolonged system;
    NotLinearizable unless its G filtration is involutive up to
    stabilization and reaches full dimension."""
    ranks, kstar = g_stabilization(ps)
    if ranks[-1] != ps.space.dim:
        raise NotLinearizable("G filtration stabilizes below full dimension")
    bad, _ = _first_noninvolutive_g(ps, kstar)
    if bad is not None:
        raise NotLinearizable("G_%d is not involutive" % bad)
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
    # ("Delta_k" or "G_k", certificate) of every filtration step checked at
    # j, Delta_0.. then G_0..
    certificates: List[Tuple[str, RankCertificate]] = field(
        default_factory=list)


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
    d_certs: List[RankCertificate] = []
    g_certs: List[RankCertificate] = []
    d_ranks: List[int] = []
    g_ranks: List[int] = []
    gam_ranks: List[int] = []
    cross_ok = True
    k = 0
    kstar = None
    while k <= cap + 1:
        gdist = g_filtration(ps, k)
        d_certs.append(ctx.home(tuple(j), k).certified(
            full <= SYMBOLIC_MAX_DIM))
        g_certs.append(gdist.certificate)
        d_ranks.append(d_certs[-1].rank)
        gam_ranks.append(len(gamma_coordinates(sysdef, j, k)))
        g_ranks.append(gdist.rank)
        inv_ok, inv_fail = ctx.delta_involutive(tuple(j), k)
        gam_ok, gam_fail = ctx.gamma_invariant(tuple(j), k)
        if not (inv_ok and gam_ok):
            condition, fail = (("involutivity", inv_fail) if not inv_ok
                               else ("gamma_invariance", gam_fail))
            violation = {"condition": condition, "k": k, **_rendered(fail)}
            return CnsResult(False, violation, None, d_ranks, gam_ranks,
                             g_ranks, cross_ok, [])
        g_inv, _ = gdist.is_involutive(ctx.bracket)
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
        violation = _certify_conditions(ctx, tuple(j), kstar)
    certs = [("Delta_%d" % i, c) for i, c in enumerate(d_certs)] + \
        [("G_%d" % i, c) for i, c in enumerate(g_certs)]
    return CnsResult(violation is None, violation, kstar, d_ranks,
                     gam_ranks, g_ranks, cross_ok,
                     list(_locus(f for _, c in certs for f in c.factors)),
                     certs)


def _locus(polys: Iterable[Poly]) -> Dict[str, Poly]:
    """Singular factors by rendered string, in order of first appearance."""
    out: Dict[str, Poly] = {}
    for f in polys:
        out.setdefault(render_poly(f), f)
    return out


def _certify_conditions(ctx: Context, j: Tuple[int, ...],
                        kstar: int) -> Optional[dict]:
    """Re-run every membership of a passing verdict at j through the symbolic
    elimination (exact, not sampled) wherever that path is available: when
    X^(j) has dim <= SYMBOLIC_MAX_DIM."""
    if ctx.ps(j).space.dim > SYMBOLIC_MAX_DIM:
        return None
    for k in range(0, kstar + 1):
        dist = ctx.home(j, k)
        member = dist.contains_certified
        condition = "involutivity"
        fail = next(bracket_failures(
            itertools.combinations(dist.generators, 2), member, ctx.bracket),
            None)
        if fail is None:
            # only Gamma coordinates of order < k can bracket to nonzero,
            # and only those on the home space (see Context.gamma_invariant)
            condition = "gamma_invariance"
            gammas = [unit_field(dist.space, c)
                      for p, jp in enumerate(j, start=1)
                      for c in ctx._gamma_coordinates_below(p, jp, k)
                      if c in dist.space]
            fail = next(bracket_failures(
                itertools.product(gammas, dist.generators), member,
                ctx.bracket), None)
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

    def prolonged(self, m: int) -> Tuple[int, ...]:
        return tuple(p for p in range(1, m + 1) if p not in self.kept)


def _h1_distribution(ctx: Context, kept: Sequence[int]) -> Distribution:
    ps0 = ctx.ps((0,) * ctx.sysdef.m)
    level1 = g_level_fields(ps0, 1)
    gens: List[VectorField] = []
    for p in kept:
        gens.append(ps0.gi[p - 1])
        gens.append(level1[p - 1])
    return Distribution(ps0.space, gens, seed=ctx.budgets.seed,
                        samples=ctx.budgets.samples, points=ctx.points)


def _embed(init: Initialization, m: int, assign: Tuple[int, ...]) -> Tuple[int, ...]:
    full = [0] * m
    for ch, val in zip(init.prolonged(m), assign):
        full[ch - 1] = val
    return tuple(full)


def _cap(assign: Tuple[int, ...], cap: int) -> Tuple[int, ...]:
    return tuple([a if a < cap else cap for a in assign])


def _box_limit(k: int, user: Optional[int] = None) -> int:
    base = 2 * k + 1
    if user is not None and user > base:
        return user
    return base


def _cmin(tuples: Collection[Tuple[int, ...]], width: int) -> Tuple:
    if not tuples:
        return (INF,) * width
    return tuple(map(min, zip(*tuples)))


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
    prolongation as the componentwise minimum of the surviving box.

    Step k reads classes c = cap(l, k+1) in [1..k+1]^w, not box tuples.
    Delta_k depends on c only.  Gamma_k is read on c's home, channel by
    channel: channel p's Gamma coordinates of order < k are u_p^(s) for
    1 <= s <= min(c_p, k-1) when c_p <= k, and for max(l_p - k, 1) <= s <=
    k-1 when c_p = k+1, a range that shrinks as l_p grows.  So the tuples of
    class c that satisfy Gamma_k form a product: l_p = c_p where c_p <= k and
    none of those u_p^(s) fails, l_p >= k+1+s where c_p = k+1 and s is the
    largest failing u_p^(s) (0 if none; so l_p >= 2k always passes).

    A set of tuples the step needs is a union of such blocks, one per
    class, each given by its corner lo: l_p = lo_p where lo_p <= k, and
    l_p >= lo_p elsewhere.  The survivors are kept as corners, and a union's
    componentwise minimum and smallest tuple are read off its corners.  A
    tuple survived steps 1..k-1 iff it lies in a block of step k-1; such a
    block meets the classes c with cap(c, k) = cap(lo, k).

    Step k asks `Context` only about the classes it reads: those meeting the
    last survivors (the Delta_{k-1} homes of which are the prefixes of their
    homes); then, only where a reported minimum is not masked, the other
    classes in increasing order of the coordinate, until none can lower it;
    and, only when no class meeting the survivors satisfies Delta_k, the
    others until one does."""

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
        # the corners of the survivors' blocks: every tuple survives step 0
        self._survivors: Set[Tuple[int, ...]] = {(1,) * self.width}

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

    def _least(self, k: int, least, asked) -> Tuple:
        """The componentwise minimum of a union of blocks, one per class,
        INF where it is empty: least(c, i) is None, or the least l_i of the
        block of class c, which is >= c_i.  Coordinate i reads the classes
        with c_i = 1, 2, ..., the `asked` ones of each first, while c_i is
        below the least found."""
        out = []
        for i in range(self.width):
            best = INF
            for v in range(1, k + 2):
                if v >= best:
                    break
                ranges = [range(1, k + 2)] * self.width
                ranges[i] = (v,)
                for c in sorted(itertools.product(*ranges),
                                key=lambda c: c not in asked):
                    b = least(c, i)
                    if b is not None and b < best:
                        best = b
                        if best == v:
                            break
            out.append(best)
        return tuple(out)

    def step(self, k: int, box: int):
        """Evaluate both conditions at k, record the SigmaStep and return
        (whether a tuple of the box satisfies Delta_k, the sorted corners of
        the blocks of the tuples that satisfy every step up to k)."""
        ctx, init, m, channels = self.ctx, self.init, self.m, self.channels
        homes: Dict[Tuple[int, ...], Distribution] = {}
        delta: Dict[Tuple[int, ...], bool] = {}
        gamma: Dict[Tuple[int, ...], bool] = {}

        def home(c):
            if c not in homes:
                homes[c] = ctx.home(_embed(init, m, c), k)
            return homes[c]

        def delta_ok(c):
            if c not in delta:
                delta[c] = home(c).is_involutive(ctx.bracket)[0]
            return delta[c]

        def failing(c, i, floor=0):
            # the largest order s > floor of a Gamma_k coordinate u_p^(s) of
            # channel p = channels[i] at l_p = c_i that fails on c's home,
            # 0 if none; one that no generator involves passes
            dist = home(c)
            involved = dist.variables()
            for v in ctx._gamma_coordinates_below(channels[i], c[i], k):
                if v.k <= floor:
                    break
                if v in involved and \
                        dist.coordinate_failure(v, ctx.bracket) is not None:
                    return v.k
            return 0

        def gamma_ok(c):
            # whether some tuple of class c satisfies Gamma_k
            if c not in gamma:
                gamma[c] = not any(cp <= k and failing(c, i)
                                   for i, cp in enumerate(c))
            return gamma[c]

        def gamma_least(c, i, floor=0):
            # max(floor, the least l_i of the tuples of class c that satisfy
            # Gamma_k), None if there are none; a failing order s matters
            # only if k + 1 + s > floor
            if not gamma_ok(c):
                return None
            if c[i] <= k:
                return max(floor, c[i])
            return max(floor, k + 1 + failing(c, i, floor - k - 1))

        # mask each reported sigma to 0 while its condition eliminates no
        # survivor of step k-1 that the other allows
        surv, mask_d, mask_g = [], True, True
        for last in sorted(self._survivors):
            for c in itertools.product(*[
                    (v,) if v < k else (k, k + 1) if v == k else (k + 1,)
                    for v in last]):
                # the corner of the survivors of step k-1 in class c
                prior = tuple(cp if cp <= k else max(cp, v)
                              for cp, v in zip(c, last))
                if delta_ok(c):
                    lo = None
                    if gamma_ok(c):
                        lo = tuple(gamma_least(c, i, v)
                                   for i, v in enumerate(prior))
                        surv.append(lo)
                    mask_g = mask_g and lo == prior
                elif mask_d:
                    mask_d = not gamma_ok(c)
        zero = (0,) * self.width
        rep_d = zero if mask_d else self._least(
            k, lambda c, i: c[i] if delta_ok(c) else None, delta)
        rep_g = zero if mask_g else self._least(k, gamma_least, gamma)
        found = any(delta.values()) or any(
            delta_ok(c) for c in itertools.product(range(1, k + 2),
                                                   repeat=self.width))
        surv.sort()
        self._survivors = set(surv)
        witness = None
        if surv:
            w = _smallest(surv)
            witness = {ctx.sysdef.input_names[c - 1]: v
                       for c, v in zip(channels, w)}
        self.steps.append(SigmaStep(k, rep_d, rep_g, witness, box))
        return found, surv

    def _covers(self, surv: List[Tuple[int, ...]], t: Tuple[int, ...],
                k: int) -> bool:
        """Whether t lies in a block of the corners `surv` of step k."""
        return any(all(tp == lp if lp <= k else tp >= lp
                       for tp, lp in zip(t, lo)) for lo in surv)

    def run(self, best_total: Optional[int] = None):
        ctx, init = self.ctx, self.init
        sysdef = ctx.sysdef
        n, m = sysdef.n, sysdef.m
        user_box = ctx.budgets.max_prolong
        self._step0()
        stable = 0
        prev_state = None
        for k in range(1, ctx.budgets.resolved_max_k(sysdef) + 1):
            box = _box_limit(k, user_box)
            found, surv = self.step(k, box)
            if not found:
                self.outcome = "infinite"
                self.failure_k = k
                self._record_noninvolutive_witness(k)
                break
            if not surv:
                self.outcome = "infinite"
                self.failure_k = k
                self.failure_note = ("no prolongation in the certified box "
                                     "satisfies every step up to k=%d" % k)
                break
            cand = _cmin(surv, self.width)
            if not self._covers(surv, cand, k):
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
                break
            if max(cand) > ctx.budgets.resolved_max_prolong(sysdef):
                self.outcome = "budget"
                self.failure_note = "max_prolong exhausted"
                break
            dr = ctx.home(jf, k).sampled_rank
            gr = len(gamma_coordinates(sysdef, jf, k))
            state = (cand, dr, gr)
            if state == prev_state:
                stable += 1
            else:
                stable = 0
            prev_state = state
            if stable >= 1 and dr == n + m and gr == sum(jf):
                self.candidate = jf
                self.outcome = "candidate"
                break
            if k > n + sum(cand) and stable >= 1:
                if dr < n + m:
                    self.outcome = "rank_deficient"
                    self.failure_k = k
                    self.failure_note = ("Delta rank stabilized at %d < %d"
                                         % (dr, n + m))
                    break
                self.candidate = jf
                self.outcome = "candidate"
                break
        else:
            self.outcome = "budget"
            self.failure_note = "max_k exhausted"
        # analyze keeps every run, so drop what served this search only
        self._survivors = set()
        return self

    def _record_noninvolutive_witness(self, k: int):
        # called when no tuple satisfies Delta_k: the classes of the first
        # three tuples of the box, whose last entry runs 1, 2, 3
        for last in (1, 2, 3):
            t = (1,) * (self.width - 1) + (last,)
            jf = _embed(self.init, self.m, _cap(t, k + 1))
            _, fail = self.ctx.delta_involutive(jf, k)
            self.witnesses.append({"l": list(jf), "k": k, **_rendered(fail)})

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
            ok, _ = _h1_distribution(ctx, kept).is_involutive(ctx.bracket)
            if not ok:
                continue
            out.append(Initialization(kept, "standard"))
            if eager_admissible(ctx, kept):
                out.append(Initialization(kept, "eager"))
    return out


# ---------------------------------------------------------------------------
# Flat outputs

def _chain(ps: ProlongedSystem, y: Expr, length: int) -> List[Expr]:
    """y and its time derivatives along the prolonged drift; valid while the
    annihilation conditions hold (the new-input terms vanish).  The prefixes
    are kept on ps, so a search and the check of its outputs share them."""
    out = ps.chains.setdefault(y, [y])
    while len(out) < length:
        out.append(ps.g0.apply(out[-1]))
    return out[:length]


def _gradient_field(ps: ProlongedSystem, phi: Expr) -> VectorField:
    """d phi, differentiated only in the coordinates phi involves.  Kept on
    ps beside the chains, so a search and the check of its outputs share it."""
    grad = ps.gradients.get(phi)
    if grad is None:
        touched = phi.free_base_vars()
        grad = ps.gradients[phi] = VectorField(
            ps.space, {c: phi.diff(c) for c in ps.space.coords
                       if c in touched})
    return grad


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


def _along(ps: ProlongedSystem, g: VectorField, y: Expr) -> Expr:
    """g(y), read off y's kept gradient instead of differentiating again."""
    grad = _gradient_field(ps, y).coeffs
    out = Expr.zero()
    for v, e in g.coeffs.items():
        if v in grad:
            out = out + e * grad[v]
    return out


def _verify_assignment(ps: ProlongedSystem, candidates, assign):
    for i, (y, kap) in enumerate(zip(candidates, assign)):
        for r in range(0, kap - 1):
            for g in g_level_fields(ps, r):
                if not g.is_zero() and not _along(ps, g, y).is_zero():
                    return False, {"reason": "annihilation fails",
                                   "output": i + 1, "level": r,
                                   "generator": g.render()}
        top = [g for g in g_level_fields(ps, kap - 1) if not g.is_zero()]
        if all(_along(ps, g, y).is_zero() for g in top):
            return False, {"reason": "degenerate at top level",
                           "output": i + 1, "level": kap - 1}
    return True, None


def _chain_jacobian_certificate(ps: ProlongedSystem, candidates, assign):
    rows: List[VectorField] = []
    for y, kap in zip(candidates, assign):
        for phi in _chain(ps, y, kap):
            rows.append(_gradient_field(ps, phi))
    cert = generic_rank(rows, ps.space, samples=ps.samples, points=ps.points)
    polys = list(cert.factors)
    for row in rows:
        for e in row.coeffs.values():
            accumulate_factors(polys, _factor_polys(dict(e.num)))
            if not pis_one(e.den):
                accumulate_factors(polys, _factor_polys(dict(e.den)))
    ok = cert.rank == ps.space.dim
    return ok, {"jacobian_rank": cert.rank, "dimension": ps.space.dim,
                "factors": _locus(polys)}


def _ansatz_monomials(ps: ProlongedSystem, degree: int, dropped=()):
    letters: List[VarRef] = [c for c in ps.space.coords if c not in dropped]
    for b in ps.space.trig_bases:
        letters.append(sin_var(b))
        letters.append(cos_var(b))
    monos = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(letters, d):
            monos.append(combo)
    return monos


def _mono_expr(combo) -> Expr:
    return Expr.make({mono_from([(v, 1) for v in combo]): 1},
                     pconst(1))


def _killed_letter(g: VectorField, trig_bases) -> Optional[VarRef]:
    """c when g = e d/dc with c not a trig base: g(y) = 0 says dy/dc = 0."""
    c = next(iter(g.coeffs)) if len(g.coeffs) == 1 else None
    return None if c in trig_bases else c


class _Lazy:
    """A re-iterable view of an iterator that draws each item once, on first
    read, so that loops at two depths of a search can share it."""

    def __init__(self, items):
        self._items = iter(items)

    def __iter__(self):
        self._items, view = itertools.tee(self._items)
        return view


def _nullspace_pools(ps: ProlongedSystem, kappas: Collection[int],
                     degree: int) -> Dict[int, _Lazy]:
    """For each kap in `kappas`, the degree-bounded solutions of
    <G_k, dy> = 0 for k <= kap - 2, as normalized basis vectors of the
    exact nullspace (constants excluded), each built on first read.  One
    echelon over Q takes each G level's conditions once, in increasing
    level, and is read after level kap - 2 for each kap: the basis depends
    only on the row space.  A letter that `_killed_letter` finds is left
    out of the monomials if killed at a level every pool reads, else gives
    unit rows at the monomials involving it; wherever monomials have
    independent partials (degree 2, or no trig bases) this keeps the row
    space."""
    kaps = sorted(set(kappas))
    trig = ps.space.trig_bases
    dropped = {_killed_letter(g, trig) for r in range(kaps[0] - 1)
               for g in g_level_fields(ps, r)} - {None}
    monos = _ansatz_monomials(ps, degree, dropped)
    cols_of: Dict[VarRef, List[int]] = {}   # letter base -> its monomials
    for col, combo in enumerate(monos):
        for v in dict.fromkeys(w.base if w.is_trig() else w for w in combo):
            cols_of.setdefault(v, []).append(col)

    @lru_cache(maxsize=None)
    def partial(col: int, v: VarRef) -> Expr:
        return _mono_expr(monos[col]).diff(v)

    ech = PointEchelon()
    pools: Dict[int, _Lazy] = {}
    level = 0
    for kap in kaps:
        while level < kap - 1:
            for g in g_level_fields(ps, level):
                # the columns whose unit row lies in the span: the reduced
                # echelon holds each as a row
                zeroed = {pc for pc, row in ech.rows if len(row) == 1}
                c = _killed_letter(g, trig)
                for row in ([{col: QQ.one} for col in cols_of.get(c, ())
                             if col not in zeroed]
                            if c is not None else
                            _ansatz_conditions(g, cols_of, partial, zeroed)):
                    ech.insert(row)
            level += 1
        ys = (Expr.make({mono_from([(v, 1) for v in monos[col]]): c
                         for col, c in enumerate(vec) if c}, pconst(1))
              for vec in ech.nullspace(len(monos)))
        # skipping zero functions, such as x*(sin(b)^2 + cos(b)^2 - 1)
        pools[kap] = _Lazy(_normalize_output(y) for y in ys if not y.is_zero())
    return pools


def _ansatz_conditions(g: VectorField, cols_of: Dict[VarRef, List[int]],
                       partial, zeroed: Collection[int]):
    """The linear conditions g(y) = 0 on the ansatz coefficients: one sparse
    row per monomial of the images g(monomial), denominators cleared.  Only
    the monomials involving a coordinate of g have nonzero images.  The
    columns in `zeroed`, whose unit rows lie in the span, are left out:
    that changes each row by a combination of those unit rows."""
    images: Dict[int, Expr] = {}
    for v, e in g.coeffs.items():
        for col in cols_of.get(v, ()):
            if col not in zeroed:
                images[col] = images.get(col, Expr.zero()) + \
                    e * partial(col, v)
    dens = []
    for e in images.values():
        if not pis_one(e.den) and e.den not in dens:
            dens.append(e.den)
    scale = Expr.one()
    for d in dens:
        scale = scale * Expr.make(dict(d), pconst(1))
    rows: Dict[tuple, Dict[int, Fraction]] = {}
    for col, e in images.items():
        if e.is_zero():
            continue
        se = e * scale
        assert pis_one(se.den)
        for mono, coeff in se.num.items():
            rows.setdefault(mono, {})[col] = coeff
    return rows.values()


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
    top level by construction, and the chain Jacobian has full rank mod p
    at one sample point, which proves full rank over Q at that rational
    point, and so full generic rank."""
    try:
        kappa = brunovsky_indices(ps)
    except NotLinearizable:
        return None
    pools = _nullspace_pools(ps, kappa, ansatz_degree)

    def nondegenerate(y: Expr, kap: int) -> bool:
        top = [g for g in g_level_fields(ps, kap - 1) if not g.is_zero()]
        return any(not g.apply(y).is_zero() for g in top)

    # the candidates' gradient rows, kept for this search only
    rows_at: Dict[tuple, Optional[Dict[int, int]]] = {}

    def inserted(ech: PointEchelon, r: VectorField) -> bool:
        # False where r's row is dependent or has a pole at the point
        key = (ps.points.field_id(r), ech.point.index)
        if key not in rows_at:
            rows_at[key] = ps.points.evaluate(r, ech.point)
        return rows_at[key] is not None and ech.insert(rows_at[key])

    def backtrack(idx: int, echs: List[PointEchelon]):
        # echs: the sample points at which the chains chosen so far are
        # independent, with their echelons
        if idx == len(kappa):
            return []
        kap = kappa[idx]
        for cand in pools[kap]:
            if not nondegenerate(cand, kap):
                continue
            # the chain grows while some point keeps it independent
            alive = [ech.copy() for ech in echs]
            for i in range(kap):
                r = _gradient_field(ps, _chain(ps, cand, i + 1)[i])
                alive = [ech for ech in alive if inserted(ech, r)]
                if not alive:
                    break
            rest = backtrack(idx + 1, alive) if alive else None
            if rest is not None:
                return [cand] + rest
        return None

    points = g_filtration(ps, 0).certificate.points
    return backtrack(0, [PointEchelon(pt, FP) for pt in points])


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
    for name, cert in res.certificates:
        if cert.symbolic_rank not in (None, cert.sampled_rank):
            ctx.warnings.append(
                "exact rank of %s (%d) differs from the sampled rank (%d)"
                % (name, cert.symbolic_rank, cert.sampled_rank))
    ps = ctx.ps(tuple(j))
    _, k_star = g_stabilization(ps)
    kappa = brunovsky_indices(ps)
    _audit_bounds(sysdef, j, k_star, kappa, res)
    outputs = search_flat_outputs(ps, ctx.budgets.ansatz_degree)
    out_strings = None
    polys = [f for _, c in res.certificates for f in c.factors]
    if outputs is not None:
        ok, cert = verify_flat_output(ps, outputs)
        if ok:
            out_strings = [render_expr(y) for y in outputs]
            polys.extend(cert["factors"].values())
    locus = _locus(polys)
    _flag_base_point(ctx, res, locus)
    _, perm = j.sorted_permutation()
    if note:
        ctx.warnings.append(note)
    return AnalysisReport(
        verdict="p2_flat", j_min=tuple(j), input_permutation=perm,
        k_star=k_star, kappa=kappa, flat_outputs=out_strings,
        sigma_trace=steps, singular_locus=list(locus), seed=ctx.budgets.seed,
        witness=None, initializations=[r.trace() for r in runs],
        system=sysdef.name, warnings=ctx.warnings)


def _flag_base_point(ctx: Context, res: CnsResult, locus: Dict[str, Poly]):
    """Warn of each singular factor that vanishes at the jet origin of the
    base point, skipping one in a tan-half parameter, which has no value
    there, and of the filtrations whose rank drops there."""
    for s, f in locus.items():
        try:
            vanishes = peval(f, ctx.base_point) == 0
        except KeyError:
            continue
        if vanishes:
            ctx.warnings.append("singular factor %s vanishes at the base point" % s)
    dropped = [name for name, cert in res.certificates
               if cert.base_point_drop]
    if dropped:
        ctx.warnings.append(
            "verdict is generic: rank drops at the base point for " +
            ", ".join(dropped))


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
