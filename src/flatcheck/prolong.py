"""Purely prolonged systems and their G / Gamma / Delta filtrations."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import Expr, VarRef
from .jetgeom import (CoordinateSpan, Distribution, JetSpace, MultiIndex,
                      VectorField, ad_pow, lie_bracket, unit_field)
from .sysdsl import SystemDef


class PreconditionNotMet(Exception):
    pass


class DomainError(Exception):
    pass


def build_space(sysdef: SystemDef, j: MultiIndex) -> JetSpace:
    coords = [sysdef.state(i) for i in range(1, sysdef.n + 1)]
    for i in range(1, sysdef.m + 1):
        for k in range(0, j[i - 1] + 1):
            coords.append(sysdef.input(i, k))
    return JetSpace(n=sysdef.n, m=sysdef.m, j=j, coords=tuple(coords),
                    params=tuple(sysdef.param_vars()),
                    trig_bases=tuple(sysdef.trig_bases()))


class ProlongedSystem:
    """System prolonged by j: drift g0 = f d/dx + sum u_i^(k+1) d/du_i^(k)
    (k < j_i) and input fields g_i = d/du_i^(j_i)."""

    def __init__(self, sysdef: SystemDef, j: MultiIndex, seed: int = 0,
                 samples: int = 5, base_point=None):
        if len(j) != sysdef.m:
            raise ValueError("prolongation order needs one component per input")
        self.sysdef = sysdef
        self.j = MultiIndex(j)
        self.seed = seed
        self.samples = samples
        self.space = build_space(sysdef, self.j)
        self.base_point = base_point
        coeffs: Dict[VarRef, Expr] = {}
        for i, f_i in enumerate(sysdef.f, start=1):
            coeffs[sysdef.state(i)] = f_i
        for i in range(1, sysdef.m + 1):
            for k in range(0, self.j[i - 1]):
                coeffs[sysdef.input(i, k)] = Expr.var(sysdef.input(i, k + 1))
        self.g0 = VectorField(self.space, coeffs)
        self.gi = [unit_field(self.space, sysdef.input(i, self.j[i - 1]))
                   for i in range(1, sysdef.m + 1)]
        self._ad_u0: Dict[int, List[VectorField]] = {}
        self._g_levels: List[List[VectorField]] = []
        self._dist_cache: Dict[Tuple[str, int], Distribution] = {}

    # -- memoized adjoint chains

    def ad_u0(self, p: int, r: int) -> VectorField:
        """ad_{g0}^r d/du_p^(0)."""
        chain = self._ad_u0.setdefault(p, [unit_field(self.space,
                                                      self.sysdef.input(p, 0))])
        while len(chain) <= r:
            chain.append(lie_bracket(self.g0, chain[-1]))
        return chain[r]

    def ad_top(self, i: int, r: int) -> VectorField:
        """ad_{g0}^r g_i; coincides with +-d/du_i^(j_i - r) for r <= j_i."""
        return ad_pow(self.g0, self.gi[i - 1], r)

    def _distribution(self, key, gens) -> Distribution:
        if key not in self._dist_cache:
            self._dist_cache[key] = Distribution(
                self.space, gens, seed=self.seed, samples=self.samples,
                base_point=self.base_point)
        return self._dist_cache[key]


def build_prolonged(sysdef: SystemDef, j, seed: int = 0, samples: int = 5,
                    base_point=None) -> ProlongedSystem:
    return ProlongedSystem(sysdef, MultiIndex(j), seed=seed, samples=samples,
                           base_point=base_point)


# ---------------------------------------------------------------------------
# Filtrations

def g_level_fields(ps: ProlongedSystem, k: int) -> List[VectorField]:
    """New generators at bracket depth k: ad_{g0}^k g_i, i = 1..m."""
    while len(ps._g_levels) <= k:
        if not ps._g_levels:
            ps._g_levels.append(list(ps.gi))
        else:
            ps._g_levels.append([lie_bracket(ps.g0, v)
                                 for v in ps._g_levels[-1]])
    return ps._g_levels[k]


def g_filtration(ps: ProlongedSystem, k: int) -> Distribution:
    gens: List[VectorField] = []
    for r in range(0, k + 1):
        gens.extend(g_level_fields(ps, r))
    return ps._distribution(("G", k), gens)


def gamma_coordinates(sysdef: SystemDef, j, k: int) -> List[VarRef]:
    """The coordinates u_p^(j_p - l), l <= min(k, j_p - 1), whose fields span
    Gamma_k^(j); by channel p, then by l."""
    return [sysdef.input(p, jp - l) for p, jp in enumerate(j, start=1)
            for l in range(0, min(k, jp - 1) + 1)]


def gamma_filtration(ps: ProlongedSystem, k: int) -> CoordinateSpan:
    """Gamma_k as an exact coordinate span: nothing is sampled or cached."""
    return CoordinateSpan(ps.space, gamma_coordinates(ps.sysdef, ps.j, k))


def delta_generators(ps: ProlongedSystem, k: int) -> List[VectorField]:
    """Canonical order: by channel p, then by bracket depth."""
    gens: List[VectorField] = []
    for p in range(1, ps.sysdef.m + 1):
        jp = ps.j[p - 1]
        for l in range(jp, k + 1):
            gens.append(ps.ad_u0(p, l - jp))
    return gens


def delta_filtration(ps: ProlongedSystem, k: int) -> Distribution:
    return ps._distribution(("Delta", k), delta_generators(ps, k))


def gamma_rank_formula(j: MultiIndex, k: int) -> int:
    return sum(min(k + 1, jp) for jp in j)


def delta_rank_bound(j: MultiIndex, k: int, n: int) -> int:
    active = sum(1 for jp in j if jp <= k)
    gens = sum(max(0, k - jp + 1) for jp in j)
    return min(gens, n + active)


def decomposition_check(ps: ProlongedSystem, k: int) -> bool:
    """G_k = Gamma_k (+) Delta_k generically, with the dimension formulas."""
    g = g_filtration(ps, k)
    gam = gamma_filtration(ps, k)
    dlt = delta_filtration(ps, k)
    if gam.rank != gamma_rank_formula(ps.j, k):
        return False
    if dlt.rank > delta_rank_bound(ps.j, k, ps.sysdef.n):
        return False
    if g.rank != gam.rank + dlt.rank:
        return False
    union = Distribution(ps.space, gam.generators + dlt.generators + g.generators,
                         seed=ps.seed, samples=ps.samples)
    return union.rank == g.rank


def g_stabilization(ps: ProlongedSystem, k_cap: Optional[int] = None):
    """Ranks of G_0..G_{k_star} and the first k with rank G_k = rank G_{k+1}."""
    cap = k_cap if k_cap is not None else ps.sysdef.n + ps.j.total
    ranks = [g_filtration(ps, 0).rank]
    k = 0
    while k < cap:
        nxt = g_filtration(ps, k + 1).rank
        if nxt == ranks[-1]:
            return ranks, k
        ranks.append(nxt)
        k += 1
    return ranks, k


# ---------------------------------------------------------------------------
# The gamma vector recursion of the prolonged drift

def gamma_sequence(sysdef: SystemDef, j, i: int, k: int,
                   ps: Optional[ProlongedSystem] = None) -> List[Expr]:
    """gamma_{k,i}^(j): gamma_1 = (-1)^(j_i+1) df/du_i, then
    gamma_{q+1} = L_{g0^(j)} gamma_q - gamma_q * df/dx."""
    if k < 1:
        raise DomainError("gamma sequence starts at k = 1")
    j = MultiIndex(j)
    if ps is None:
        ps = build_prolonged(sysdef, j)
    u0 = sysdef.input(i, 0)
    sign = Expr.rational(1 if (j[i - 1] + 1) % 2 == 0 else -1)
    gamma = [sign * f_r.diff(u0) for f_r in sysdef.f]
    jac = [[f_r.diff(sysdef.state(s)) for s in range(1, sysdef.n + 1)]
           for f_r in sysdef.f]
    for _ in range(k - 1):
        nxt = []
        for r in range(sysdef.n):
            term = ps.g0.apply(gamma[r])
            for s in range(sysdef.n):
                term = term - gamma[s] * jac[r][s]
            nxt.append(term)
        gamma = nxt
    return gamma


def gamma_field(ps: ProlongedSystem, i: int, k: int) -> VectorField:
    """The vertical field gamma_{k,i} d/dx on the prolonged space."""
    gamma = gamma_sequence(ps.sysdef, ps.j, i, k, ps=ps)
    return VectorField(ps.space, {ps.sysdef.state(r + 1): gamma[r]
                                  for r in range(ps.sysdef.n)})


# ---------------------------------------------------------------------------
# Comparison with the unprolonged brackets (appendix identities)

def lift_field(v: VectorField, space: JetSpace) -> VectorField:
    """Reinterpret a field with coefficients on a smaller jet on a bigger one."""
    return VectorField(space, dict(v.coeffs))


def bracket_comparison_check(sysdef: SystemDef, j, i: int, nu: int,
                             seed: int = 0) -> bool:
    """Exact low-order identity ad^k g_i = (-1)^k d/du_i^(j_i-k) for k <= j_i,
    and, when every G_k^(0) is involutive, membership of
    ad^(j_i+nu) g_i^(j_i) - (-1)^(j_i) ad^nu_{g0^(0)} g_i^(0) in G_(j_i+nu-1)^(0)."""
    j = MultiIndex(j)
    ps = build_prolonged(sysdef, j, seed=seed)
    ji = j[i - 1]
    for k in range(0, ji + 1):
        expect = unit_field(ps.space, sysdef.input(i, ji - k))
        if k % 2 == 1:
            expect = -expect
        if ps.ad_top(i, k) != expect:
            return False
    if nu < 1:
        return True
    ps0 = build_prolonged(sysdef, MultiIndex([0] * sysdef.m), seed=seed)
    ranks, kstar = g_stabilization(ps0)
    for kk in range(0, kstar + 1):
        ok, _ = g_filtration(ps0, kk).is_involutive()
        if not ok:
            raise PreconditionNotMet("G_%d^(0) is not involutive" % kk)
    lhs = ps.ad_top(i, ji + nu)
    rhs = lift_field(ad_pow(ps0.g0, ps0.gi[i - 1], nu), ps.space)
    if ji % 2 == 1:
        rhs = -rhs
    diff = lhs - rhs
    depth = min(ji + nu - 1, kstar)
    lifted = [lift_field(g, ps.space)
              for g in g_filtration(ps0, depth).generators]
    return Distribution(ps.space, lifted, seed=seed).contains(diff)
