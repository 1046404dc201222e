"""Purely prolonged systems and their G / Gamma / Delta filtrations."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import Expr, VarRef
from .jetgeom import (CoordinateSpan, Distribution, JetSpace, MultiIndex,
                      SamplePoints, VectorField, lie_bracket, unit_field)
from .sysdsl import SystemDef


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
    (k < j_i) and input fields g_i = d/du_i^(j_i).  Its distributions
    sample at `points` (a `SamplePoints` of its own by default), and its
    chain links come from `links`, an analysis's `flatness.ChainLinks`, or
    from a chain of its own."""

    def __init__(self, sysdef: SystemDef, j: MultiIndex, seed: int = 0,
                 samples: int = 5, base_point=None,
                 points: Optional[SamplePoints] = None, links=None):
        if len(j) != sysdef.m:
            raise ValueError("prolongation order needs one component per input")
        self.sysdef = sysdef
        self.j = MultiIndex(j)
        self.seed = seed
        self.samples = samples
        self.space = build_space(sysdef, self.j)
        self.base_point = base_point
        self.points = points if points is not None else SamplePoints(seed)
        self.links = links
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
        # y -> y and its first derivatives along g0 (flatness._chain)
        self.chains: Dict[Expr, List[Expr]] = {}
        # chain entry -> its gradient field (flatness._gradient_field)
        self.gradients: Dict[Expr, VectorField] = {}

    # -- memoized adjoint chains

    def ad_u0(self, p: int, r: int) -> VectorField:
        """ad_{g0}^r d/du_p^(0).  By induction on r: for r >= 1 it points
        only in x-directions and its coefficients involve only x and u_q^(s)
        with s <= r - 1, so it has the coefficients it has on X^(cap(j, r)),
        cap(j, r) = min(j, r) per channel, and `links` serves it."""
        if self.links is not None:
            return self.links.link(p, r, self.j).on(self.space)
        chain = self._ad_u0.get(p)
        if chain is None:
            chain = self._ad_u0[p] = [unit_field(self.space,
                                                 self.sysdef.input(p, 0))]
        while len(chain) <= r:
            chain.append(lie_bracket(self.g0, chain[-1]))
        return chain[r]

    def _distribution(self, key, gens, prefix=None) -> Distribution:
        if key not in self._dist_cache:
            self._dist_cache[key] = Distribution(
                self.space, gens, seed=self.seed, samples=self.samples,
                base_point=self.base_point, points=self.points, prefix=prefix)
        return self._dist_cache[key]


def build_prolonged(sysdef: SystemDef, j, seed: int = 0, samples: int = 5,
                    base_point=None, points=None, links=None) -> ProlongedSystem:
    return ProlongedSystem(sysdef, MultiIndex(j), seed=seed, samples=samples,
                           base_point=base_point, points=points, links=links)


# ---------------------------------------------------------------------------
# Filtrations

def g_level_fields(ps: ProlongedSystem, k: int) -> List[VectorField]:
    """New generators at bracket depth k: ad_{g0}^k g_i, i = 1..m, read off
    the chain links.  The drift involves u_i^(s), s >= 1, only in
    u_i^(s) d/du_i^(s-1), so ad_{g0} d/du_i^(s) = -d/du_i^(s-1): level r
    is (-1)^r d/du_i^(j_i - r) for r <= j_i, and (-1)^{j_i} ad_u0(i,
    r - j_i) beyond."""
    while len(ps._g_levels) <= k:
        r = len(ps._g_levels)
        level = []
        for i, ji in enumerate(ps.j, start=1):
            g = unit_field(ps.space, ps.sysdef.input(i, ji - r)) if r <= ji \
                else ps.ad_u0(i, r - ji)
            level.append(-g if min(r, ji) % 2 else g)
        ps._g_levels.append(level)
    return ps._g_levels[k]


def g_filtration(ps: ProlongedSystem, k: int) -> Distribution:
    """G_k = span{ad_{g0}^r g_i : r <= k}: G_{k-1} extended by level k when
    G_{k-1} is cached (see `Distribution`), else built from scratch."""
    gens: List[VectorField] = []
    for r in range(0, k + 1):
        gens.extend(g_level_fields(ps, r))
    return ps._distribution(("G", k), gens, ps._dist_cache.get(("G", k - 1)))


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


def g_stabilization(ps: ProlongedSystem):
    """Ranks of G_0..G_{k_star} and the first k <= n + |j| with rank G_k =
    rank G_{k+1}.  A G_k's sampled rank that reaches min(#generators, dim)
    is its rank, as no sampled rank exceeds the generic rank (see
    `generic_rank`); only the others are certified."""
    cap = ps.sysdef.n + ps.j.total
    ranks: List[int] = []
    for k in range(cap + 1):
        dist = g_filtration(ps, k)
        bound = min(len(dist.generators), ps.space.dim)
        ranks.append(bound if dist.sampled_rank == bound else dist.rank)
        if k and ranks[-1] == ranks[-2]:
            return ranks[:-1], k - 1
    return ranks, cap
