"""Purely prolonged systems, their chain links and their filtrations."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import UDERIV, Expr, VarRef
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


def _cap(assign: Tuple[int, ...], cap: int) -> Tuple[int, ...]:
    return tuple([a if a < cap else cap for a in assign])


def _drift(sysdef: SystemDef, terms) -> Dict[VarRef, Expr]:
    """f d/dx + u_q^(t+1) d/du_q^(t) for each (q, t) of `terms`."""
    coeffs = {sysdef.state(i): f_i for i, f_i in enumerate(sysdef.f, start=1)}
    for q, t in terms:
        coeffs[sysdef.input(q, t)] = Expr.var(sysdef.input(q, t + 1))
    return coeffs


class ChainLinks:
    """The chain links ad_{g0}^r d/du_p^(0) of one system, for every
    prolongation, each with an id, with the capped jet spaces they live on.
    It holds no reference to a prolonged system or an analysis, so every
    prolonged system of an analysis may keep it.

    Link r has the id of the bracket of link r - 1 with the drift terms
    u_q^(t+1) d/du_q^(t) of X^(j) at the coordinates u_q^(t) that link
    r - 1's coefficients involve.  This is exact: [g0, L] reads g0 only
    there and at f d/dx, when L points in x-directions or is d/du_p^(0).
    Each link is bracketed once, and links with equal coefficients share an
    id."""

    def __init__(self, sysdef: SystemDef):
        self.sysdef = sysdef
        self._spaces: Dict[Tuple[int, ...], JetSpace] = {}
        # chain links by id, with the (q, t) of the u_q^(t) they involve
        self.fields: List[VectorField] = []
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

    def _link_id(self, link: VectorField) -> int:
        lid = self._link_ids.get(link.key())
        if lid is None:
            lid = self._link_ids[link.key()] = len(self.fields)
            self.fields.append(link)
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
            drift = tuple(qt for qt in self._link_us[lid]
                          if qt[1] < j[qt[0] - 1])
            nxt = self._link_next.get((lid, drift))
            if nxt is None:
                space = self.space(_cap(j, r))
                nxt = self._link_next[lid, drift] = self._link_id(lie_bracket(
                    VectorField(space, _drift(self.sysdef, drift)),
                    self.fields[lid].on(space)))
            out = self._chains[key] = out + (nxt,)
        return out

    def link(self, p: int, r: int, j: Tuple[int, ...]) -> VectorField:
        """ad_{g0}^r d/du_p^(0) on X^(j), on the space it was built on."""
        return self.fields[self.links(p, r, j)[-1]]

    def delta(self, j: Tuple[int, ...], k: int) -> Tuple[int, ...]:
        """The ids of Delta_k^(j)'s generators, zero links included: by channel
        p with j_p <= k, then by depth, ad_{g0}^s d/du_p^(0), s <= k - j_p."""
        return tuple(lid for p, jp in enumerate(j, start=1) if jp <= k
                     for lid in self.links(p, k - jp, j))


class ProlongedSystem:
    """System prolonged by j: drift g0 = f d/dx + sum u_i^(k+1) d/du_i^(k)
    (k < j_i) and input fields g_i = d/du_i^(j_i).  Its distributions
    sample at `points`, and its chain links come from `links`: an
    analysis's `SamplePoints` and `ChainLinks`, or stores of its own."""

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
        self.links = links if links is not None else ChainLinks(sysdef)
        self.g0 = VectorField(self.space, _drift(sysdef, [
            (i, k) for i, ji in enumerate(self.j, start=1)
            for k in range(ji)]))
        self.gi = [unit_field(self.space, sysdef.input(i, self.j[i - 1]))
                   for i in range(1, sysdef.m + 1)]
        self._g_levels: List[List[VectorField]] = []
        self._dist_cache: Dict[Tuple[str, int], Distribution] = {}
        # y -> y and its first derivatives along g0 (flatness._chain)
        self.chains: Dict[Expr, List[Expr]] = {}
        # chain entry -> its gradient field (flatness._gradient_field)
        self.gradients: Dict[Expr, VectorField] = {}

    def ad_u0(self, p: int, r: int) -> VectorField:
        """ad_{g0}^r d/du_p^(0).  By induction on r: for r >= 1 it points
        only in x-directions and its coefficients involve only x and u_q^(s)
        with s <= r - 1, so it has the coefficients it has on X^(cap(j, r)),
        cap(j, r) = min(j, r) per channel, and `links` serves it."""
        return self.links.link(p, r, self.j).on(self.space)

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
    """Canonical order: by channel p, then by depth (`ChainLinks.delta`)."""
    fields = ps.links.fields
    return [fields[lid].on(ps.space) for lid in ps.links.delta(ps.j, k)]


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
