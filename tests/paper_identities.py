"""Oracles for the paper's appendix identities and dimension formulas.

The analyzer never calls these: they restate what the paper proves about
prolonged systems (the adjoint chains of the prolonged input fields, the
gamma vector recursion, the G = Gamma (+) Delta decomposition, the
comparison with the unprolonged brackets) so that the tests can check the
filtrations that `flatcheck` computes against them.  They also hold the
reported sigma values of one step of the recursion, the membership and
involutivity of a coordinate span, the sigma search's former survivor
sweep, which re-checks every earlier k, the former sigma step over every
tuple of the box, the former fraction-free
elimination over Q, which the elimination over Z[x] must agree with,
the former nullspace of a row echelon form by back-substitution, the
former eager flat-output ansatz and search, the former graded-lex
comparator of monomials, and the former base-point
evaluators: a field's row numbered per jet space, and a singular factor
rendered, parsed back through the system DSL and evaluated.
"""

import itertools
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from flatcheck.expr import (UDERIV, Expr, Mono, Poly, VarRef, mono_from,
                            pconst, pdivexact, pmul, psub)
from flatcheck.flatness import (Budgets, Context, Initialization,
                                NotLinearizable, SigmaRun, _ansatz_monomials,
                                _box_limit, _cap, _cmin, _embed,
                                _gradient_field, _smallest,
                                _mono_expr, _normalize_output,
                                brunovsky_indices)
from flatcheck.jetgeom import (FP, CoordinateSpan, Distribution, JetSpace,
                               MultiIndex, PointEchelon, SpaceMismatch,
                               VectorField, ad_pow, _detrig_row,
                               _factor_polys, accumulate_factors,
                               bracket_failures, unit_field)
from flatcheck.prolong import (ProlongedSystem, build_prolonged,
                               delta_filtration, g_filtration, g_level_fields,
                               g_stabilization, gamma_filtration)
from flatcheck.report import SigmaStep
from flatcheck.sysdsl import DslError, SystemDef, _Parser, tokenize


class PreconditionNotMet(Exception):
    pass


class DomainError(Exception):
    pass


class IterationBudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Multi-indices, jet coordinates and vertical fields

def cmin(j: MultiIndex, other) -> MultiIndex:
    """Componentwise minimum with another multi-index or an int bound."""
    if isinstance(other, int):
        other = (other,) * len(j)
    return MultiIndex(min(a, b) for a, b in zip(j, other))


def u_coord(space: JetSpace, i: int, k: int) -> VarRef:
    for v in space.coords[space.n:]:
        if v.kind == UDERIV and v.i == i and v.k == k:
            return v
    raise KeyError("u_%d^(%d) is not a coordinate of this space" % (i, k))


def is_vertical(v: VectorField, depends_at_most: MultiIndex) -> bool:
    """Only d/dx components, coefficients depending at most on x^(bound)."""
    space = v.space
    states = set(space.coords[: space.n])
    for c in v.coeffs:
        if c not in states:
            return False
    allowed = set(states) | set(space.params)
    for i, cap in enumerate(depends_at_most, start=1):
        for k in range(0, cap + 1):
            try:
                allowed.add(u_coord(space, i, k))
            except KeyError:
                break
    for e in v.coeffs.values():
        for b in e.free_base_vars():
            if b not in allowed:
                return False
    return True


def ad_top(ps: ProlongedSystem, i: int, r: int) -> VectorField:
    """ad_{g0}^r g_i; coincides with +-d/du_i^(j_i - r) for r <= j_i."""
    return ad_pow(ps.g0, ps.gi[i - 1], r)


# ---------------------------------------------------------------------------
# Involutive closure

def involutive_closure(dist: Distribution,
                       max_iter: Optional[int] = None) -> Distribution:
    budget = max_iter if max_iter is not None \
        else (dist.space.dim - dist.rank) + 2
    current = dist
    for _ in range(budget + 1):
        probe = current
        # the probe grows during the sweep: each bracket is tested
        # against the span that already holds the failures before it
        for _, _, br in bracket_failures(
                itertools.combinations(current.generators, 2),
                lambda v: probe.contains(v)):
            probe = Distribution(dist.space, probe.generators + [br],
                                 seed=dist.seed, samples=dist.samples)
        if probe is current:
            return current
        current = probe
        if current.rank >= dist.space.dim:
            return current
    raise IterationBudgetExceeded("involutive closure did not stabilize")


# ---------------------------------------------------------------------------
# Dimension formulas and the decomposition G_k = Gamma_k (+) Delta_k

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
        if ad_top(ps, i, k) != expect:
            return False
    if nu < 1:
        return True
    ps0 = build_prolonged(sysdef, MultiIndex([0] * sysdef.m), seed=seed)
    ranks, kstar = g_stabilization(ps0)
    for kk in range(0, kstar + 1):
        ok, _ = g_filtration(ps0, kk).is_involutive()
        if not ok:
            raise PreconditionNotMet("G_%d^(0) is not involutive" % kk)
    lhs = ad_top(ps, i, ji + nu)
    rhs = lift_field(ad_pow(ps0.g0, ps0.gi[i - 1], nu), ps.space)
    if ji % 2 == 1:
        rhs = -rhs
    diff = lhs - rhs
    depth = min(ji + nu - 1, kstar)
    lifted = [lift_field(g, ps.space)
              for g in g_filtration(ps0, depth).generators]
    return Distribution(ps.space, lifted, seed=seed).contains(diff)


# ---------------------------------------------------------------------------
# Coordinate spans: membership and involutivity

def span_contains(span: CoordinateSpan, v: VectorField) -> bool:
    """True iff every component of v lies on a spanning coordinate."""
    if v.is_zero():
        return True
    if v.space != span.space:
        raise SpaceMismatch("field on the wrong jet space")
    return span.coords.issuperset(v.coeffs)


def span_is_involutive(span: CoordinateSpan):
    return True, None        # coordinate fields commute


# ---------------------------------------------------------------------------
# One step of the sigma recursion

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


def box_tuples(width: int, box: int) -> List[Tuple[int, ...]]:
    """Every tuple of the box [1..box]^width, in increasing order."""
    return list(itertools.product(range(1, box + 1), repeat=width))


def block_tuples(corners, k: int, box: int) -> List[Tuple[int, ...]]:
    """The sorted tuples of the box in the blocks with these corners, as
    step k of `SigmaRun` keeps them: l_p = lo_p where lo_p <= k, and
    lo_p <= l_p <= box elsewhere."""
    return sorted(t for lo in corners for t in itertools.product(
        *[(v,) if v <= k else range(v, box + 1) for v in lo]))


def all_k_survivors(run: SigmaRun, box: int,
                    upto_k: int) -> List[Tuple[int, ...]]:
    """The tuples of the box that satisfy both conditions at every step
    1..upto_k, each step re-checked on the run's Context: involutivity at
    the (k+1)-capped tuple, invariance at the tuple itself."""
    ctx, init, m = run.ctx, run.init, run.m

    def both(t, k):
        capped = tuple(min(v, k + 1) for v in t)
        return ctx.delta_involutive(_embed(init, m, capped), k)[0] and \
            ctx.gamma_invariant(_embed(init, m, t), k)[0]

    return [t for t in box_tuples(run.width, box)
            if all(both(t, k) for k in range(1, upto_k + 1))]


def box_sigma_step(self, k: int, box: int):
    """Evaluate both conditions on the box at k, record the SigmaStep and
    return (s_delta, sorted survivors of every step up to k)."""
    tuples = self._tuples(box)
    ok_d = self._satisfying(self.ctx.delta_involutive, k, k + 1)
    ok_g = self._satisfying(self.ctx.gamma_invariant, k, 2 * k)
    s_delta = {t for t in tuples if _cap(t, k + 1) in ok_d}
    s_gamma = {t for t in tuples if _cap(t, 2 * k) in ok_g}
    prior = {t for t in tuples if _cap(t, 2 * k - 2) in self._survivors}
    surv = sorted(prior & s_delta & s_gamma)
    self._survivors = set(surv)
    # reported sigma: literal componentwise min, masked to 0 when the
    # condition eliminates nothing that everything else allows
    lit_d = _cmin(s_delta, self.width)
    lit_g = _cmin(s_gamma, self.width)
    rep_d = (0,) * self.width if (prior & s_gamma) <= s_delta else lit_d
    rep_g = (0,) * self.width if (prior & s_delta) <= s_gamma else lit_g
    witness = None
    if surv:
        w = _smallest(surv)
        witness = {self.ctx.sysdef.input_names[c - 1]: v
                   for c, v in zip(self.channels, w)}
    self.steps.append(SigmaStep(k, rep_d, rep_g, witness, box))
    return s_delta, surv


class BoxSigmaRun(SigmaRun):
    """The sigma recursion with the former step, `box_sigma_step`: each
    condition asked of every capped tuple of the box, and the survivors
    kept as the tuples themselves.  A tuple l survived steps 1..k-1 iff
    cap(l, 2k-2) survived step k-1."""

    def __init__(self, ctx: Context, init: Initialization):
        super().__init__(ctx, init)
        # every tuple survives step 0, and cap(l, 2*1 - 2) is all zeros
        self._survivors: Set[Tuple[int, ...]] = {(0,) * self.width}

    def _tuples(self, box: int) -> List[Tuple[int, ...]]:
        return box_tuples(self.width, box)

    def _satisfying(self, check, k: int, cap: int) -> Set[Tuple[int, ...]]:
        return {c for c in self._tuples(cap)
                if check(_embed(self.init, self.m, c), k)[0]}

    step = box_sigma_step

    def _covers(self, surv, t, k) -> bool:
        return t in surv


# ---------------------------------------------------------------------------
# The former graded-lex comparator (`expr.mono_key` gives the same order)

def mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic order; larger exponent on an earlier variable wins."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        ka, kb = va.sort_key(), vb.sort_key()
        if ka < kb:
            return 1
        if kb < ka:
            return -1
        if ea != eb:
            return 1 if ea > eb else -1
        ia += 1
        ib += 1
    if ia < len(a):
        return 1
    if ib < len(b):
        return -1
    return 0


# ---------------------------------------------------------------------------
# The fraction-free elimination over Q

def _without_squares(p: Poly) -> Poly:
    """p over the largest power of 1 + t^2 dividing it, for each tan-half
    parameter t (named tanhalf_<base>)."""
    for t in {v for m in p for v, _ in m if v.name.startswith("tanhalf_")}:
        square = {(): Fraction(1), ((t, 2),): Fraction(1)}
        while True:
            try:
                p = pdivexact(p, square)
            except ArithmeticError:
                break
    return p


def q_symbolic_rank(fields: List[VectorField], space: JetSpace):
    """Fraction-free (Bareiss) elimination over the polynomial ring.

    Returns (rank, factor polys): pivots and cleared row denominators,
    normalized; no power of 1 + t^2, t a tan-half parameter, is reported."""
    one = pconst(1)
    factors: List[Poly] = []
    rows: List[List[Poly]] = []
    for f in fields:
        entries = [f.coeff(c) for c in space.coords]
        dens = [e.den for e in entries]
        scaled = []
        for i, e in enumerate(entries):
            p = dict(e.num)
            for jj, d in enumerate(dens):
                if jj != i and d != one:
                    p = pmul(p, d)
            scaled.append(p)
        for d in dens:
            if d != one:
                accumulate_factors(factors, _factor_polys(d))
        rows.append(_detrig_row(scaled, space.trig_bases))
    rank = 0
    prev: Poly = pconst(1)
    nrows = len(rows)
    for col in range(space.dim):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        accumulate_factors(factors, _factor_polys(_without_squares(pivot)))
        for r in range(rank + 1, nrows):
            rc = rows[r][col]
            for c in range(col + 1, space.dim):
                num = psub(pmul(pivot, rows[r][c]), pmul(rc, rows[rank][c]))
                rows[r][c] = pdivexact(num, prev) if num else {}
            rows[r][col] = {}
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, factors


# ---------------------------------------------------------------------------
# The former base-point evaluators

def eval_row(field: VectorField, point) -> dict:
    """The sparse row {column: coefficient} of `field` at a rational
    `point`, its columns numbered per jet space, nonzero entries only."""
    row = {}
    for v, e in field.coeffs.items():
        a = e.eval_at(point)
        if a:
            row[field.space.col(v)] = a
    return row


def dsl_factor_value(sysdef: SystemDef, s: str, point) -> Optional[Fraction]:
    """The rendered singular factor `s` parsed back through the system DSL
    and evaluated at `point`; None where it does not parse, as for a factor
    in a tan-half parameter, which no declaration names."""
    try:
        e = _Parser(tokenize(s + "\n"), sysdef).expr()
    except DslError:
        return None
    return e.eval_at(point)


# ---------------------------------------------------------------------------
# The nullspace by back-substitution

def back_substituted_nullspace(rows, ncols: int, field) -> List[List]:
    """The nullspace basis of sparse rows over `field`, one dense vector per
    free column in column order: forward elimination to a row echelon form
    whose rows are not cleared above their pivots, then back-substitution
    from the last pivot up to the reduced form."""
    echelon: List[Tuple[int, dict]] = []
    for row in rows:
        row = dict(row)
        for pc, prow in echelon:
            f = row.get(pc)
            if f:
                field.axpy(row, f, prow)
        if row:
            pc = min(row)
            echelon.append((pc, field.monic(row, pc)))
            echelon.sort(key=lambda pr: pr[0])
    reduced: List[Tuple[int, dict]] = []
    for pc, row in reversed(echelon):
        row = dict(row)
        for qc, qrow in reduced:
            f = row.get(qc)
            if f:
                field.axpy(row, f, qrow)
        reduced.append((pc, row))
    pivots = {pc for pc, _ in reduced}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for pc, row in reduced:
            a = row.get(fc)
            if a:
                vec[pc] = field.neg(a)
        basis.append(vec)
    return basis


def eager_nullspace_pools(ps: ProlongedSystem, kappas, degree: int):
    """The flat-output ansatz's former pools: every coordinate's monomials,
    each monomial differentiated in all its variables, each G level's
    conditions from the images of all monomials, and every pool's outputs
    built at once.  The search's pools must equal these wherever distinct
    monomials have independent partials (degree 2, or no trig bases)."""
    monos = _ansatz_monomials(ps, degree)
    partials = [{v: me.diff(v) for v in me.free_base_vars()}
                for me in map(_mono_expr, monos)]
    ech = PointEchelon()
    pools = {}
    level = 0
    for kap in sorted(set(kappas)):
        while level < kap - 1:
            for g in g_level_fields(ps, level):
                if not g.is_zero():
                    for row in _eager_conditions(g, partials):
                        ech.insert(row)
            level += 1
        pools[kap] = []
        for vec in ech.nullspace(len(monos)):
            poly = {}
            for col, c in enumerate(vec):
                if c:
                    key = mono_from([(v, 1) for v in monos[col]])
                    poly[key] = poly.get(key, Fraction(0)) + c
            if poly:
                pools[kap].append(
                    _normalize_output(Expr.make(poly, pconst(1))))
    return pools


def _eager_conditions(g: VectorField, partials):
    images = []
    for derivs in partials:
        image = Expr.zero()
        for v, e in g.coeffs.items():
            d = derivs.get(v)
            if d is not None:
                image = image + e * d
        images.append(image)
    dens = []
    for e in images:
        if e.den != pconst(1) and e.den not in dens:
            dens.append(e.den)
    scale = Expr.one()
    for d in dens:
        scale = scale * Expr.make(dict(d), pconst(1))
    rows = {}
    for col, e in enumerate(images):
        if e.is_zero():
            continue
        se = e * scale
        assert se.den == pconst(1)
        for mono, coeff in se.num.items():
            rows.setdefault(mono, {})[col] = coeff
    return rows.values()


def eager_search_flat_outputs(ps: ProlongedSystem, degree: int = 2):
    """The former flat-output search: eager pools, and each candidate's whole
    chain derived (with no cache) and its rows inserted at once."""
    try:
        kappa = brunovsky_indices(ps)
    except NotLinearizable:
        return None
    pools = eager_nullspace_pools(ps, kappa, degree)

    def chain(y, length):
        out = [y]
        for _ in range(length - 1):
            out.append(ps.g0.apply(out[-1]))
        return out

    def nondegenerate(y, kap):
        top = [g for g in g_level_fields(ps, kap - 1) if not g.is_zero()]
        return any(not g.apply(y).is_zero() for g in top)

    def grown(ech, rows):
        out = ech.copy()
        for r in rows:
            row = ps.points.evaluate(r, out.point)
            if row is None or not out.insert(row):
                return None
        return out

    def backtrack(idx, echs):
        if idx == len(kappa):
            return []
        kap = kappa[idx]
        for cand in pools[kap]:
            if not nondegenerate(cand, kap):
                continue
            rows = [_gradient_field(ps, phi) for phi in chain(cand, kap)]
            alive = [e for e in (grown(ech, rows) for ech in echs)
                     if e is not None]
            rest = backtrack(idx + 1, alive) if alive else None
            if rest is not None:
                return [cand] + rest
        return None

    points = g_filtration(ps, 0).certificate.points
    return backtrack(0, [PointEchelon(pt, FP) for pt in points])
