"""Vector fields on prolonged jet spaces: Lie brackets, distributions,
generic rank with exact certificates, and involutivity."""

from __future__ import annotations

import bisect
import heapq
import itertools
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .expr import (PARAM, SIN, TANHALF_PREFIX, Expr, JetOrigin, Poly, VarRef,
                   cos_var, mono_div, pdivexact, pis_one, pleading,
                   pmonomial_content, pmul, primitive_scale, pscale, pvar,
                   param_var, qdiv, render_expr, sin_var, DenominatorVanishes,
                   MONO_ONE)


class GeometryError(Exception):
    pass


class SpaceMismatch(GeometryError):
    pass


class SamplingExhausted(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Multi-indices

class MultiIndex(tuple):
    """Componentwise-ordered prolongation multi-index j = (j_1, ..., j_m)."""

    def __new__(cls, items: Iterable[int]):
        vals = tuple(int(v) for v in items)
        if any(v < 0 for v in vals):
            raise ValueError("multi-index components must be nonnegative")
        return super().__new__(cls, vals)

    @property
    def total(self) -> int:
        return sum(self)

    def sorted_permutation(self) -> Tuple["MultiIndex", Tuple[int, ...]]:
        """(sorted copy, perm) with perm[p] = original 0-based channel at sorted
        position p; stable on ties."""
        order = sorted(range(len(self)), key=lambda i: (self[i], i))
        return MultiIndex(self[i] for i in order), tuple(order)


# ---------------------------------------------------------------------------
# Jet spaces

@dataclass(frozen=True)
class JetSpace:
    """X^(j): states x_1..x_n then u_i^(0..j_i) per input channel."""

    n: int
    m: int
    j: MultiIndex
    coords: Tuple[VarRef, ...]
    params: Tuple[VarRef, ...] = ()
    trig_bases: Tuple[VarRef, ...] = ()
    _cols: Dict[VarRef, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_cols",
                           {v: c for c, v in enumerate(self.coords)})

    @property
    def dim(self) -> int:
        return len(self.coords)

    def col(self, v: VarRef) -> int:
        return self._cols[v]

    def __contains__(self, v: VarRef) -> bool:
        return v in self._cols

    def sample_point(self, rng: random.Random) -> Dict[VarRef, int]:
        """Random point of F_p, p = FP.p: each value is the image of a
        rational num/den, -20 <= num <= 20, 1 <= den <= 7; params nonzero;
        trig pairs via tan-half, sin = 2t/(1+t^2), cos = (1-t^2)/(1+t^2),
        whose denominator is never 0 mod p, as p = 3 mod 4 makes -1 a
        non-square."""
        p, inv = FP.p, _SMALL_INV
        randint = rng.randint
        pt: Dict[VarRef, int] = {}
        for v in self.coords:
            pt[v] = randint(-20, 20) * inv[randint(1, 7)] % p
        for v in self.params:
            num = 0
            while num == 0:
                num = randint(-20, 20)
            pt[v] = num * inv[randint(1, 7)] % p
        for b in self.trig_bases:
            t = randint(-20, 20) * inv[randint(1, 7)] % p
            t2 = t * t % p
            den = pow(1 + t2, -1, p)
            pt[b] = t
            pt[sin_var(b)] = 2 * t * den % p
            pt[cos_var(b)] = (1 - t2) * den % p
        return pt


# ---------------------------------------------------------------------------
# Vector fields

class VectorField:
    """Sparse coordinate-indexed field sum_c coeff_c * d/dc on a jet space."""

    __slots__ = ("space", "coeffs", "_key", "_vars", "_fid")

    def __init__(self, space: JetSpace, coeffs: Dict[VarRef, Expr]):
        self.space = space
        self.coeffs = {v: e for v, e in coeffs.items() if not e.is_zero()}
        self._key = self._vars = self._fid = None

    def key(self):
        # (coordinate, Expr) pairs: an Expr caches its hash, so the key of a
        # field hashes cheaply wherever it is looked up
        if self._key is None:
            items = sorted(self.coeffs.items(), key=lambda p: p[0].sort_key())
            self._key = tuple(items)
        return self._key

    def variables(self) -> frozenset:
        """The variables of the coefficients, trig atoms by their bases."""
        if self._vars is None:
            self._vars = frozenset().union(
                *(e.free_base_vars() for e in self.coeffs.values()))
        return self._vars

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, v: VarRef) -> Expr:
        return self.coeffs.get(v, Expr.zero())

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.space == other.space \
            and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_space(self, other)
        out = dict(self.coeffs)
        for v, e in other.coeffs.items():
            out[v] = out.get(v, Expr.zero()) + e
        return VectorField(self.space, out)

    def __neg__(self) -> "VectorField":
        return VectorField(self.space, {v: -e for v, e in self.coeffs.items()})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, s: Expr) -> "VectorField":
        return VectorField(self.space, {v: s * e for v, e in self.coeffs.items()})

    def apply(self, phi: Expr) -> Expr:
        """Lie derivative of a scalar along this field."""
        out = Expr.zero()
        touched = phi.free_base_vars()
        for v, e in self.coeffs.items():
            if v in touched:
                out = out + e * phi.diff(v)
        return out

    def on(self, space: JetSpace) -> "VectorField":
        """The field with these coefficients on `space`, which must have
        every coordinate they involve."""
        out = VectorField(space, {})
        out.coeffs, out._key, out._vars, out._fid = self.coeffs, self.key(), \
            self.variables(), self._fid
        return out

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for v in sorted(self.coeffs, key=lambda w: self.space.col(w)):
            e = self.coeffs[v]
            if e.is_one():
                parts.append("d/d%s" % v)
            elif (-e).is_one():
                parts.append("-d/d%s" % v)
            else:
                s = render_expr(e)
                if " " in s:
                    s = "(%s)" % s
                parts.append("%s*d/d%s" % (s, v))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "VectorField(%s)" % self.render()


def _same_space(a: VectorField, b: VectorField):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatch("vector fields live on different jet spaces")


def unit_field(space: JetSpace, v: VarRef) -> VectorField:
    return VectorField(space, {v: Expr.one()})


def brackets_to_zero(v: VectorField, w: VectorField) -> bool:
    """True when neither field has a coordinate among the other's
    coefficient variables: then every term of `lie_bracket` is absent and
    [v, w] = 0.  (False does not say the bracket is nonzero.)"""
    return v.coeffs.keys().isdisjoint(w.variables()) and \
        w.coeffs.keys().isdisjoint(v.variables())


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]_i = sum_j (v_j dw_i/dxi_j - w_j dv_i/dxi_j)."""
    _same_space(v, w)
    out: Dict[VarRef, Expr] = {}
    for j, vj in v.coeffs.items():
        for i, wi in w.coeffs.items():
            if j in wi.free_base_vars():
                out[i] = out.get(i, Expr.zero()) + vj * wi.diff(j)
    for j, wj in w.coeffs.items():
        for i, vi in v.coeffs.items():
            if j in vi.free_base_vars():
                out[i] = out.get(i, Expr.zero()) - wj * vi.diff(j)
    return VectorField(v.space, out)


def ad_pow(v: VectorField, w: VectorField, k: int) -> VectorField:
    """Iterated adjoint ad_v^k w, ad^0 = w."""
    if k < 0:
        raise ValueError("adjoint power must be nonnegative")
    out = w
    for _ in range(k):
        out = lie_bracket(v, out)
    return out


# ---------------------------------------------------------------------------
# Rank machinery

class RationalField:
    """Q, exactly: int or Fraction entries (`qdiv`), points of such."""

    zero, one = 0, 1

    @staticmethod
    def neg(a: Fraction) -> Fraction:
        return -a

    @staticmethod
    def monic(row: Dict, pc: int) -> Dict:
        p = row[pc]
        return {c: qdiv(a, p) for c, a in row.items()}

    @staticmethod
    def axpy(row: Dict, f, prow: Dict):
        """row -= f * prow in place, at prow's nonzero entries only."""
        for c, b in prow.items():
            a = row.get(c, 0) - f * b
            if a:
                row[c] = a
            else:
                del row[c]


class PrimeField:
    """F_p for a prime p: int entries in [0, p), points of such ints.  The
    image of a rational point is exact wherever no denominator is divisible
    by p, and there rank mod p never exceeds rank over Q."""

    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def neg(self, a: int) -> int:
        return -a % self.p

    def monic(self, row: Dict, pc: int) -> Dict:
        p = self.p
        s = pow(row[pc], -1, p)
        return {c: a * s % p for c, a in row.items()}

    def axpy(self, row: Dict, f, prow: Dict):
        """row -= f * prow in place, at prow's nonzero entries only."""
        p = self.p
        for c, b in prow.items():
            a = (row.get(c, 0) - f * b) % p
            if a:
                row[c] = a
            else:
                del row[c]


QQ = RationalField()
# the sampled pass: a Mersenne prime keeps every entry a machine-size int
FP = PrimeField(2 ** 61 - 1)
# 1/d mod p for the sample denominators d = 1..7
_SMALL_INV = [0] + [pow(d, -1, FP.p) for d in range(1, 8)]
# fraction-free elimination runs by default on jet spaces up to this dim
SYMBOLIC_MAX_DIM = 12


class _SharedPoint(dict):
    """Point `index` of a `SamplePoints`: a variable's value mod p is drawn
    on its first read from (seed, index, variable), with the draws and the
    trig pairs of `JetSpace.sample_point`."""

    __slots__ = ("seed", "index")

    def __init__(self, seed: int, index: int):
        super().__init__()
        self.seed, self.index = seed, index

    def __missing__(self, v: VarRef) -> int:
        p = FP.p
        if v.is_trig():
            t = self[v.base]
            t2 = t * t % p
            den = pow(1 + t2, -1, p)
            val = (2 * t if v.trig == SIN else 1 - t2) * den % p
        else:
            tag = ("%d|%r" % (self.index, v.skey)).encode()
            rng = random.Random((self.seed & 0xFFFFFFFF) * 0x10001
                                + zlib.crc32(tag))
            num = rng.randint(-20, 20)
            while num == 0 and v.kind == PARAM:
                num = rng.randint(-20, 20)
            val = num * _SMALL_INV[rng.randint(1, 7)] % p
        self[v] = val
        return val

    def value(self, e: Expr) -> int:
        """e's value mod p here; DenominatorVanishes at a pole of e."""
        return e.eval_mod(self, FP.p)


class SamplePoints:
    """The sample points of one analysis, shared by the distributions that
    take them.  Point i gives each variable the value drawn from (seed, i,
    variable), so one point restricts to every jet space; the row of a field
    at a point is computed once, over columns numbered per variable on first
    sight, which the Q rows at a `JetOrigin` share.  It refers to no
    distribution, so sharing it makes no cycle."""

    def __init__(self, seed: int):
        self.seed = seed
        self._points: List[_SharedPoint] = []
        self._cols: Dict[VarRef, int] = {}
        # field key -> field id
        self._ids: Dict[tuple, int] = {}
        # (field id, point index) -> row, or None at a pole of the field
        self._rows: Dict[tuple, Optional[Dict[int, int]]] = {}

    def field_id(self, v: VectorField) -> int:
        """A small int per distinct field key, assigned on first sight and
        kept on the field, so fields with equal coefficients share rows and
        a cached field's rows are found without comparing Exprs."""
        fid = v._fid
        if fid is None or fid[0] is not self:
            ids = self._ids
            fid = v._fid = (self, ids.setdefault(v.key(), len(ids)))
        return fid[1]

    def point(self, i: int) -> _SharedPoint:
        while len(self._points) <= i:
            self._points.append(_SharedPoint(self.seed, len(self._points)))
        return self._points[i]

    def evaluate(self, v: VectorField, point) -> Optional[Dict]:
        """The sparse row of v at `point`, over F_p at one of these points
        and over Q at a `JetOrigin`, or None at a pole of v; not cached."""
        cols, value, row = self._cols, point.value, {}
        try:
            for c, e in v.coeffs.items():
                a = value(e)
                if a:
                    row[cols.setdefault(c, len(cols))] = a
        except DenominatorVanishes:
            return None
        return row

    def row(self, v: VectorField, point: _SharedPoint) -> Dict[int, int]:
        """The sparse row of v at `point` over F_p, cached for the life of
        these points; DenominatorVanishes at a pole of v."""
        key = (self.field_id(v), point.index)
        row = self._rows.get(key, False)
        if row is False:
            row = self._rows[key] = self.evaluate(v, point)
        if row is None:
            raise DenominatorVanishes(point)
        return row

    def echelons(self, fields: Sequence[VectorField],
                 samples: int) -> List[PointEchelon]:
        """The F_p echelons of the fields' rows at the first `samples` points
        where none of them has a pole, drawing at most 60 points for each."""
        out: List[PointEchelon] = []
        points = map(self.point, itertools.count())
        for _ in range(samples):
            for _attempt, pt in zip(range(60), points):
                try:
                    rows = [self.row(f, pt) for f in fields]
                except DenominatorVanishes:
                    continue
                out.append(PointEchelon.of(rows, pt, FP))
                break
            else:
                raise SamplingExhausted("could not sample a denominator-avoiding point")
        return out

    def extend(self, echelons: Sequence[PointEchelon],
               fields: Sequence[VectorField]) -> Optional[List[PointEchelon]]:
        """Copies of `echelons`, taken at these points, with the fields'
        rows inserted in order; None if a field has a pole at one of their
        points."""
        out = []
        for ech in echelons:
            ech = ech.copy()
            try:
                for f in fields:
                    ech.insert(self.row(f, ech.point))
            except DenominatorVanishes:
                return None
            out.append(ech)
        return out


def fraction_rank(rows: List[Dict[int, Fraction]]) -> int:
    return PointEchelon.of(rows).rank


class PointEchelon:
    """Incremental reduced row echelon form over `field` (Q by default) of
    sparse rows {column: nonzero entry}, pivots scaled to one and cleared
    from every other row: the rank machinery of sampled rank and membership
    probes at one sample point (over F_p), and of exact nullspaces (over Q).
    The stored rows depend only on the span, not on the insertion order.
    A stored row is replaced, never mutated, so copies share them."""

    def __init__(self, point: Optional[dict] = None, field=QQ):
        self.point = point
        self.field = field
        self.rows: List[Tuple[int, Dict]] = []   # (pivot col, row), by pivot

    @classmethod
    def of(cls, rows: Iterable[Dict], point: Optional[dict] = None,
           field=QQ) -> "PointEchelon":
        ech = cls(point, field)
        for row in rows:
            ech.insert(row)
        return ech

    def copy(self) -> "PointEchelon":
        out = PointEchelon(self.point, self.field)
        out.rows = list(self.rows)
        return out

    def residual(self, row: Dict) -> Optional[Dict]:
        """`row` reduced at every pivot column, or None if that is zero."""
        axpy = self.field.axpy
        owned = False
        for pc, prow in self.rows:
            f = row.get(pc)
            if f:
                if not owned:
                    row, owned = dict(row), True
                axpy(row, f, prow)
        return row or None

    def insert(self, row: Dict) -> bool:
        res = self.residual(row)
        if res is None:
            return False
        pc = min(res)
        if res[pc] != 1:
            res = self.field.monic(res, pc)
        # only a row with a smaller pivot can have an entry at pc
        at = bisect.bisect(self.rows, (pc,))
        for i, (qc, qrow) in enumerate(self.rows[:at]):
            if pc in qrow:
                qrow = dict(qrow)
                self.field.axpy(qrow, qrow[pc], res)
                self.rows[i] = (qc, qrow)
        self.rows.insert(at, (pc, res))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def nullspace(self, ncols: int) -> List[List]:
        """Nullspace basis read off the reduced row echelon form, one dense
        vector per free column in column order."""
        field = self.field
        pivots = {pc for pc, _ in self.rows}
        basis = []
        for fc in range(ncols):
            if fc in pivots:
                continue
            vec = [field.zero] * ncols
            vec[fc] = field.one
            for pc, row in self.rows:
                a = row.get(fc)
                if a:
                    vec[pc] = field.neg(a)
            basis.append(vec)
        return basis


def _factor_polys(p: Poly) -> List[Poly]:
    """Monomial factors plus the sign/content-normalized residual factor."""
    out: List[Poly] = []
    if not p or set(p) == {MONO_ONE}:
        return out
    mono = pmonomial_content(p)
    for v, _ in mono:
        out.append(pvar(v))
    if mono:
        p = {_mono_quot(m, mono): c for m, c in p.items()}
    if not p or set(p) == {MONO_ONE}:
        return out
    out.append(_int_primitive(p))
    return out


def _mono_quot(m, mono):
    q = mono_div(m, mono)
    return q if q is not None else m


def _int_primitive(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    scale = primitive_scale(p.values())
    _, lc = pleading(p)
    return pscale(p, -scale if lc < 0 else scale)


def accumulate_factors(acc: List[Poly], candidates: List[Poly]):
    """Collect factors, collapsing powers/products of ones already present."""
    for cand in candidates:
        if len(cand) == 1:      # monomial factor: single variable, keep as is
            if cand not in acc:
                acc.append(cand)
            continue
        rest = cand
        changed = True
        while changed and len(rest) > 1:
            changed = False
            for known in acc:
                if len(known) <= 1:
                    continue
                try:
                    q = pdivexact(rest, known)
                except ArithmeticError:
                    continue
                rest = _int_primitive(q) if len(q) > 1 or set(q) != {MONO_ONE} \
                    else q
                changed = True
                if not rest or set(rest) == {MONO_ONE}:
                    break
        if rest and set(rest) != {MONO_ONE} and rest not in acc:
            acc.append(_int_primitive(rest))


@dataclass
class RankCertificate:
    rank: int
    sampled_rank: int
    symbolic_rank: Optional[int]
    # the sample points, mod p, and the F_p echelon of the generator rows
    # at each of them, in order
    points: List[Dict[VarRef, int]]
    echelons: List[PointEchelon]
    factors: List[Poly] = field(default_factory=list)
    base_point_rank: Optional[int] = None
    base_point_drop: bool = False
    # the symbolic pass's steps, which certified membership replays
    elimination: Optional["Elimination"] = None


def _tanhalf_var(base: VarRef) -> VarRef:
    return param_var(TANHALF_PREFIX + (base.label or "v"))


def _detrig_row(row: List[Poly], bases: Sequence[VarRef]) -> List[Poly]:
    """Substitute the tan-half parametrization sin = 2t/(1+t^2),
    cos = (1-t^2)/(1+t^2) into every entry of a row, and clear the
    denominators with the row's largest power of (1+t^2) per trig base.

    Every entry, a trig-free one too, is scaled by the same everywhere
    positive factor, so the row spans the same line and ranks are kept."""
    for b in bases:
        sv, cv = sin_var(b), cos_var(b)
        deg = max((sum(e for v, e in m if v in (sv, cv)) for p in row
                   for m in p), default=0)
        if not deg:
            continue
        t = _tanhalf_var(b)
        two_t = {((t, 1),): 2}
        one_m_t2 = {MONO_ONE: 1, ((t, 2),): -1}
        one_p_t2 = {MONO_ONE: 1, ((t, 2),): 1}
        new_row = []
        for p in row:
            new: Poly = {}
            for m, c in p.items():
                exps = dict(m)
                a, b_ = exps.get(sv, 0), exps.get(cv, 0)
                term = {tuple(ve for ve in m if ve[0] not in (sv, cv)): c}
                for factor, power in ((two_t, a), (one_m_t2, b_),
                                      (one_p_t2, deg - a - b_)):
                    for _ in range(power):
                        term = pmul(term, factor)
                for mm, cc in term.items():
                    val = new.get(mm, 0) + cc
                    if val:
                        new[mm] = val
                    else:
                        new.pop(mm, None)
            new_row.append(new)
        row = new_row
    return row


# ---------------------------------------------------------------------------
# Exact elimination over Z[x]: integer polynomials {packed monomial: int}

ZPoly = Dict[int, int]


class _Packing:
    """Monomials over `variables` (sorted by `sort_key`) packed into one int,
    `width` bits per field: the total degree in the top field, then each
    variable's exponent, the first variable highest.  Int order is then
    `mono_cmp`'s graded lex, so `max` gives the leading term.  The top bit of
    every field is a guard bit: exponents up to `cap` = 2^(width-1) - 1 add
    without carry, so a product's key is a + b, and b divides a iff
    ((a | guard) - b) & guard == guard."""

    def __init__(self, variables: Iterable[VarRef], degree: int):
        """A packing of the monomials in `variables` of total degree at most
        `degree`."""
        self.variables = tuple(sorted(variables, key=VarRef.sort_key))
        for v in self.variables:
            if v.is_trig():
                raise GeometryError("trig atom %s left after the tan-half "
                                    "substitution" % v)
        self.width = w = degree.bit_length() + 1
        self.cap = (1 << (w - 1)) - 1
        n = len(self.variables)
        self._shifts = {v: (n - 1 - i) * w
                        for i, v in enumerate(self.variables)}
        self._top = n * w
        self.guard = sum(1 << (i * w + w - 1) for i in range(n + 1))

    def covers(self, variables: Iterable[VarRef], degree: int) -> bool:
        return degree <= self.cap and all(v in self._shifts for v in variables)

    def pack(self, m) -> int:
        shifts = self._shifts
        key = sum(e for _, e in m) << self._top
        for v, e in m:
            key |= e << shifts[v]
        return key

    def unpack(self, key: int):
        mask = (1 << self.width) - 1
        shifts = self._shifts
        return tuple((v, e) for v in self.variables
                     if (e := key >> shifts[v] & mask))

    def row(self, row: List[Dict]) -> List[ZPoly]:
        """A row of {Mono: int} entries, packed."""
        pack = self.pack
        return [{pack(m): c for m, c in p.items()} if p else p for p in row]

    def poly(self, p: ZPoly) -> Poly:
        return {self.unpack(k): c for k, c in p.items()}

    def repack(self, p: ZPoly, old: "_Packing") -> ZPoly:
        return {self.pack(old.unpack(k)): c for k, c in p.items()}


def _zmul(a: ZPoly, b: ZPoly) -> ZPoly:
    out: ZPoly = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            k = ma + mb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _zcross(a: ZPoly, x: ZPoly, b: ZPoly, y: ZPoly) -> ZPoly:
    """a*x - b*y."""
    out: ZPoly = {}
    get = out.get
    for ma, ca in a.items():
        for mx, cx in x.items():
            k = ma + mx
            out[k] = get(k, 0) + ca * cx
    for mb, cb in b.items():
        for my, cy in y.items():
            k = mb + my
            out[k] = get(k, 0) - cb * cy
    return {k: c for k, c in out.items() if c}


def _zdiv(a: ZPoly, b: ZPoly, guard: int) -> ZPoly:
    """a / b in Z[x]; ArithmeticError unless b divides a exactly.  The
    remainder's monomials sit in a max-heap (Monagan & Pearce 2007): each
    step takes the leading one, and the terms it adds are smaller, so no
    monomial is taken twice."""
    if len(b) == 1:
        (lm, lc), = b.items()
        out: ZPoly = {}
        for m, c in a.items():
            q, r = divmod(c, lc)
            if r or ((m | guard) - lm) & guard != guard:
                raise ArithmeticError("inexact polynomial division")
            out[m - lm] = q
        return out
    lm = max(b)
    lc = b[lm]
    tail = [(m, c) for m, c in b.items() if m != lm]
    rem = dict(a)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heapq.heappop(heap)
        c = rem.pop(m)
        if not c:
            continue
        q, r = divmod(c, lc)
        if r or ((m | guard) - lm) & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        qm = m - lm
        out[qm] = q
        for bm, bc in tail:
            k = qm + bm
            if k in rem:
                rem[k] -= q * bc
            else:
                rem[k] = -q * bc
                heapq.heappush(heap, -k)
    return out


def _bareiss_step(row: List[ZPoly], col: int, prow: List[ZPoly],
                  prev: Optional[ZPoly], guard: int):
    """One fraction-free step on `row`, in place: row[c] becomes
    (pivot * row[c] - row[col] * prow[c]) / prev for c > col, pivot =
    prow[col], and row[col] becomes zero.  Each new entry is a minor, so
    the division is exact; at the first step prev is 1, passed as None."""
    pivot, rc = prow[col], row[col]
    for c in range(col + 1, len(row)):
        x, y = row[c], prow[c]
        if rc and y:
            num = _zcross(pivot, x, rc, y)
        elif x:
            num = _zmul(pivot, x)
        else:
            continue
        row[c] = _zdiv(num, prev, guard) if prev else num
    row[col] = {}


def _integer_row(f: VectorField, space: JetSpace):
    """(row, denominators): f's entries over `space.coords`, each scaled by
    the other entries' non-unit denominators and tan-half cleared, then the
    row times the lcm of its coefficient denominators, as {Mono: int}; the
    denominators in column order."""
    col = space.col
    entries = sorted(((col(v), e) for v, e in f.coeffs.items()),
                     key=lambda p: p[0])
    dens = [(c, e.den) for c, e in entries if not pis_one(e.den)]
    scaled = []
    for c, e in entries:
        p = e.num
        for cd, d in dens:
            if cd != c:
                p = pmul(p, d)
        scaled.append(p)
    scaled = _detrig_row(scaled, space.trig_bases)
    lcm = 1
    for p in scaled:
        for q in p.values():
            lcm = lcm * q.denominator // gcd(lcm, q.denominator)
    row: List[dict] = [{} for _ in space.coords]
    for (c, _), p in zip(entries, scaled):
        row[c] = {m: q.numerator * (lcm // q.denominator)
                  for m, q in p.items()}
    return row, [d for _, d in dens]


def _row_shape(row) -> Tuple[set, int]:
    """The variables of a {Mono: int} row and its degree."""
    variables, degree = set(), 0
    for p in row:
        for m in p:
            degree = max(degree, sum(e for _, e in m))
            variables.update(v for v, _ in m)
    return variables, degree


class Elimination(tuple):
    """`symbolic_rank`'s answer, the pair (rank, factors), which also keeps
    each step of its elimination: the pivot column, the pivot row and the
    previous pivot.  A pivot row is never changed once chosen, so `contains`
    replays a probe's row through the steps; by Sylvester's identity its
    entries are then the minors that eliminating the generators plus the
    probe would compute, and the answer is that elimination's."""

    def __new__(cls, rank: int, factors: List[Poly], space: JetSpace,
                steps: list, packing: _Packing, degree: int):
        self = super().__new__(cls, (rank, factors))
        self.space, self.steps, self.packing = space, steps, packing
        # the sum of the generator rows' degrees
        self.degree = degree
        return self

    def contains(self, v: VectorField) -> bool:
        """True iff v's row is in the row span of the generators.  The
        steps are first repacked if v's row has a variable or a degree that
        their packing does not hold."""
        row, _ = _integer_row(v, self.space)
        variables, degree = _row_shape(row)
        # each replayed entry is a minor with v's row, its numerator a
        # product of two of them
        bound = 2 * (self.degree + degree)
        if not self.packing.covers(variables, bound):
            old = self.packing
            self.packing = new = _Packing(variables.union(old.variables),
                                          max(bound, old.cap))
            self.steps = [(col, [new.repack(p, old) for p in prow],
                           prev and new.repack(prev, old))
                          for col, prow, prev in self.steps]
        row, guard = self.packing.row(row), self.packing.guard
        start = 0
        for col, prow, prev in self.steps:
            # a column no pivot row took: the elimination of the generators
            # plus v would pick v's row as the pivot there
            if any(row[start:col]):
                return False
            _bareiss_step(row, col, prow, prev, guard)
            start = col + 1
        return not any(row[start:])


def symbolic_rank(fields: Sequence[VectorField],
                  space: JetSpace) -> Elimination:
    """Fraction-free (Bareiss) elimination over Z[x] of the fields' rows.

    Returns (rank, factor polys): pivots and cleared row denominators,
    normalized; no power of 1 + t^2, t a tan-half parameter, is reported,
    as it is positive on R.  Each row is
    scaled by a positive integer to clear its coefficients' denominators,
    which scales every minor by a positive integer: the factors, normalized
    by `_factor_polys`, are those of the elimination over Q."""
    factors: List[Poly] = []
    rows = []
    for f in fields:
        row, dens = _integer_row(f, space)
        for d in dens:
            accumulate_factors(factors, _factor_polys(d))
        rows.append(row)
    variables, degree = set(), 0
    for row in rows:
        rv, rd = _row_shape(row)
        variables |= rv
        degree += rd
    packing = _Packing(variables, 2 * degree)
    rows = [packing.row(row) for row in rows]
    guard = packing.guard
    squares = [{packing.pack(MONO_ONE): 1, packing.pack(((t, 2),)): 1}
               for t in variables
               if t.kind == PARAM and t.name.startswith(TANHALF_PREFIX)]
    steps = []
    rank = 0
    prev = None
    nrows = len(rows)
    for col in range(space.dim):
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pivot = prow[col]
        for square in squares:
            while True:
                try:
                    pivot = _zdiv(pivot, square, guard)
                except ArithmeticError:
                    break
        accumulate_factors(factors, _factor_polys(packing.poly(pivot)))
        for r in range(rank + 1, nrows):
            _bareiss_step(rows[r], col, prow, prev, guard)
        steps.append((col, prow, prev))
        prev = prow[col]
        rank += 1
        if rank == nrows:
            break
    return Elimination(rank, factors, space, steps, packing, degree)


# ---------------------------------------------------------------------------
# Distributions

_UNSET = object()


class Distribution:
    """Finite-generator distribution, sampled at `points`: the shared
    `SamplePoints` of an analysis, or its own `SamplePoints(seed)`.  The
    rank-sampling echelons are built with it and serve membership and
    involutivity.  The exact certificate (Bareiss elimination, base-point
    rank) is computed on the first read of `rank`, `certificate` or
    `certified`.

    The base point, if any, is a `JetOrigin`.  A `prefix`, a distribution
    on the same points and base point whose generators are all among this
    one's (else ValueError), is extended, not rebuilt, even from a smaller
    prolongation (a Delta_{k-1} home): sample and base-point rows number
    their columns per variable.  Its echelons are copied and the rows of
    the generators it lacks inserted.  The echelons are reduced, so they
    equal a build from scratch on the same points, unless a new generator
    has a pole at one of the prefix's points; then the sampled pass is
    rebuilt."""

    def __init__(self, space: JetSpace, generators: Sequence[VectorField],
                 seed: int = 0, samples: int = 5,
                 base_point: Optional[JetOrigin] = None,
                 points: Optional[SamplePoints] = None,
                 prefix: Optional["Distribution"] = None):
        gens = []
        for g in generators:
            if g.space != space:
                raise SpaceMismatch("generator on the wrong jet space")
            if not g.is_zero():
                gens.append(g)
        self.space = space
        self.generators: List[VectorField] = gens
        self.seed = seed
        self.samples = samples
        self._base_point = base_point
        if points is None:
            points = SamplePoints(seed)
        self._points = points
        self._prefix = prefix
        self._base_ech = _UNSET
        # the generators the prefix lacks: all of them without one
        self._new, echs = gens, None
        if prefix is not None:
            old = {g.key() for g in prefix.generators}
            self._new = [g for g in gens if g.key() not in old]
            if not old.issubset(g.key() for g in gens):
                raise ValueError("a prefix generator is not among these")
            echs = points.extend(prefix._sampled, self._new)
        # whether the sample echelons extend the prefix's
        self._extended = echs is not None
        if echs is None:
            echs = points.echelons(gens, samples)
        # the F_p echelon of the generator rows at each sample point
        self._sampled = echs
        # the rank of the sampled pass, with no exact work
        self.sampled_rank = max((ech.rank for ech in self._sampled),
                                default=0)
        self._certificates: Dict[bool, RankCertificate] = {}
        # membership probes reduce against the echelons of the top-rank points
        self._echelons = [ech for ech in self._sampled
                          if ech.rank == self.sampled_rank]
        self._involutive: Optional[tuple] = None
        self._coordinate_failures: Dict[VarRef, Optional[tuple]] = {}
        self._variables: Optional[frozenset] = None
        # with every prefix echelon at top rank, a bracket the prefix's sweep
        # passed reduced to zero at each of its points (it has no pole where
        # its fields have none), so it does at their extensions: the sweeps
        # may skip it
        self._sweeps_new = self._extended and \
            len(prefix._echelons) == len(prefix._sampled)

    def _base_echelon(self) -> Optional[PointEchelon]:
        """The Q echelon of the generator rows at the base point, the
        prefix's extended; None at a pole of a generator there (a pole of the
        prefix's is one of this distribution's)."""
        if self._base_ech is _UNSET:
            ech, new = PointEchelon(), self.generators
            if self._prefix is not None:
                ech, new = self._prefix._base_echelon(), self._new
                ech = None if ech is None else ech.copy()
            if ech is not None:
                for f in new:
                    row = self._points.evaluate(f, self._base_point)
                    if row is None:
                        ech = None
                        break
                    ech.insert(row)
            self._base_ech = ech
        return self._base_ech

    def certified(self, symbolic: bool) -> RankCertificate:
        """The certificate with (or without) the fraction-free elimination,
        computed once per choice: the elimination's rank if it ran, else
        the sampled rank, and the rank at the base point if there is one.
        Neither depends on the space beyond the coordinates the generators
        involve, so one distribution certifies for every prolongation that
        has its generators."""
        if symbolic not in self._certificates:
            cert = RankCertificate(0, 0, 0, [], [])
            if self.generators:
                sampled = self.sampled_rank
                elimination = symbolic_rank(self.generators, self.space) \
                    if symbolic else None
                sym_rank, factors = elimination or (None, [])
                cert = RankCertificate(
                    sampled if sym_rank is None else sym_rank, sampled,
                    sym_rank, [ech.point for ech in self._sampled],
                    self._sampled, factors=factors, elimination=elimination)
                if self._base_point is not None:
                    # the rank at the base point, None at a pole there
                    ech = self._base_echelon()
                    cert.base_point_rank = None if ech is None else ech.rank
                    cert.base_point_drop = ech is None or ech.rank < cert.rank
            self._certificates[symbolic] = cert
        return self._certificates[symbolic]

    @property
    def certificate(self) -> RankCertificate:
        return self.certified(self.space.dim <= SYMBOLIC_MAX_DIM)

    @property
    def rank(self) -> int:
        return self.certificate.rank

    def contains(self, v: VectorField) -> bool:
        """True iff adjoining v does not raise the generic rank."""
        if v.is_zero():
            return True
        if v.space != self.space:
            raise SpaceMismatch("field on the wrong jet space")
        if not self.generators:
            return False
        probed = False
        for ech in self._echelons:
            try:
                row = self._points.row(v, ech.point)
            except DenominatorVanishes:
                continue
            probed = True
            if ech.residual(row) is not None:
                return False
        if not probed:
            # every top-rank point hit a pole of v: sample the generators
            # and v at the first points where v has none, and compare
            # sampled rank with sampled rank
            aug = generic_rank(self.generators + [v], self.space,
                               samples=self.samples, symbolic=False,
                               points=self._points)
            return aug.sampled_rank <= self.sampled_rank
        return True

    def contains_certified(self, v: VectorField) -> bool:
        """Membership decided by the symbolic elimination, not sampled: v's
        row replayed through the steps of the generators' elimination."""
        if v.is_zero():
            return True
        if v.space != self.space:
            raise SpaceMismatch("field on the wrong jet space")
        if not self.generators:
            return False
        return self.certified(True).elimination.contains(v)

    def is_involutive(self, bracket=None):
        """(True, None) or (False, (g_a, g_b, [g_a, g_b])) with the first
        failing pair in generator order, bracketed by `bracket` as in
        `bracket_failures`; memoized.

        When `_sweeps_new` holds and the prefix is involutive, only the
        pairs with a new member are swept, in the same order: the full sweep
        would pass every other pair."""
        if self._involutive is None:
            pairs = itertools.combinations(self.generators, 2)
            if self._sweeps_new and self._prefix._involutive == (True, None):
                new = set(map(id, self._new))
                pairs = ((a, b) for a, b in pairs
                         if id(a) in new or id(b) in new)
            fail = next(bracket_failures(pairs, self.contains, bracket), None)
            self._involutive = (fail is None, fail)
        return self._involutive

    def variables(self) -> frozenset:
        """The variables of the generators' coefficients, trig atoms by their
        bases: d/dc brackets every generator to zero for a coordinate c not
        among them, so `coordinate_failure` of c is None."""
        if self._variables is None:
            self._variables = frozenset().union(
                *(g.variables() for g in self.generators))
        return self._variables

    def coordinate_failure(self, c: VarRef, bracket=None) -> Optional[tuple]:
        """The first (d/dc, g, [d/dc, g]) over the generators g, in order,
        that leaves the span, or None (always when the space lacks c: then
        no generator involves c); memoized per c.  Only the new generators
        are checked when `_sweeps_new` holds and the prefix passed for c."""
        if c not in self._coordinate_failures:
            gens = self.generators
            if self._sweeps_new and \
                    self._prefix._coordinate_failures.get(c, _UNSET) is None:
                gens = self._new
            pairs = (itertools.product([unit_field(self.space, c)], gens)
                     if c in self.space else ())
            self._coordinate_failures[c] = next(bracket_failures(
                pairs, self.contains, bracket), None)
        return self._coordinate_failures[c]


def generic_rank(fields: Sequence[VectorField], space: JetSpace, seed: int = 0,
                 samples: int = 5, symbolic: Optional[bool] = None,
                 points: Optional[SamplePoints] = None) -> RankCertificate:
    """The certificate of the fields' `Distribution`: their rank mod
    p = 2^61 - 1 at `samples` points of `points` (`SamplePoints(seed)` by
    default), the max over points, cross-checked by fraction-free
    elimination when dim <= 12 (or as `symbolic` says).

    Rank mod p at a point never exceeds the rank over Q there, so a sampled
    rank is a lower bound of the generic rank, as over Q; it falls short
    only where p divides a nonzero minor, or where the point lies on the
    zero set of one (Schwartz-Zippel)."""
    dist = Distribution(space, fields, seed=seed, samples=samples,
                        points=points)
    return dist.certificate if symbolic is None else dist.certified(symbolic)


class CoordinateSpan:
    """The span of the coordinate fields d/dc, c in `coords`: its rank is
    exact, so nothing is sampled.  Offers the rank side of `Distribution`:
    generators, rank, certificate."""

    def __init__(self, space: JetSpace, coords: Iterable[VarRef]):
        coords = list(dict.fromkeys(coords))
        self.space = space
        self.coords = frozenset(coords)
        self.generators: List[VectorField] = [unit_field(space, c)
                                              for c in coords]
        rank = len(coords)
        self.certificate = RankCertificate(rank, rank, rank, [], [],
                                           base_point_rank=rank)

    @property
    def rank(self) -> int:
        return self.certificate.rank


def bracket_failures(pairs: Iterable[Tuple[VectorField, VectorField]],
                     member: Callable[[VectorField], bool],
                     bracket: Optional[Callable[[VectorField, VectorField],
                                                VectorField]] = None):
    """Yield (a, b, [a, b]) for each nonzero bracket of the pairs that
    `member` rejects, lazily and in pair order; `bracket` computes [a, b]
    (`lie_bracket`, looked up at call time, by default), except for pairs
    that `brackets_to_zero` skips."""
    bracket = bracket or lie_bracket
    for a, b in pairs:
        if brackets_to_zero(a, b):
            continue
        br = bracket(a, b)
        if not br.is_zero() and not member(br):
            yield a, b, br
