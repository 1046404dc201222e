"""Exact scalar arithmetic: multivariate rational functions over Q with trig atoms.

Values are canonical fractions of expanded multivariate polynomials with
rational coefficients (ints, and Fractions where a division brings them in).
sin/cos enter as atoms over a plain base variable, reduced by the single
rewrite sin^2 -> 1 - cos^2, so the sin-degree of every canonical polynomial
is at most 1 per base.  Denominators are kept sin-free (multiply through by
the sin-conjugate), which makes the representation of a value unique:
equality compares the canonical forms' sets of terms, with no term order,
and is_zero is decidable.  Graded lex (`mono_key`) orders terms only where
the order shows: leading terms and printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Mapping, Optional, Tuple


class ExprError(Exception):
    pass


class DivisionByZero(ExprError):
    pass


class DenominatorVanishes(ExprError):
    def __init__(self, point=None):
        super().__init__("denominator vanishes at sample point")
        self.point = point


class UnsupportedTrigComposition(ExprError):
    pass


# ---------------------------------------------------------------------------
# Variables

STATE, UDERIV, PARAM = 0, 1, 2
PLAIN, SIN, COS = 0, 1, 2


@dataclass(frozen=True)
class VarRef:
    """A variable: state x_i, input derivative u_i^(k), parameter, or trig atom."""

    kind: int
    i: int = 0
    k: int = 0
    name: str = ""
    trig: int = PLAIN
    label: str = field(default="", compare=False, repr=False)
    skey: tuple = field(default=None, init=False, compare=False, repr=False)
    rkey: tuple = field(default=None, init=False, compare=False, repr=False)
    _hash: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        skey = (self.kind, self.i, self.k, self.name, self.trig)
        object.__setattr__(self, "skey", skey)
        # skey's order reversed, for `mono_key`: a name is negated per
        # character and closed by 1, so a prefix sorts after its extensions
        object.__setattr__(self, "rkey", (
            -self.kind, -self.i, -self.k,
            tuple(-ord(c) for c in self.name) + (1,), -self.trig))
        # the hash the generated __hash__ would give, computed once
        object.__setattr__(self, "_hash", hash(skey))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self.skey

    @property
    def base(self) -> "VarRef":
        if self.trig == PLAIN:
            raise ValueError("not a trig atom")
        return _interned(self.kind, self.i, self.k, self.name, PLAIN,
                         self.label.partition("(")[2].rstrip(")"))

    def is_trig(self) -> bool:
        return self.trig != PLAIN

    def __str__(self):
        return self.label or repr(self)


# one VarRef per (kind, i, k, name, trig, label), made on first request;
# equality and hash stay structural, so a VarRef built directly still equals
# the stored one
_VARS: Dict[tuple, VarRef] = {}


def _interned(kind: int, i: int, k: int, name: str, trig: int,
              label: str) -> VarRef:
    key = (kind, i, k, name, trig, label)
    v = _VARS.get(key)
    if v is None:
        v = _VARS[key] = VarRef(kind, i, k, name, trig, label=label)
    return v


def state_var(i: int, label: str) -> VarRef:
    return _interned(STATE, i, 0, "", PLAIN, label)


def input_var(i: int, k: int, label: str) -> VarRef:
    return _interned(UDERIV, i, k, "", PLAIN, label)


def param_var(name: str) -> VarRef:
    return _interned(PARAM, 0, 0, name, PLAIN, name)


# the prefix of the internal tan-half parameters' names, which no declared
# name may begin with
TANHALF_PREFIX = "tanhalf_"


def sin_var(base: VarRef) -> VarRef:
    if base.trig != PLAIN:
        raise UnsupportedTrigComposition("trig atom over a trig atom")
    return _interned(base.kind, base.i, base.k, base.name, SIN,
                     "sin(%s)" % (base.label or base))


def cos_var(base: VarRef) -> VarRef:
    if base.trig != PLAIN:
        raise UnsupportedTrigComposition("trig atom over a trig atom")
    return _interned(base.kind, base.i, base.k, base.name, COS,
                     "cos(%s)" % (base.label or base))


def tan_half_values(base: VarRef, t: Fraction) -> Dict[VarRef, Fraction]:
    """Values at tan-half parameter t: sin(base) = 2t/(1+t^2) and
    cos(base) = (1-t^2)/(1+t^2), so sin^2 + cos^2 = 1 holds exactly; base
    itself gets t, which is only meaningful through its atoms."""
    return {base: t, sin_var(base): qdiv(2 * t, 1 + t * t),
            cos_var(base): qdiv(1 - t * t, 1 + t * t)}


class JetOrigin(dict):
    """The jet origin of a rational base point: a listed variable reads its
    value, sin/cos of a trig base come from the base's value as a tan-half
    parameter (`tan_half_values`), any other state or input derivative
    reads 0, and an unlisted parameter, a tan-half one too, stays missing
    (KeyError)."""

    __slots__ = ()

    def __missing__(self, v: VarRef) -> Fraction:
        if v.is_trig():
            val = tan_half_values(v.base, self[v.base])[v]
        elif v.kind == PARAM:
            raise KeyError(v)
        else:
            val = 0
        self[v] = val
        return val

    def value(self, e: "Expr") -> Fraction:
        """e's value here; DenominatorVanishes at a pole of e."""
        return e.eval_at(self)


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (VarRef, positive exponent)

Mono = Tuple[Tuple[VarRef, int], ...]
MONO_ONE: Mono = ()


def mono_from(pairs: Iterable[Tuple[VarRef, int]]) -> Mono:
    acc: Dict[VarRef, int] = {}
    for v, e in pairs:
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in acc.items() if e),
                        key=lambda p: p[0].sort_key()))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        va, ea = a[ia]
        vb, eb = b[ib]
        ka, kb = va.skey, vb.skey
        if ka == kb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif ka < kb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None if b does not divide a."""
    db = dict(b)
    out = []
    for v, e in a:
        r = e - db.pop(v, 0)
        if r < 0:
            return None
        if r:
            out.append((v, r))
    if db:
        return None
    return tuple(out)


def mono_key(m: Mono) -> tuple:
    """The graded-lex sort key: total degree, then a larger exponent on an
    earlier variable (in `sort_key` order) sorts higher."""
    # one loop: sum() and tuple() over generators take about twice as long
    degree, pairs = 0, []
    for v, e in m:
        degree += e
        pairs.append((v.rkey, e))
    return degree, tuple(pairs)


# ---------------------------------------------------------------------------
# Polynomials: dict mono -> coefficient (no zero coefficients, trig-reduced).
# Coefficients are ints; a Fraction enters only by a division (`qdiv`, which
# gives an int for an integral quotient).  Sums and products of Fractions may
# be integral: `_ints` makes them ints where an `Expr` is made.
# Fraction(n) == n with equal hashes, so either gives the same keys.

Poly = Dict[Mono, Fraction]


def qdiv(a, b):
    """a / b over Q: an int where the quotient is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _has_fraction(p: Poly) -> bool:
    # one C-level sum: a Fraction term makes the sum a Fraction
    return type(sum(p.values())) is not int


def _ints(p: Poly) -> Poly:
    """p with each integral Fraction coefficient an int (p itself when
    every coefficient is an int)."""
    if not _has_fraction(p):
        return p
    return {m: c.numerator if type(c) is not int and c.denominator == 1
            else c for m, c in p.items()}


def pconst(q) -> Poly:
    q = qdiv(q, 1)
    return {MONO_ONE: q} if q else {}


_PONE: Poly = pconst(1)     # every unit denominator; never mutated


def pis_one(p: Poly) -> bool:
    return p == _PONE


def pvar(v: VarRef) -> Poly:
    return {((v, 1),): 1}


def _needs_trig_reduce(m: Mono) -> bool:
    return any(v.trig == SIN and e >= 2 for v, e in m)


def reduce_trig(d: Poly) -> Poly:
    """Rewrite sin(b)^2 -> 1 - cos(b)^2 until every sin-degree is <= 1."""
    while True:
        bad = [m for m in d if _needs_trig_reduce(m)]
        if not bad:
            return d
        for m in bad:
            coeff = d.pop(m)
            rest = []
            expand: Poly = {MONO_ONE: 1}
            for v, e in m:
                if v.trig == SIN and e >= 2:
                    q, r = divmod(e, 2)
                    c = cos_var(v.base)
                    one_minus_c2 = {MONO_ONE: 1, ((c, 2),): -1}
                    for _ in range(q):
                        expand = pmul_raw(expand, one_minus_c2)
                    if r:
                        rest.append((v, 1))
                else:
                    rest.append((v, e))
            base = mono_from(rest)
            for mm, cc in expand.items():
                key = mono_mul(base, mm)
                val = d.get(key, 0) + coeff * cc
                if val:
                    d[key] = val
                else:
                    d.pop(key, None)


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pscale(a: Poly, q: Fraction) -> Poly:
    if not q:
        return {}
    n, d = q.numerator, q.denominator
    return {m: qdiv(c * n, d) for m, c in a.items()}


def pmul_raw(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    if len(a) > len(b):
        a, b = b, a
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = mono_mul(ma, mb)
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def pmul(a: Poly, b: Poly) -> Poly:
    return reduce_trig(pmul_raw(a, b))


def pleading(a: Poly) -> Tuple[Mono, Fraction]:
    best = max(a, key=mono_key)
    return best, a[best]


def pdiff(a: Poly, v: VarRef) -> Poly:
    """Partial derivative; chain rule through sin/cos atoms over base v."""
    if v.is_trig():
        raise ValueError("differentiation variable must not be a trig atom")
    sv, cv = sin_var(v), cos_var(v)
    out: Poly = {}
    for m, c in a.items():
        for idx, (w, e) in enumerate(m):
            if e > 1:
                rest = m[:idx] + ((w, e - 1),) + m[idx + 1:]
            else:
                rest = m[:idx] + m[idx + 1:]
            if w == v:
                term = {rest: c * e}
            elif w == sv:
                term = {mono_mul(rest, ((cv, 1),)): c * e}
            elif w == cv:
                term = {mono_mul(rest, ((sv, 1),)): -c * e}
            else:
                continue
            out = padd(out, term)
    return reduce_trig(out)


def peval(a: Poly, assign: Mapping[VarRef, Fraction]) -> Fraction:
    total = 0
    for m, c in a.items():
        v = c
        for var, e in m:
            v *= assign[var] ** e
        total += v
    return total


def fraction_mod(q: Fraction, p: int) -> int:
    """The image of q in F_p; DenominatorVanishes if p divides its
    denominator."""
    d = q.denominator
    if d == 1:
        return q.numerator % p
    try:
        return q.numerator * pow(d, -1, p) % p
    except ValueError:
        raise DenominatorVanishes() from None


def peval_mod(a: Poly, assign: Mapping[VarRef, int], p: int) -> int:
    total = 0
    for m, c in a.items():
        v = c if type(c) is int else fraction_mod(c, p)
        for var, e in m:
            v = v * (assign[var] if e == 1 else pow(assign[var], e, p)) % p
        total += v
    return total % p


def pvars(a: Poly) -> set:
    out = set()
    for m in a:
        for v, _ in m:
            out.add(v)
    return out


def _has_sin(a: Poly) -> bool:
    return any(v.trig == SIN for m in a for v, _ in m)


# ---------------------------------------------------------------------------
# GCD over the UFD part (no sin atoms): primitive PRS

def _mono_gcd(a: Mono, b: Mono) -> Mono:
    db = dict(b)
    out = []
    for v, e in a:
        f = min(e, db.get(v, 0))
        if f:
            out.append((v, f))
    return tuple(out)


def pmonomial_content(a: Poly) -> Mono:
    it = iter(a)
    try:
        g = next(it)
    except StopIteration:
        return MONO_ONE
    for m in it:
        g = _mono_gcd(g, m)
        if not g:
            break
    return g


def pdivexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises ArithmeticError if b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(b) == 1 and MONO_ONE in b:
        return pscale(a, qdiv(1, b[MONO_ONE]))
    rem = dict(a)
    out: Poly = {}
    lm, lc = pleading(b) if b else (None, None)
    while rem:
        rm, rc = pleading(rem)
        q = mono_div(rm, lm)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        qc = qdiv(rc, lc)
        out[q] = out.get(q, 0) + qc
        for m, c in b.items():
            key = mono_mul(q, m)
            v = rem.get(key, 0) - qc * c
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return {m: c for m, c in out.items() if c}


def pmonic(a: Poly) -> Poly:
    if not a:
        return a
    _, lc = pleading(a)
    return pscale(a, qdiv(1, lc))


def primitive_scale(coeffs: Iterable[Fraction]) -> Fraction:
    """lcm(denominators) / gcd(numerators): the positive scale that turns the
    coefficients into coprime integers."""
    g, l = 0, 1
    for c in coeffs:
        g = gcd(g, c.numerator)
        l = l * c.denominator // gcd(l, c.denominator)
    return Fraction(l, g if g else 1)


def _main_var(a: Poly, b: Poly) -> Optional[VarRef]:
    vs = pvars(a) | pvars(b)
    if not vs:
        return None
    return max(vs, key=lambda v: v.sort_key())


def _to_univar(a: Poly, v: VarRef) -> Dict[int, Poly]:
    out: Dict[int, Poly] = {}
    for m, c in a.items():
        deg = 0
        rest = []
        for w, e in m:
            if w == v:
                deg = e
            else:
                rest.append((w, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return out


def _from_univar(u: Dict[int, Poly], v: VarRef) -> Poly:
    out: Poly = {}
    for deg, coeff in u.items():
        vm = ((v, deg),) if deg else MONO_ONE
        for m, c in coeff.items():
            out[mono_mul(m, vm)] = out.get(mono_mul(m, vm), 0) + c
    return {m: c for m, c in out.items() if c}


def _uni_deg(u: Dict[int, Poly]) -> int:
    return max(u) if u else -1


def _uni_primitive(u: Dict[int, Poly]) -> Tuple[Poly, Dict[int, Poly]]:
    """(content, primitive part): the content is the monic gcd of the
    coefficients; the primitive part is scaled to coprime integer
    coefficients, which keeps the remainder sequence from growing."""
    cont: Poly = {}
    for coeff in u.values():
        cont = poly_gcd(cont, coeff)
        if pis_one(cont):
            break
    prim = {d: pdivexact(c, cont) for d, c in u.items()}
    scale = primitive_scale(q for c in prim.values() for q in c.values())
    return cont, {d: pscale(c, scale) for d, c in prim.items()}


def _uni_prem(a: Dict[int, Poly], b: Dict[int, Poly]) -> Dict[int, Poly]:
    """Remainder sequence step (pseudo-remainder up to content, which the
    primitive PRS strips anyway): lc(b)*r - lc(r)*x^(dr-db)*b until deg < deg b."""
    db = _uni_deg(b)
    lb = b[db]
    r = {d: dict(c) for d, c in a.items()}
    while r and _uni_deg(r) >= db:
        dr = _uni_deg(r)
        lr = r[dr]
        nr: Dict[int, Poly] = {}
        for d, c in r.items():
            if d != dr:
                nr[d] = pmul(lb, c)
        for d, c in b.items():
            if d != db:
                shift = d + dr - db
                nr[shift] = psub(nr.get(shift, {}), pmul(lr, c))
        r = {d: c for d, c in nr.items() if c}
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD in Q[vars] (monic, graded-lex leading coefficient 1); sin atoms rejected."""
    if _has_sin(a) or _has_sin(b):
        raise ValueError("gcd undefined over sin atoms; split components first")
    if not a:
        return pmonic(b)
    if not b:
        return pmonic(a)
    if len(a) == 1 or len(b) == 1:
        return {_mono_gcd(pmonomial_content(a), pmonomial_content(b)): 1}
    v = _main_var(a, b)
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    ca, pa = _uni_primitive(ua)
    cb, pb = _uni_primitive(ub)
    cont = poly_gcd(ca, cb)
    if _uni_deg(pa) < _uni_deg(pb):
        pa, pb = pb, pa
    while True:
        r = _uni_prem(pa, pb)
        if not r:
            break
        pa, pb = pb, _uni_primitive(r)[1]
        if _uni_deg(pb) == 0:
            pb = {0: pconst(1)}
            break
    g = _from_univar(pb, v)
    return pmonic(pmul(cont, g))


# ---------------------------------------------------------------------------
# Canonical fractions

def _split_sin_components(a: Poly):
    """Group by the sin-part of each monomial; values are sin-free polys."""
    comps: Dict[Mono, Poly] = {}
    for m, c in a.items():
        sins = tuple((v, e) for v, e in m if v.trig == SIN)
        rest = tuple((v, e) for v, e in m if v.trig != SIN)
        comps.setdefault(sins, {})[rest] = c
    return comps


def _join_sin_components(comps) -> Poly:
    out: Poly = {}
    for sins, poly in comps.items():
        for m, c in poly.items():
            out[mono_mul(m, sins)] = c
    return out


class Expr:
    """Immutable canonical rational function over Q in VarRefs."""

    __slots__ = ("num", "den", "_key", "_hash", "_q")

    def __init__(self, num: Poly, den: Poly, _raw=False, _q=None):
        if not _raw:
            raise TypeError("use Expr.make / constructors")
        self.num = num
        self.den = den
        # whether a coefficient is a Fraction: only then can a sum or a
        # product with this one have an integral Fraction coefficient
        self._q = _has_fraction(num) or _has_fraction(den) if _q is None \
            else _q
        self._key = (frozenset(num.items()), frozenset(den.items()))
        self._hash = hash(self._key)

    # -- construction

    @staticmethod
    def make(num: Poly, den: Poly) -> "Expr":
        num = reduce_trig(dict(num))
        den = reduce_trig(dict(den))
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return Expr({}, _PONE, _raw=True)
        # clear sin atoms out of the denominator via conjugates
        while True:
            sin_in_den = sorted({v for m in den for v, _ in m if v.trig == SIN},
                                key=lambda v: v.sort_key())
            if not sin_in_den:
                break
            s = sin_in_den[0]
            u = _to_univar(den, s)
            d0, d1 = u.get(0, {}), u.get(1, {})
            conj = psub(d0, {mono_mul(m, ((s, 1),)): c for m, c in d1.items()})
            num = pmul(num, conj)
            den = pmul(den, conj)
        # cancel common factors (gcd over the sin-free components)
        if not pis_one(den):
            comps = list(_split_sin_components(num).values())
            g: Poly = {}
            for p in comps + [den]:
                g = poly_gcd(g, p)
                if pis_one(g):
                    break
            if g and not pis_one(g):
                num_c = _split_sin_components(num)
                num = _join_sin_components(
                    {s: pdivexact(p, g) for s, p in num_c.items()})
                den = pdivexact(den, g)
        if not den:
            raise DivisionByZero("zero denominator")
        _, lc = pleading(den)
        if lc != 1:
            inv = qdiv(1, lc)
            num, den = pscale(num, inv), pscale(den, inv)
        q = _has_fraction(num) or _has_fraction(den)
        if q:
            num, den = _ints(num), _ints(den)
            q = _has_fraction(num) or _has_fraction(den)
        return Expr(num, den, _raw=True, _q=q)

    @staticmethod
    def zero() -> "Expr":
        return _ZERO

    @staticmethod
    def one() -> "Expr":
        return _ONE

    @staticmethod
    def rational(q) -> "Expr":
        return Expr.make(pconst(q), _PONE)

    @staticmethod
    def var(v: VarRef) -> "Expr":
        return Expr.make(pvar(v), _PONE)

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return pis_one(self.num) and pis_one(self.den)

    def free_vars(self) -> set:
        return pvars(self.num) | pvars(self.den)

    def free_base_vars(self) -> set:
        """Free variables with trig atoms replaced by their bases."""
        return {v.base if v.is_trig() else v for v in self.free_vars()}

    # -- arithmetic

    def __add__(self, other: "Expr") -> "Expr":
        if self.den == other.den:
            if pis_one(self.den):
                num = padd(self.num, other.num)
                if self._q or other._q:
                    return _over_one(num)
                return Expr(num, _PONE, _raw=True, _q=False)
            return Expr.make(padd(self.num, other.num), self.den)
        return Expr.make(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr(pneg(self.num), self.den, _raw=True, _q=self._q)

    def __mul__(self, other: "Expr") -> "Expr":
        if pis_one(self.den) and pis_one(other.den):
            num = pmul(self.num, other.num)
            if self._q or other._q:
                return _over_one(num)
            return Expr(num, _PONE, _raw=True, _q=False)
        return Expr.make(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "Expr") -> "Expr":
        if other.is_zero():
            raise DivisionByZero("division by symbolically zero expression")
        return Expr.make(pmul(self.num, other.den), pmul(self.den, other.num))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v: VarRef) -> "Expr":
        if v.is_trig():
            raise ValueError("cannot differentiate with respect to a trig atom")
        dn = pdiff(self.num, v)
        if pis_one(self.den):
            if self._q:
                return _over_one(dn)
            return Expr(dn, _PONE, _raw=True, _q=False)
        dd = pdiff(self.den, v)
        return Expr.make(psub(pmul(dn, self.den), pmul(self.num, dd)),
                         pmul(self.den, self.den))

    def eval_at(self, assign: Mapping[VarRef, Fraction]) -> Fraction:
        d = peval(self.den, assign)
        if d == 0:
            raise DenominatorVanishes(assign)
        return qdiv(peval(self.num, assign), d)

    def eval_mod(self, assign: Mapping[VarRef, int], p: int) -> int:
        """The value in F_p at a point of F_p: the image of the rational
        value wherever the denominator is nonzero mod p."""
        d = peval_mod(self.den, assign, p)
        if d == 0:
            raise DenominatorVanishes(assign)
        if d == 1:
            return peval_mod(self.num, assign, p)
        return peval_mod(self.num, assign, p) * pow(d, -1, p) % p

    # -- identity

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Expr(%s)" % render_expr(self)


def _plain_var_of(e: Expr) -> Optional[VarRef]:
    if not pis_one(e.den) or len(e.num) != 1:
        return None
    (m, c), = e.num.items()
    if c != 1 or len(m) != 1 or m[0][1] != 1 or m[0][0].is_trig():
        return None
    return m[0][0]


def _over_one(num: Poly) -> Expr:
    """num / 1 where an operand had a Fraction coefficient: an integral one
    of num becomes an int.  (Ints alone give ints, so the arithmetic does
    not call this for them.)"""
    num = _ints(num)
    return Expr(num, _PONE, _raw=True, _q=_has_fraction(num))


_ZERO = Expr({}, _PONE, _raw=True)
_ONE = Expr({MONO_ONE: 1}, _PONE, _raw=True)


# ---------------------------------------------------------------------------
# Rendering (canonical infix, parseable by the system DSL)

def _render_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def render_poly(p: Poly) -> str:
    if not p:
        return "0"
    monos = sorted(p, key=mono_key, reverse=True)
    parts = []
    for m in monos:
        c = p[m]
        factors = []
        for v, e in m:
            factors.append(str(v) if e == 1 else "%s^%d" % (v, e))
        body = "*".join(factors)
        if not factors:
            term = _render_coeff(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = "%s*%s" % (_render_coeff(abs(c)), body)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def render_expr(e: Expr) -> str:
    num = render_poly(e.num)
    if pis_one(e.den):
        return num
    den = render_poly(e.den)
    ns = num if len(e.num) <= 1 else "(%s)" % num
    bare = False
    if len(e.den) == 1:
        (m, c), = e.den.items()
        bare = c == 1 and len(m) == 1
    ds = den if bare else "(%s)" % den
    return "%s/%s" % (ns, ds)
