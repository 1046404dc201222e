"""The .flt system-definition format: tokenizer, parser, validation, serialization.

File format (line oriented, # comments):

    system <ident>
    state <ident>+
    input <ident>+
    param <ident> [= <rational>]
    dot <state> = <expr>
    flatoutput <expr> [, <expr>]*
    point <ident> = <rational>

Expression grammar: rationals p/q, identifiers, + - * / ^, unary minus,
sin( ) / cos( ) over a plain variable, parentheses; ^ takes a nonnegative
integer literal.  Inside flatoutput lines, `<input>_<k>` names the k-th input
derivative; drift right-hand sides must not use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import (TANHALF_PREFIX, Expr, JetOrigin, VarRef, _plain_var_of,
                   cos_var, input_var, param_var, render_expr, sin_var,
                   state_var)
from .report import AnalysisReport

KEYWORDS = {"system", "state", "input", "param", "dot", "flatoutput", "point"}


class DslError(Exception):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = " (line %d%s)" % (line, ", col %d" % col if col is not None else "")
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class SyntaxErr(DslError):
    def __init__(self, line, col, expected):
        super().__init__("expected %s" % expected, line, col)
        self.expected = expected


class UndeclaredIdentifier(DslError):
    pass


class DuplicateEquation(DslError):
    pass


class MissingEquation(DslError):
    def __init__(self, state):
        super().__init__("missing `dot %s = ...` equation" % state)
        self.state = state


class HigherInputDerivativeInDrift(DslError):
    pass


# ---------------------------------------------------------------------------
# Tokens

@dataclass
class Tok:
    kind: str    # INT IDENT OP SINOPEN COSOPEN NEWLINE
    text: str
    line: int
    col: int


_OPS = "+-*/^(),="


def tokenize(text: str) -> List[Tok]:
    toks: List[Tok] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if c.isspace():
                i += 1
                continue
            col = i + 1
            if c.isdigit():
                j = i
                while j < n and line[j].isdigit():
                    j += 1
                toks.append(Tok("INT", line[i:j], ln, col))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                word = line[i:j]
                # sin( / cos( are fused so a lone deleted token never leaves
                # a syntactically valid remnant
                if word in ("sin", "cos") and j < n and line[j] == "(":
                    toks.append(Tok(word.upper() + "OPEN", word + "(", ln, col))
                    i = j + 1
                else:
                    toks.append(Tok("IDENT", word, ln, col))
                    i = j
            elif c in _OPS:
                toks.append(Tok("OP", c, ln, col))
                i += 1
            else:
                raise SyntaxErr(ln, col, "a valid token, not %r" % c)
        if toks and toks[-1].kind != "NEWLINE":
            toks.append(Tok("NEWLINE", "", ln, n + 1))
    return toks


# ---------------------------------------------------------------------------
# System definition

@dataclass
class SystemDef:
    """A validated first-order system  xdot = f(x, u)  with named coordinates."""

    name: str
    state_names: List[str]
    input_names: List[str]
    params: Dict[str, Optional[Fraction]]
    f: List[Expr]
    declared_flat_outputs: Optional[List[Expr]] = None
    base_point_entries: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def m(self) -> int:
        return len(self.input_names)

    def state(self, i: int) -> VarRef:
        return state_var(i, self.state_names[i - 1])

    def input(self, i: int, k: int = 0) -> VarRef:
        name = self.input_names[i - 1]
        return input_var(i, k, name if k == 0 else "%s_%d" % (name, k))

    def param(self, name: str) -> VarRef:
        return param_var(name)

    def param_vars(self) -> List[VarRef]:
        return [param_var(p) for p in self.params]

    def trig_bases(self) -> List[VarRef]:
        out = []
        seen = set()
        exprs = list(self.f) + (self.declared_flat_outputs or [])
        for e in exprs:
            for v in e.free_vars():
                if v.is_trig() and v.base not in seen:
                    seen.add(v.base)
                    out.append(v.base)
        return sorted(out, key=lambda v: v.sort_key())

    def resolve(self, ident: str, allow_derivatives: bool) -> VarRef:
        """Map an identifier to a variable, per declaration order then the
        input-derivative naming pattern."""
        if ident in self.state_names:
            return self.state(self.state_names.index(ident) + 1)
        if ident in self.input_names:
            return self.input(self.input_names.index(ident) + 1)
        if ident in self.params:
            return self.param(ident)
        stem, _, tail = ident.rpartition("_")
        if stem in self.input_names and tail.isdigit():
            k = int(tail)
            if k >= 1:
                if not allow_derivatives:
                    raise HigherInputDerivativeInDrift(
                        "drift may depend on inputs only, not %s" % ident)
                return self.input(self.input_names.index(stem) + 1, k)
        raise UndeclaredIdentifier("undeclared identifier %r" % ident)

    def base_point(self) -> "RationalPoint":
        """Shift point used for singular-locus flags; origin by default."""
        pt = RationalPoint()
        entries = dict(self.base_point_entries)
        for i, name in enumerate(self.state_names, start=1):
            pt.assign[self.state(i)] = entries.pop(name, Fraction(0))
        for i, name in enumerate(self.input_names, start=1):
            pt.assign[self.input(i)] = entries.pop(name, Fraction(0))
        # a parameter under sin/cos is read as a tan-half value, where 1
        # would be the angle pi/2, at which cos vanishes
        trig = set(self.trig_bases())
        for name, declared in self.params.items():
            val = entries.pop(name, declared)
            if val is None:
                val = Fraction(1, 2) if self.param(name) in trig \
                    else Fraction(1)
            pt.assign[self.param(name)] = val
        for name, val in entries.items():
            pt.assign[self.resolve(name, allow_derivatives=True)] = val
        return pt


@dataclass
class RationalPoint:
    """Exact rational assignment.  The value of a variable under sin/cos is
    its tan-half parameter, so the Pythagorean identity holds exactly."""

    assign: Dict[VarRef, Fraction] = field(default_factory=dict)

    def resolved(self) -> JetOrigin:
        """The jet origin of this point (see `JetOrigin`)."""
        return JetOrigin(self.assign)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, toks: List[Tok], sysdef: SystemDef):
        self.toks = toks
        self.pos = 0
        self.sysdef = sysdef
        self.allow_derivatives = True

    def peek(self) -> Tok:
        return self.toks[self.pos]

    def at_newline(self) -> bool:
        return self.peek().kind == "NEWLINE"

    def take(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> Tok:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise SyntaxErr(t.line, t.col, "'%s'" % op)
        return self.take()

    # precedence-climbing expression parser
    def expr(self) -> Expr:
        e = self.term()
        while not self.at_newline() and self.peek().kind == "OP" \
                and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while not self.at_newline() and self.peek().kind == "OP" \
                and self.peek().text in "*/":
            op = self.take().text
            rhs = self.power()   # no unary minus directly after * or /
            if op == "*":
                e = e * rhs
            else:
                if rhs.is_zero():
                    t = self.peek()
                    raise DslError("division by zero expression", t.line, t.col)
                e = e / rhs
        return e

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while not self.at_newline() and self.peek().kind == "OP" \
                and self.peek().text == "^":
            self.take()
            t = self.peek()
            if t.kind != "INT":
                raise SyntaxErr(t.line, t.col, "a nonnegative integer exponent")
            self.take()
            e = e ** int(t.text)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.take()
            return Expr.rational(int(t.text))
        if t.kind == "IDENT":
            if t.text in KEYWORDS:
                raise SyntaxErr(t.line, t.col, "an expression (%r is reserved)" % t.text)
            self.take()
            try:
                v = self.sysdef.resolve(t.text, self.allow_derivatives)
            except DslError as err:
                err.line, err.col = t.line, t.col
                raise
            return Expr.var(v)
        if t.kind in ("SINOPEN", "COSOPEN"):
            self.take()
            inner = self.expr()
            self.expect_op(")")
            base = _plain_var_of(inner)
            if base is None:
                raise DslError("sin/cos argument must be a plain variable",
                               t.line, t.col)
            v = sin_var(base) if t.kind == "SINOPEN" else cos_var(base)
            return Expr.var(v)
        if t.kind == "OP" and t.text == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise SyntaxErr(t.line, t.col, "an expression")


def _rational(p: _Parser) -> Fraction:
    neg = False
    while p.peek().kind == "OP" and p.peek().text == "-":
        p.take()
        neg = not neg
    t = p.peek()
    if t.kind != "INT":
        raise SyntaxErr(t.line, t.col, "a rational number")
    p.take()
    num = int(t.text)
    den = 1
    if not p.at_newline() and p.peek().kind == "OP" and p.peek().text == "/":
        p.take()
        t2 = p.peek()
        if t2.kind != "INT":
            raise SyntaxErr(t2.line, t2.col, "a denominator")
        p.take()
        den = int(t2.text)
        if den == 0:
            raise DslError("zero denominator in rational", t2.line, t2.col)
    q = Fraction(num, den)
    return -q if neg else q


def _ident(p: _Parser, what: str) -> Tok:
    t = p.peek()
    if t.kind != "IDENT":
        raise SyntaxErr(t.line, t.col, what)
    if t.text in KEYWORDS:
        raise SyntaxErr(t.line, t.col, "%s (%r is reserved)" % (what, t.text))
    return p.take()


def _new_name(p: _Parser, sysdef: SystemDef, what: str) -> Tok:
    """An identifier not yet declared as a state, input or parameter, and
    not a name of the internal tan-half parameters."""
    name = _ident(p, what)
    if name.text in sysdef.state_names or name.text in sysdef.input_names \
            or name.text in sysdef.params:
        raise DslError("duplicate name %r" % name.text, name.line, name.col)
    if name.text.startswith(TANHALF_PREFIX):
        raise DslError("names beginning with %r are reserved" % TANHALF_PREFIX,
                       name.line, name.col)
    return name


def parse_system(text: str) -> SystemDef:
    toks = tokenize(text)
    sysdef = SystemDef(name="", state_names=[], input_names=[], params={}, f=[])
    p = _Parser(toks, sysdef)
    dot_rhs: Dict[str, Expr] = {}
    pending_dots: List[Tuple[Tok, List[Tok]]] = []
    flat_tokens: Optional[List[Tok]] = None

    # first pass: declarations, collect equation token spans
    while p.pos < len(toks):
        t = p.peek()
        if t.kind == "NEWLINE":
            p.take()
            continue
        if t.kind != "IDENT" or t.text not in KEYWORDS:
            raise SyntaxErr(t.line, t.col, "a directive (system/state/input/"
                            "param/dot/flatoutput/point)")
        kw = p.take().text
        if kw == "system":
            name = _ident(p, "a system name")
            if sysdef.name:
                raise DslError("duplicate system line", name.line, name.col)
            sysdef.name = name.text
        elif kw == "state":
            got = False
            while not p.at_newline():
                name = _new_name(p, sysdef, "a state name")
                sysdef.state_names.append(name.text)
                got = True
            if not got:
                raise SyntaxErr(t.line, t.col, "at least one state name")
        elif kw == "input":
            got = False
            while not p.at_newline():
                name = _new_name(p, sysdef, "an input name")
                sysdef.input_names.append(name.text)
                got = True
            if not got:
                raise SyntaxErr(t.line, t.col, "at least one input name")
        elif kw == "param":
            name = _new_name(p, sysdef, "a parameter name")
            value = None
            if not p.at_newline():
                p.expect_op("=")
                value = _rational(p)
            sysdef.params[name.text] = value
        elif kw == "dot":
            lhs = _ident(p, "a state name")
            p.expect_op("=")
            span = []
            while not p.at_newline():
                span.append(p.take())
            if not span:
                raise SyntaxErr(lhs.line, lhs.col, "an expression after '='")
            span.append(Tok("NEWLINE", "", lhs.line, 0))
            pending_dots.append((lhs, span))
        elif kw == "flatoutput":
            if flat_tokens is not None:
                raise DslError("duplicate flatoutput line", t.line, t.col)
            flat_tokens = []
            while not p.at_newline():
                flat_tokens.append(p.take())
            if not flat_tokens:
                raise SyntaxErr(t.line, t.col, "at least one expression")
            flat_tokens.append(Tok("NEWLINE", "", t.line, 0))
        elif kw == "point":
            name = _ident(p, "a variable name")
            p.expect_op("=")
            val = _rational(p)
            if name.text in sysdef.base_point_entries:
                raise DslError("duplicate point entry %r" % name.text,
                               name.line, name.col)
            sysdef.base_point_entries[name.text] = val
        if not p.at_newline():
            bad = p.peek()
            raise SyntaxErr(bad.line, bad.col, "end of line")
        p.take()

    if not sysdef.name:
        raise DslError("missing `system` line")
    if not sysdef.state_names:
        raise DslError("no states declared")
    if not sysdef.input_names:
        raise DslError("no inputs declared")
    if sysdef.m > sysdef.n:
        raise DslError("more inputs than states (m <= n required)")

    # second pass: equations, now that every name is known
    for lhs, span in pending_dots:
        if lhs.text not in sysdef.state_names:
            raise UndeclaredIdentifier("unknown state %r" % lhs.text,
                                       lhs.line, lhs.col)
        if lhs.text in dot_rhs:
            raise DuplicateEquation("state %r has two equations" % lhs.text,
                                    lhs.line, lhs.col)
        sub = _Parser(span, sysdef)
        sub.allow_derivatives = False
        rhs = sub.expr()
        if not sub.at_newline():
            bad = sub.peek()
            raise SyntaxErr(bad.line, bad.col, "end of line")
        dot_rhs[lhs.text] = rhs
    for name in sysdef.state_names:
        if name not in dot_rhs:
            raise MissingEquation(name)
    sysdef.f = [dot_rhs[name] for name in sysdef.state_names]

    if flat_tokens is not None:
        sub = _Parser(flat_tokens, sysdef)
        outs = [sub.expr()]
        while not sub.at_newline():
            sub.expect_op(",")
            outs.append(sub.expr())
        sysdef.declared_flat_outputs = outs

    for name in sysdef.base_point_entries:
        sysdef.resolve(name, allow_derivatives=True)
    return sysdef


# ---------------------------------------------------------------------------
# Serialization

def render_system(sysdef: SystemDef) -> str:
    lines = ["system %s" % sysdef.name,
             "state %s" % " ".join(sysdef.state_names),
             "input %s" % " ".join(sysdef.input_names)]
    for name, val in sysdef.params.items():
        lines.append("param %s" % name if val is None
                     else "param %s = %s" % (name, val))
    for name, e in zip(sysdef.state_names, sysdef.f):
        lines.append("dot %s = %s" % (name, render_expr(e)))
    if sysdef.declared_flat_outputs:
        lines.append("flatoutput %s" % ", ".join(
            render_expr(e) for e in sysdef.declared_flat_outputs))
    for name, val in sysdef.base_point_entries.items():
        lines.append("point %s = %s" % (name, val))
    return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"
