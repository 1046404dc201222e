import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flatcheck.expr import Expr
from flatcheck.jetgeom import VectorField
from flatcheck.sysdsl import SystemDef, parse_system

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load_fixture(name: str) -> SystemDef:
    return parse_system((FIXTURES / name).read_text())


def load_workloads():
    """perfbench/workloads.py: the benchmark's systems as .flt text."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def widened_fixture(name: str, extra: int) -> SystemDef:
    """A fixture plus `extra` decoupled integrators z' = v, as the
    benchmark's wide_inputs workload builds it."""
    wl = load_workloads()
    return parse_system(wl.widened_text(wl.fixture_text(str(ROOT), name),
                                        extra))


@pytest.fixture(scope="session")
def chained():
    return load_fixture("chained.flt")


@pytest.fixture(scope="session")
def driftless():
    return load_fixture("driftless.flt")


@pytest.fixture(scope="session")
def clm():
    return load_fixture("clm.flt")


@pytest.fixture(scope="session")
def pendulum():
    return load_fixture("pendulum.flt")


@pytest.fixture(scope="session")
def threeinput():
    return load_fixture("threeinput.flt")


# -- widened driftless: decoupled integrators z' = v --------------------------

DRIFTLESS_PLUS_Z = """system driftless_z
state x1 x2 x3 x4 z
input u1 u2 v
dot x1 = u1
dot x2 = x3*u1
dot x3 = x4*u1
dot x4 = u2
dot z = v
"""

# two decoupled integrators: generator lists repeat across prolongations
# whose jet spaces differ, so a list's home space is often not the capped
# prolongation that asks
DRIFTLESS_PLUS_Z2 = """system driftless_z2
state x1 x2 x3 x4 z1 z2
input u1 u2 v1 v2
dot x1 = u1
dot x2 = x3*u1
dot x3 = x4*u1
dot x4 = u2
dot z1 = v1
dot z2 = v2
"""


# -- randomized material -----------------------------------------------------

def random_system(rng: random.Random, n_max: int = 4, m_max: int = 3,
                  terms: int = 2, degree: int = 2) -> SystemDef:
    """Sparse polynomial drift over random small dimensions."""
    n = rng.randint(2, n_max)
    m = rng.randint(2, min(m_max, n))
    sysdef = SystemDef(name="rnd",
                       state_names=["x%d" % i for i in range(1, n + 1)],
                       input_names=["u%d" % i for i in range(1, m + 1)],
                       params={}, f=[])
    letters = [sysdef.state(i) for i in range(1, n + 1)] + \
              [sysdef.input(i) for i in range(1, m + 1)]
    f = []
    for _ in range(n):
        e = Expr.zero()
        for _ in range(rng.randint(1, terms)):
            term = Expr.rational(rng.choice([-2, -1, 1, 1, 2, 3]))
            for _ in range(rng.randint(0, degree)):
                term = term * Expr.var(rng.choice(letters))
            e = e + term
        f.append(e)
    sysdef.f = f
    return sysdef


def random_field(rng: random.Random, space, terms: int = 2,
                 degree: int = 2) -> VectorField:
    coeffs = {}
    for c in rng.sample(list(space.coords), k=min(len(space.coords),
                                                  rng.randint(1, 3))):
        e = Expr.zero()
        for _ in range(rng.randint(1, terms)):
            term = Expr.rational(rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, degree)):
                term = term * Expr.var(rng.choice(space.coords))
            e = e + term
        coeffs[c] = e
    return VectorField(space, coeffs)


def oracle_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Dense, definition-level Lie bracket, independent of the library path."""
    space = v.space
    out = {}
    for xi in space.coords:
        total = Expr.zero()
        wi, vi = w.coeff(xi), v.coeff(xi)
        for xj in space.coords:
            total = total + v.coeff(xj) * wi.diff(xj)
            total = total - w.coeff(xj) * vi.diff(xj)
        if not total.is_zero():
            out[xi] = total
    return VectorField(space, out)


def random_point(rng: random.Random, variables, nonzero=()):
    pt = {}
    for v in variables:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if v in nonzero:
            while q == 0:
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        pt[v] = q
    return pt


@pytest.fixture(scope="session")
def reports(chained, driftless, clm, pendulum, threeinput):
    """One analyze run per fixture, shared across test modules."""
    from flatcheck.flatness import Budgets, analyze
    out = {}
    for name, sysdef in (("chained", chained), ("driftless", driftless),
                         ("clm", clm), ("pendulum", pendulum),
                         ("threeinput", threeinput)):
        out[name] = analyze(sysdef, Budgets(seed=0))
    return out
