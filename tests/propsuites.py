"""Randomized property suites shared by the unit tests and the acceptance
gate (which runs them at full size with a fixed seed)."""

import random

from flatcheck.jetgeom import MultiIndex, lie_bracket, unit_field
from flatcheck.prolong import (build_prolonged, delta_filtration,
                               g_filtration, gamma_filtration)

from conftest import random_field, random_system
from paper_identities import (ad_top, cmin, delta_rank_bound, gamma_field,
                              gamma_rank_formula, is_vertical)


def _random_prolonged(rng, j_cap=3):
    sysdef = random_system(rng)
    j = MultiIndex(sorted(rng.randint(0, j_cap) for _ in range(sysdef.m)))
    if min(j) != 0:
        j = MultiIndex([0] + list(j)[1:])
    return build_prolonged(sysdef, j, seed=rng.randint(0, 10 ** 6))


def suite_bracket_algebra(cases: int, seed: int = 20240811) -> int:
    """Antisymmetry and the Jacobi identity on random sparse fields."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        ps = _random_prolonged(rng, j_cap=2)
        u = random_field(rng, ps.space)
        v = random_field(rng, ps.space)
        w = random_field(rng, ps.space)
        assert lie_bracket(u, v) == -lie_bracket(v, u)
        jac = lie_bracket(u, lie_bracket(v, w)) \
            + lie_bracket(v, lie_bracket(w, u)) \
            + lie_bracket(w, lie_bracket(u, v))
        assert jac.is_zero()
        ran += 1
    return ran


def suite_prolonged_bracket_identities(cases: int, seed: int = 977) -> int:
    """ad^k_{g0} d/du_i^(j_i) = (-1)^k d/du_i^(j_i-k) for k <= j_i, the
    vertical continuation identity, and the low-order zero brackets."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        ps = _random_prolonged(rng)
        sysdef, j = ps.sysdef, ps.j
        i = rng.randint(1, sysdef.m)
        ji = j[i - 1]
        # exact coordinate identity up to k = j_i
        for k in range(0, ji + 1):
            expect = unit_field(ps.space, sysdef.input(i, ji - k))
            if k % 2 == 1:
                expect = -expect
            assert ad_top(ps, i, k) == expect
        # continuation: ad^(j_i+k) g_i = (-1)^(j_i) ad^k d/du_i^(0), vertical
        k = rng.randint(1, 2)
        lhs = ad_top(ps, i, ji + k)
        rhs = ps.ad_u0(i, k)
        if ji % 2 == 1:
            rhs = -rhs
        assert lhs == rhs
        assert is_vertical(lhs, cmin(j, k - 1))
        # zero brackets: [d/du_p^(j_p-kk), ad^(l-j_q) d/du_q^(0)] = 0
        # for kk < j_p, l >= j_q, kk + l < j_p + j_q + 1
        for p in range(1, sysdef.m + 1):
            jp = j[p - 1]
            for q in range(1, sysdef.m + 1):
                jq = j[q - 1]
                for kk in range(0, jp):
                    for l in range(jq, jp + jq + 1 - kk):
                        gam = unit_field(ps.space, sysdef.input(p, jp - kk))
                        br = lie_bracket(gam, ps.ad_u0(q, l - jq))
                        assert br.is_zero(), (j, p, q, kk, l)
        ran += 1
    return ran


def suite_decomposition(cases: int, seed: int = 5151) -> int:
    """rank G_k = rank Gamma_k + rank Delta_k with the dimension formulas."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        ps = _random_prolonged(rng)
        k = rng.randint(0, ps.sysdef.n + 1)
        g = g_filtration(ps, k)
        gam = gamma_filtration(ps, k)
        dlt = delta_filtration(ps, k)
        assert gam.rank == gamma_rank_formula(ps.j, k)
        assert dlt.rank <= delta_rank_bound(ps.j, k, ps.sysdef.n)
        assert g.rank == gam.rank + dlt.rank, (ps.j, k)
        ran += 1
    return ran


def suite_gamma_recursion(cases: int, seed: int = 31415) -> int:
    """The recursion vector equals the iterated bracket (vertical form)."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        ps = _random_prolonged(rng)
        i = rng.randint(1, ps.sysdef.m)
        k = rng.randint(1, 3)
        assert gamma_field(ps, i, k) == ad_top(ps, i, ps.j[i - 1] + k)
        ran += 1
    return ran
