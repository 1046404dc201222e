"""Property test of the F_p echelon against the one over Q, on small rational
matrices (hypothesis; skips when it is not installed).

The sizes keep every minor a p-unit, so the two must agree exactly: entries
are a/b with |a| <= 5 and b <= 5, so 60 times a row is an integer row with
entries of at most 300, and at most 1200 for a probe that combines up to 4
rows with coefficients in {-1, 0, 1}. A minor of at most 5 such rows is then
at most (1200 * sqrt(5))^5 < 2^61 - 1 in absolute value (Hadamard), so a
nonzero one stays nonzero mod p. Elimination then divides only by p-units,
and reduction mod p commutes with every step."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from flatcheck.expr import fraction_mod  # noqa: E402
from flatcheck.jetgeom import FP, PointEchelon, fraction_rank  # noqa: E402

ENTRY = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))


def _sparse(row):
    return {c: a for c, a in enumerate(row) if a}


def _mod(row):
    """The image in F_p of a sparse rational row, zeros dropped."""
    image = {c: fraction_mod(a, FP.p) for c, a in row.items()}
    return {c: a for c, a in image.items() if a}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fp_echelon_rank_and_residual_match_q(data):
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, max_size=4))
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-1, 1), min_size=len(rows),
                                    max_size=len(rows)))
        probe = [sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0))
                 for i in range(ncols)]
    else:
        probe = data.draw(row)

    rows, probe = [_sparse(r) for r in rows], _sparse(probe)
    over_q = PointEchelon.of(rows)
    over_p = PointEchelon.of([_mod(r) for r in rows], field=FP)
    assert over_p.rank == over_q.rank == fraction_rank(rows)

    res_q = over_q.residual(probe)
    res_p = over_p.residual(_mod(probe))
    assert (res_p is None) == (res_q is None)
    if res_q is not None:
        assert res_p == _mod(res_q)
