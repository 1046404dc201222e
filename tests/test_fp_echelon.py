"""Property tests of the F_p echelon against the one over Q, on small rational
matrices, and of the reduced form's independence of the insertion order
(hypothesis; skips when it is not installed).

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
from flatcheck.jetgeom import FP, QQ, PointEchelon, fraction_rank  # noqa: E402

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduced_rows_do_not_depend_on_the_insertion_order(data):
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    rows = [_sparse(r) for r in data.draw(st.lists(row, max_size=6))]
    if rows and data.draw(st.booleans()):
        # a repeated row and a multiple: dependent rows in the mix
        rows.append({c: 2 * a for c, a in rows[0].items()})
    order = data.draw(st.permutations(range(len(rows))))
    for field, image in ((QQ, dict), (FP, _mod)):
        first = PointEchelon.of([image(r) for r in rows], field=field)
        again = PointEchelon.of([image(rows[i]) for i in order], field=field)
        assert first.rows == again.rows
        # each pivot column is zero in every other row
        for pc, prow in first.rows:
            assert prow[pc] == 1
            assert all(pc not in qrow for qc, qrow in first.rows if qc != pc)
