"""`qp.SparseRows`, the row form every constraint builder emits and the
active-set solver reads, against the dense matrix `_oracles.densify` builds
from it entry by entry: the product with a vector, the reduced rows A Z the
solver forms for its working set, the right-hand sides `reduce_rows` gives,
and its densified form (`constraints.stack_dense` of the one block), on
random blocks. The sparse products gather and sum at most k products per row
where BLAS sums n, so they agree within a few ulps of the row's sum of
|products|."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypertraffic.constraints import stack_dense
from hypertraffic.qp import SparseRows, _reduced_rows

from _oracles import dense_elimination, densify
from _oracles import reduced_qp as ReducedQp  # a `qp.ReducedQp` with its own H

EPS = np.finfo(float).eps
# Zero in both signs is a coefficient the builders emit: the padding slots
# and the structural zeros of the dynamics Jacobians.
COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False))


@st.composite
def blocks(draw):
    """(rows, x, a_eq, b_eq): a random block of 0-6 rows (no rows is a
    straight driver's empty tail) over 1-8 columns with 1-7 slots, columns
    repeating within a row as a padded row's do, a vector to multiply, and
    equality rows to reduce onto."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))
    k = draw(st.integers(1, 7))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=m * k, max_size=m * k))
    coef = draw(st.lists(COEFFICIENTS, min_size=m * k, max_size=m * k))
    rows = SparseRows(np.array(cols, dtype=np.intp).reshape(m, k),
                      np.array(coef, dtype=float).reshape(m, k), n)
    finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    p = draw(st.integers(0, n - 1))
    a_eq = np.reshape(draw(st.lists(finite, min_size=p * n, max_size=p * n)), (p, n))
    b_eq = np.array(draw(st.lists(finite, min_size=p, max_size=p)))
    return rows, x, a_eq, b_eq


def _gathered_scale(rows, x):
    """Per row (and column of x), the sum of |coef| |x| over the row's slots."""
    return np.einsum("ij,ij...->i...", np.abs(rows.coef), np.abs(x[rows.cols]))


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_sparse_rows_agree_with_their_dense_oracle(block):
    rows, x, a_eq, b_eq = block
    dense = densify(rows)
    assert rows.shape == dense.shape
    assert np.array_equal(stack_dense([(rows, np.zeros(rows.shape[0]), ())])[0], dense)
    assert np.all(np.abs(rows @ x - dense @ x) <= 16 * EPS * _gathered_scale(rows, x))

    reduced = ReducedQp(np.eye(rows.n_cols), dense_elimination(a_eq, b_eq))
    z_basis = reduced.z_basis
    c_sparse = _reduced_rows(rows, z_basis, np.arange(rows.shape[0]))
    assert c_sparse.shape == (rows.shape[0], z_basis.shape[1])
    assert np.all(np.abs(c_sparse - dense @ z_basis) <= 16 * EPS * _gathered_scale(rows, z_basis))

    # Sparse rows pass through `reduce_rows` as they are.
    b_in = np.arange(rows.shape[0], dtype=float)
    same, d_sparse = reduced.reduce_rows(rows, b_in)
    assert same is rows
    d_scale = _gathered_scale(rows, reduced.s_part) + np.abs(b_in)
    assert np.all(np.abs(d_sparse - (b_in - dense @ reduced.s_part)) <= 16 * EPS * d_scale)


def test_sparse_rows_refuse_mismatched_shapes():
    with pytest.raises(ValueError, match="one shape"):
        SparseRows(np.zeros((2, 3), dtype=int), np.zeros((2, 2)), 4)
    rows = SparseRows(np.zeros((2, 1), dtype=int), np.ones((2, 1)), 4)
    with pytest.raises(ValueError, match="4 columns"):
        rows @ np.ones(3)
    reduced = ReducedQp(np.eye(3), dense_elimination(np.zeros((0, 3)), np.zeros(0)))
    with pytest.raises(ValueError, match="4 columns"):
        reduced.reduce_rows(rows, np.zeros(2))
    assert not rows.cols.flags.writeable and not rows.coef.flags.writeable
