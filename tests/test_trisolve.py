"""Tridiagonal assembly and Thomas-algorithm tests.

The dense LAPACK route (``dense_solve``) is the independent oracle for the
hand-written forward/backward sweeps throughout.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstring.core import Grid1D, Physics, TimeGrid
from obstring.trisolve import (
    ThomasFactorization,
    Tridiagonal,
    ZeroPivotError,
    assemble_step_matrix,
    dense_solve,
    thomas_solve,
)


def _random_dominant(rng: np.random.Generator, n: int) -> Tridiagonal:
    """Strictly diagonally dominant system with random signs."""
    lower = rng.uniform(-1.0, 1.0, max(n - 1, 0))
    upper = rng.uniform(-1.0, 1.0, max(n - 1, 0))
    margin = rng.uniform(0.5, 2.0, n)
    diag = margin.copy()
    if n > 1:
        diag[:-1] += np.abs(upper)
        diag[1:] += np.abs(lower)
    diag *= np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


def test_identity_matrix_returns_rhs():
    n = 7
    m = Tridiagonal(lower=np.zeros(n - 1), diag=np.ones(n), upper=np.zeros(n - 1))
    rhs = np.arange(1.0, n + 1.0)
    assert np.array_equal(thomas_solve(m, rhs), rhs)


def test_hand_solved_three_by_three():
    m = Tridiagonal(
        lower=np.array([-1.0, -1.0]),
        diag=np.array([2.0, 2.0, 2.0]),
        upper=np.array([-1.0, -1.0]),
    )
    x = thomas_solve(m, np.array([1.0, 0.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0, 1.0], rtol=0.0, atol=1e-14)


def test_assemble_unit_grid_matches_hand_matrix():
    # dt = dx = 1 and no damping: 1/dt^2 + 2/dx^2 = 3 on the diagonal, -1 off.
    m = assemble_step_matrix(Grid1D(5.0, 5), TimeGrid(4.0, 4), Physics(0.0, 0.1))
    assert m.n == 4
    assert np.all(m.diag == 3.0)
    assert np.all(m.lower == -1.0)
    assert np.all(m.upper == -1.0)


def test_assemble_reference_resolution_diagonal():
    m = assemble_step_matrix(
        Grid1D(1.0, 5000), TimeGrid(0.3, 1500), Physics(0.01, 5e-4)
    )
    coupling = (0.01 * 5000 + 1.0) * 25e6
    assert m.n == 4999
    assert np.allclose(m.diag, 25e6 + 2.0 * coupling, rtol=1e-12)
    assert np.allclose(m.upper, -coupling, rtol=1e-12)
    assert np.allclose(m.lower, m.upper, rtol=0.0, atol=0.0)


def test_zero_pivot_reported_with_index():
    # second pivot: 1 - (1*1)/1 = 0
    m = Tridiagonal(
        lower=np.array([1.0]), diag=np.array([1.0, 1.0]), upper=np.array([1.0])
    )
    with pytest.raises(ZeroPivotError) as info:
        ThomasFactorization(m)
    assert info.value.index == 1
    assert "pivot" in str(info.value)


def test_band_length_mismatch_rejected():
    with pytest.raises(ValueError, match="band lengths"):
        Tridiagonal(lower=np.zeros(3), diag=np.ones(3), upper=np.zeros(2))
    with pytest.raises(ValueError, match="empty"):
        Tridiagonal(lower=np.zeros(0), diag=np.zeros(0), upper=np.zeros(0))
    m = Tridiagonal(lower=np.zeros(2), diag=np.ones(3), upper=np.zeros(2))
    with pytest.raises(ValueError, match="band lengths"):
        replace(m, upper=np.zeros(3))


def test_solve_rejects_wrong_rhs_length():
    m = assemble_step_matrix(Grid1D(1.0, 10), TimeGrid(1.0, 10), Physics(1.0, 0.1))
    fact = ThomasFactorization(m)
    with pytest.raises(ValueError):
        fact.solve(np.zeros(m.n + 1))


def test_random_dominant_system_matches_dense():
    rng = np.random.default_rng(2024)
    m = _random_dominant(rng, 8)
    rhs = rng.standard_normal(8)
    x = thomas_solve(m, rhs)
    ref = dense_solve(m, rhs)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)


def test_symmetric_rhs_gives_symmetric_solution():
    # the step matrix is persymmetric, so mirrored data stays mirrored
    m = assemble_step_matrix(Grid1D(1.0, 64), TimeGrid(1.0, 64), Physics(0.3, 0.1))
    rng = np.random.default_rng(7)
    half = rng.standard_normal(m.n // 2 + 1)
    rhs = np.concatenate([half, half[-2::-1]])
    assert len(rhs) == m.n
    x = thomas_solve(m, rhs)
    assert np.max(np.abs(x - x[::-1])) <= 1e-12 * np.max(np.abs(x))


def test_factorization_is_reusable():
    m = assemble_step_matrix(Grid1D(1.0, 50), TimeGrid(1.0, 100), Physics(1.0, 0.1))
    fact = ThomasFactorization(m)
    rng = np.random.default_rng(11)
    for _ in range(4):
        rhs = rng.standard_normal(m.n)
        x = fact.solve(rhs)
        assert np.allclose(m.matvec(x), rhs, rtol=0.0, atol=1e-9 * np.abs(rhs).max())


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=16), seed=st.integers(0, 2**31 - 1))
def test_thomas_matches_dense_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    m = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = thomas_solve(m, rhs)
    ref = dense_solve(m, rhs)
    scale = max(np.linalg.norm(ref, np.inf), 1e-300)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * scale
