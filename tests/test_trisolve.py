"""Tridiagonal assembly and cyclic-reduction solver tests.

The dense LAPACK route (``dense_solve``, tests/dense_oracle.py) is the
independent oracle for the cyclic-reduction levels and the dense tail up to
n = 2 * DENSE_TAIL_ROWS + 1.  Above that, the scalar Thomas sweep
(``thomas_sweep``) or the residual through ``matvec``, both from the same
module, stands in for it, so no matrix larger than 513 x 513 is built.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import Tridiagonal, dense_solve, matvec, thomas_sweep
from obstring import fd_solver, galerkin
from obstring.core import Grid1D, Physics, TimeGrid, single_mode_config
from obstring.trisolve import DENSE_TAIL_ROWS, ThomasFactorization, assemble_step_matrix


def _random_dominant(
    rng: np.random.Generator, n: int, symmetric: bool = False
) -> Tridiagonal:
    """Strictly diagonally dominant system with random signs."""
    lower = rng.uniform(-1.0, 1.0, max(n - 1, 0))
    upper = lower.copy() if symmetric else rng.uniform(-1.0, 1.0, max(n - 1, 0))
    margin = rng.uniform(0.5, 2.0, n)
    diag = margin.copy()
    if n > 1:
        diag[:-1] += np.abs(upper)
        diag[1:] += np.abs(lower)
    diag *= np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


def _step_matrix(grid: Grid1D, time: TimeGrid, physics: Physics) -> Tridiagonal:
    return Tridiagonal(*assemble_step_matrix(grid, time, physics))


def test_identity_matrix_returns_rhs():
    n = 7
    m = Tridiagonal(lower=np.zeros(n - 1), diag=np.ones(n), upper=np.zeros(n - 1))
    rhs = np.arange(1.0, n + 1.0)
    assert np.array_equal(ThomasFactorization(*m).solve(rhs), rhs)


def test_hand_solved_three_by_three():
    m = Tridiagonal(
        lower=np.array([-1.0, -1.0]),
        diag=np.array([2.0, 2.0, 2.0]),
        upper=np.array([-1.0, -1.0]),
    )
    x = ThomasFactorization(*m).solve(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0, 1.0], rtol=0.0, atol=1e-14)


def test_assemble_unit_grid_matches_hand_matrix():
    # dt = dx = 1 and no damping: 1/dt^2 + 2/dx^2 = 3 on the diagonal, -1 off.
    m = _step_matrix(Grid1D(5.0, 5), TimeGrid(4.0, 4), Physics(0.0, 0.1))
    assert m.n == 4
    assert np.all(m.diag == 3.0)
    assert np.all(m.lower == -1.0)
    assert np.all(m.upper == -1.0)


def test_assemble_reference_resolution_diagonal():
    m = _step_matrix(Grid1D(1.0, 5000), TimeGrid(0.3, 1500), Physics(0.01, 5e-4))
    coupling = (0.01 * 5000 + 1.0) * 25e6
    assert m.n == 4999
    assert np.allclose(m.diag, 25e6 + 2.0 * coupling, rtol=1e-12)
    assert np.allclose(m.upper, -coupling, rtol=1e-12)
    assert np.allclose(m.lower, m.upper, rtol=0.0, atol=0.0)


def test_solve_rejects_wrong_rhs_length():
    m = _step_matrix(Grid1D(1.0, 10), TimeGrid(1.0, 10), Physics(1.0, 0.1))
    fact = ThomasFactorization(*m)
    with pytest.raises(ValueError):
        fact.solve(np.zeros(m.n + 1))


def test_random_dominant_system_matches_dense():
    rng = np.random.default_rng(2024)
    m = _random_dominant(rng, 8)
    rhs = rng.standard_normal(8)
    x = ThomasFactorization(*m).solve(rhs)
    ref = dense_solve(m, rhs)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)


def test_symmetric_rhs_gives_symmetric_solution():
    # the step matrix is persymmetric, so mirrored data stays mirrored
    m = _step_matrix(Grid1D(1.0, 64), TimeGrid(1.0, 64), Physics(0.3, 0.1))
    rng = np.random.default_rng(7)
    half = rng.standard_normal(m.n // 2 + 1)
    rhs = np.concatenate([half, half[-2::-1]])
    assert len(rhs) == m.n
    x = ThomasFactorization(*m).solve(rhs)
    assert np.max(np.abs(x - x[::-1])) <= 1e-12 * np.max(np.abs(x))


def test_factorization_is_reusable():
    m = _step_matrix(Grid1D(1.0, 50), TimeGrid(1.0, 100), Physics(1.0, 0.1))
    fact = ThomasFactorization(*m)
    rng = np.random.default_rng(11)
    for _ in range(4):
        rhs = rng.standard_normal(m.n)
        x = fact.solve(rhs)
        assert np.allclose(matvec(m, x), rhs, rtol=0.0, atol=1e-9 * np.abs(rhs).max())


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=16), seed=st.integers(0, 2**31 - 1))
def test_thomas_matches_dense_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    m = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = ThomasFactorization(*m).solve(rhs)
    ref = dense_solve(m, rhs)
    scale = max(np.linalg.norm(ref, np.inf), 1e-300)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * scale


@pytest.mark.parametrize(
    "n", [*range(1, 71), *(2**k + d for k in range(7, 13) for d in (-1, 0, 1))]
)
def test_matches_dense_across_levels_and_paddings(n):
    # 1..70 and 2^k - 1, 2^k, 2^k + 1 up to 4097: every level count up to
    # 13, with and without a padded level at each depth.  Above one level
    # over the dense tail the scalar sweep stands in for LAPACK, so the
    # largest n never builds an n x n matrix.
    rng = np.random.default_rng(n)
    m = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = ThomasFactorization(*m).solve(rhs)
    ref = dense_solve(m, rhs) if n <= 2 * DENSE_TAIL_ROWS + 1 else thomas_sweep(m, rhs)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-14 * np.linalg.norm(ref, np.inf)


def _reference_step_matrix(cells_n: int = 5000) -> Tridiagonal:
    return _step_matrix(Grid1D(1.0, cells_n), TimeGrid(0.3, 1500), Physics(0.01, 5e-4))


def test_reference_step_matrix_meets_residual_contract():
    m = _reference_step_matrix()
    assert m.n == 4999
    rng = np.random.default_rng(4999)
    rhs = 25e6 * rng.standard_normal(m.n)
    x = ThomasFactorization(*m).solve(rhs)
    norm_m = np.max(np.abs(m.diag)) + 2.0 * np.max(np.abs(m.upper))
    bound = 1e-12 * (norm_m * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert np.max(np.abs(matvec(m, x) - rhs)) <= bound


@pytest.mark.parametrize("cells_n", [5000, 4999])
def test_mirrored_rhs_gives_mirrored_solution_at_reference_size(cells_n):
    # n = 4999 is odd; n = 4998 is padded on the first level
    m = _reference_step_matrix(cells_n)
    rng = np.random.default_rng(cells_n)
    v = rng.standard_normal(m.n)
    x = ThomasFactorization(*m).solve(v + v[::-1])
    assert np.max(np.abs(x - x[::-1])) <= 1e-12 * np.max(np.abs(x))


def test_solve_leaves_rhs_untouched():
    m = _reference_step_matrix(4999)
    rhs = np.random.default_rng(3).standard_normal(m.n)
    kept = rhs.copy()
    rhs.flags.writeable = False
    ThomasFactorization(*m).solve(rhs)
    assert np.array_equal(rhs, kept)


@pytest.mark.parametrize("cells_n", [5000, 4999])
def test_repeated_solves_are_bitwise_identical(cells_n):
    # the work buffers are reused: neither an earlier result nor a
    # non-finite rhs in between may leak into a later solve
    m = _reference_step_matrix(cells_n)
    fact = ThomasFactorization(*m)
    rhs = np.random.default_rng(5).standard_normal(m.n)
    first = fact.solve(rhs)
    kept = first.copy()
    fact.solve(np.full(m.n, np.nan))
    fact.solve(-rhs)
    assert first.tobytes() == kept.tobytes()
    assert fact.solve(rhs).tobytes() == kept.tobytes()


# ---------------------------------------------------------------------------
# the dense tail: the levels at and below DENSE_TAIL_ROWS rows are one product

CUT = DENSE_TAIL_ROWS


def _meets_residual_contract(m: Tridiagonal, x: np.ndarray, rhs: np.ndarray) -> bool:
    magnitudes = Tridiagonal(np.abs(m.lower), np.abs(m.diag), np.abs(m.upper))
    norm_m = np.max(matvec(magnitudes, np.ones(m.n)))  # ||M||_inf, the largest row sum
    bound = 1e-12 * (norm_m * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    return np.max(np.abs(matvec(m, x) - rhs)) <= bound


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
@pytest.mark.parametrize(
    "n", [1, 2, CUT - 1, CUT, CUT + 1, 2 * CUT - 1, 2 * CUT, 2 * CUT + 1, 4999]
)
def test_dense_tail_matches_dense_around_the_cut(n, symmetric):
    # n <= CUT is the product alone; CUT + 1 .. 2 CUT + 1 cut after one
    # level, padded or not; 4999 is the reference size, cut at 156 rows
    rng = np.random.default_rng(n + symmetric)
    m = _random_dominant(rng, n, symmetric)
    rhs = rng.standard_normal(n)
    x = ThomasFactorization(*m).solve(rhs)
    assert _meets_residual_contract(m, x, rhs)
    if n <= 2 * CUT + 1:
        ref = dense_solve(m, rhs)
        assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)


@settings(max_examples=200, deadline=None)
@given(
    cells_n=st.integers(2, 600),
    length=st.floats(1e-3, 1e3),
    horizon=st.floats(1e-3, 1e3),
    steps_m=st.integers(1, 10**6),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_step_matrix_is_diagonally_dominant(
    cells_n, length, horizon, steps_m, alpha, seed
):
    # the factorization divides by its pivots unchecked, which is safe only
    # on such matrices.  Each row keeps a margin of 1/dt^2 up to the rounding
    # of its diagonal, which takes all of it once dt^2 (alpha/dt + 1)/dx^2
    # nears 2^53; the end rows keep the coupling too, so the matrix stays
    # irreducibly dominant.  A numpy warning in the solve fails the test.
    time = TimeGrid(horizon, steps_m)
    m = _step_matrix(Grid1D(length, cells_n), time, Physics(alpha, 0.1))
    margin = matvec(Tridiagonal(-np.abs(m.lower), m.diag, -np.abs(m.upper)), np.ones(m.n))
    slack = 4.0 * np.finfo(float).eps * m.diag
    assert np.all(margin >= (1.0 - 1e-12) / time.dt**2 - slack)
    assert margin[0] > 0.0 and margin[-1] > 0.0
    rhs = np.random.default_rng(seed).standard_normal(m.n) * m.diag
    x = ThomasFactorization(*m).solve(rhs)
    assert _meets_residual_contract(m, x, rhs)


def test_solver_and_oracle_run_without_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    # both sides of the cut: 49 interior rows, and 299 (cut after one level)
    for cells_n in (50, 300):
        cfg = single_mode_config(
            resolution=cells_n, offset=0.3, amplitude=0.5, horizon_T=0.02)
        series, _ = fd_solver.run(cfg)
        assert np.all(np.isfinite(series.fields["eta"]))
    oracle = galerkin.integrate(cfg, 4)
    assert np.all(np.isfinite(oracle.fields["eta"]))
