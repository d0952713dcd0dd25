"""The banded kernels against dense references: the BandedUnitary matvecs
and BandSolver's pivoted LU, on random five-diagonal matrices."""
import numpy as np
import pytest

from cmvscat.errors import NearSpectrumError
from cmvscat.operator import BandedUnitary, Window
from cmvscat.resolvent import BandSolver

def _random_band(rng, n):
    diags = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    diags[0, :2] = 0
    diags[1, :1] = 0
    diags[3, n - 1:] = 0
    diags[4, n - 2:] = 0
    return diags


def _to_dense(diags):
    n = diags.shape[1]
    A = np.zeros((n, n), dtype=complex)
    for d in range(5):
        o = d - 2
        lo, hi = max(0, -o), n - max(0, o)
        rows = np.arange(lo, hi)
        A[rows, rows + o] = diags[d, lo:hi]
    return A


def _banded(diags):
    """Any five-diagonal matrix in the band-of-rows layout, on sites 0..n-1."""
    return BandedUnitary(Window(0, diags.shape[1] - 1), diags, ())


@pytest.mark.parametrize("n", [9, 64, 257])
def test_matvec_against_dense(n, rng):
    diags = _random_band(rng, n)
    A = _to_dense(diags)
    U = _banded(diags)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(U.matvec(x), A @ x, atol=1e-13)
    np.testing.assert_allclose(U.matvec_adjoint(x), A.conj().T @ x, atol=1e-13)


@pytest.mark.parametrize("n", [9, 64, 513])
def test_factor_solve_against_dense(n, rng):
    # no diagonal boost: pivoting actually has to work.  The bare LU solve
    # is checked, since BandSolver.solve's residual target is set for
    # well-conditioned shifted unitaries, not random matrices.
    diags = _random_band(rng, n)
    A = _to_dense(diags)
    solver = BandSolver(_banded(diags), 0.0)
    for _ in range(3):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solver.lu_solve(b)
        np.testing.assert_allclose(A @ x, b, atol=1e-9)


def test_pivoting_required_case(rng):
    # zero on the first diagonal element forces an immediate row swap
    n = 32
    diags = _random_band(rng, n)
    diags[2, 0] = 0.0
    A = _to_dense(diags)
    solver = BandSolver(_banded(diags), 0.0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = solver.lu_solve(b)
    np.testing.assert_allclose(A @ x, b, atol=1e-9)


def test_singular_matrix_flagged():
    n = 16
    diags = np.zeros((5, n), dtype=complex)  # the zero matrix
    with pytest.raises(NearSpectrumError, match="exactly singular"):
        BandSolver(_banded(diags), 0.0)


def test_import_defers_lapack(package_env):
    # scipy.linalg is looked up on the first factorization, not at import
    import subprocess
    import sys

    code = "import sys, cmvscat; assert 'scipy.linalg' not in sys.modules, 'scipy.linalg'"
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
