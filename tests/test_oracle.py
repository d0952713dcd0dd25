import numpy as np
import pytest

import cmvscat as cs
from cmvscat.errors import ConstructionError
from cmvscat.operator import Window, truncate
from cmvscat.oracle import (
    dense_green,
    finite_time_scattering,
    support_transfer,
    transfer_reflection,
)
from cmvscat.scattering import ScatteringCalculator, theta_grid

from conftest import ZERO_TAIL_FAMILIES, random_sequence


def test_dense_green_defining_property(rng):
    seq = random_sequence(rng)
    win = Window(-32, 31)
    z = 0.4 + 0.2j
    G = dense_green(seq, win, z)
    A = truncate(seq, win).to_dense() - z * np.eye(win.size)
    assert np.max(np.abs(A @ G - np.eye(win.size))) <= 1e-10


def test_dense_green_at_zero_is_adjoint(rng):
    seq = random_sequence(rng)
    win = Window(-16, 15)
    G = dense_green(seq, win, 0.0)
    U = truncate(seq, win).to_dense()
    assert np.max(np.abs(G - U.conj().T)) <= 1e-12


def test_dense_green_size_guard():
    with pytest.raises(ConstructionError):
        dense_green(cs.free(), Window(0, 600), 0.5)


def test_abel_sum_t_zero_single_term():
    seq = cs.single_barrier(0, 0.5)
    win = Window(-256, 255)
    out = finite_time_scattering(seq, 0, win, m_max=40, t=0.0)
    # only the k = 0 term survives: <D C_n^{-1} f, w g>
    U = truncate(seq, win)
    Un = truncate(seq.decouple(0), win)
    D = cs.defect(seq, 0)
    from cmvscat.oracle import _sublattice_packet

    f = _sublattice_packet(win, -24, 6.0, 0)
    g = f.copy()
    w = g.copy()
    for _ in range(40):
        w = Un.matvec_adjoint(w)
    for _ in range(40):
        w = U.matvec(w)
    expect = -np.vdot(D.apply(Un.matvec_adjoint(f), win), w)
    assert out.entries[("l", "l")] == pytest.approx(expect, abs=1e-12)


def test_free_diagonal_matches_minus_overlap():
    # s_ll = 0 on the free line, so <f_l, (s-1) f_l> = -<f_l, f_l> = -1
    win = Window(-512, 511)
    out = finite_time_scattering(cs.free(), 0, win, m_max=120, t=0.999)
    assert out.entries[("l", "l")] == pytest.approx(-1.0, abs=5e-2)
    assert out.entries[("r", "r")] == pytest.approx(-1.0, abs=5e-2)


def test_abel_estimates_improve_toward_stationary():
    win = Window(-512, 511)
    errs = []
    for m_max, t in ((40, 0.9), (80, 0.99), (160, 0.999)):
        out = finite_time_scattering(cs.free(), 0, win, m_max=m_max, t=t)
        errs.append(abs(out.entries[("l", "l")] - (-1.0)))
    assert errs[2] < errs[1] < errs[0]


def test_window_guard():
    with pytest.raises(ConstructionError):
        finite_time_scattering(cs.free(), 0, Window(-64, 63), m_max=100, t=0.5)


@pytest.mark.parametrize("family", sorted(ZERO_TAIL_FAMILIES))
def test_scattering_moduli_match_transfer_oracle(family):
    # |s_ll| = |s_rr| = |r| and |s_lr| = |s_rl| = sqrt(1 - |r|^2) at every
    # decoupling site, with |r| from transfer matrices alone
    seq = ZERO_TAIL_FAMILIES[family]
    thetas = theta_grid(16)
    r = {t: transfer_reflection(seq, t) for t in thetas}
    for t in thetas:
        M = support_transfer(seq, t)
        assert abs(abs(M[0, 1] / M[0, 0]) - r[t]) <= 1e-12
    for n in (0, 1, 2):
        calc = ScatteringCalculator(seq, n)
        for t in thetas:
            s = calc.sample(t)
            assert s.converged
            through = np.sqrt(1.0 - r[t] ** 2)
            gaps = np.abs(np.abs(s.s) - [[r[t], through], [through, r[t]]])
            assert np.max(gaps) <= 1e-12, (n, t, gaps)


def test_transfer_oracle_free_and_single_site():
    # no support: M = I; one site: |r| = |alpha| at every theta
    np.testing.assert_array_equal(support_transfer(cs.free(), 0.7), np.eye(2))
    for t in (0.2, 3.0):
        assert transfer_reflection(cs.single_barrier(1, 0.6j), t) == pytest.approx(0.6, abs=1e-14)


def test_transfer_oracle_needs_zero_tails():
    for seq in (cs.constant(0.5), cs.explicit({0: 0.9}, default=0.3), cs.random_decay(1, 0.0)):
        with pytest.raises(ValueError):
            transfer_reflection(seq, 1.0)
