import numpy as np
import pytest

import cmvscat as cs
from cmvscat.dynamics import WavePacket
from cmvscat.errors import ConstructionError
from cmvscat.operator import Window, truncate
from cmvscat.oracle import (
    dense_green,
    dynamical_scattering,
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


def _odd_packet(window, center, width, theta0):
    """The mirror of ``WavePacket``: a left-moving packet on the odd sublattice."""
    k = np.arange(window.a, window.b + 1)
    psi = np.exp(-((k - center) ** 2) / (4.0 * width ** 2) + 1j * theta0 * k)
    psi[k % 2 == 0] = 0.0
    return psi / np.linalg.norm(psi)


def _spectral_weights(psi, window, center, parity):
    """(w, N): the normalised |FFT|^2 of psi's envelope on one sublattice, over
    the 1025 sites about ``center`` that hold the packet, and its length."""
    sites = np.arange(window.a, window.b + 1)
    held = (np.abs(sites - center) <= 512) & (sites % 2 == parity)
    assert np.sum(np.abs(psi[~held]) ** 2) <= 1e-30
    w = np.abs(np.fft.fft(psi[held])) ** 2
    return w / np.sum(w), int(np.sum(held))


SPECTRAL_FAMILIES = {
    "explicit2": ZERO_TAIL_FAMILIES["explicit2"],
    "barrier": cs.single_barrier(0, 0.6 * np.exp(2j)),
    "explicit5": ZERO_TAIL_FAMILIES["explicit5"],
    "free": cs.free(),
}


@pytest.mark.parametrize("family", SPECTRAL_FAMILIES)
def test_dynamical_scattering_matches_spectral_sum(family):
    # <f, S f> = sum_m w_m s_ll(-phi_m) for a right-moving packet left of the
    # support, and sum_m w_m s_rr(+phi_m) for its left-moving mirror: free U
    # maps an even envelope f_j to f_{j-1}, so mode e^{i phi j} sees e^{-i phi},
    # and an odd envelope the other way.  The envelope over the stretch that
    # holds the packet gives the same sum as over the whole window: the
    # N-point sum aliases only Fourier coefficients of s at lags near
    # N >= 512, and the echoes of these supports die out long before that.
    seq = SPECTRAL_FAMILIES[family]
    window = Window(-4096, 4096)
    conj_gap = {"ll": 0.0, "rr": 0.0}
    for n in (0, 1):
        calc = ScatteringCalculator(seq, n)
        for theta0 in (0.3, 1.3, 2.2):
            packets = {
                "ll": (WavePacket(-600, 40.0, theta0).build(window), -600, 0, -1, 0),
                "rr": (_odd_packet(window, 600, 40.0, theta0), 600, 1, 1, 1),
            }
            for key, (psi, center, parity, sign, entry) in packets.items():
                got = dynamical_scattering(seq, n, psi, 900, window)
                w, N = _spectral_weights(psi, window, center, parity)
                modes = np.flatnonzero(w > 1e-20)
                assert np.sum(w[w <= 1e-20]) <= 1e-16
                s = np.array([calc.sample(sign * 2 * np.pi * m / N).s[entry, entry]
                              for m in modes])
                assert abs(got - w[modes] @ s) <= 1e-12, (key, n, theta0)
                conj_gap[key] = max(conj_gap[key], abs(got - w[modes] @ s.conj()))
    if family != "free":
        # the other phase convention is far off: the test pins the phase
        assert min(conj_gap.values()) > 1e-2, conj_gap


def test_free_diagonal_matches_minus_overlap():
    # s_ll = s_rr = 0 on the free line at every cut, so <f, S f> = 0 and
    # <f, (S - 1) f> = -<f, f> = -1 for a packet in either incoming channel
    window = Window(-2048, 2048)
    for n in (0, 1, 2):
        for psi in (WavePacket(-200, 20.0, 0.7).build(window),
                    _odd_packet(window, 200, 20.0, 0.7)):
            assert abs(dynamical_scattering(cs.free(), n, psi, 300, window)) <= 1e-15


def test_window_guard():
    # the packet reaches the left edge running back, or the right edge
    # running forward; either raises instead of returning a polluted value
    pkt = WavePacket(-400, 20.0)
    with pytest.raises(ConstructionError, match=r"edge after \d+ steps back$"):
        dynamical_scattering(cs.free(), 0, pkt, 300, Window(-1024, 1024))
    with pytest.raises(ConstructionError, match=r"edge after \d+ steps$"):
        dynamical_scattering(cs.free(), 0, pkt, 500, Window(-2048, 512))


@pytest.mark.parametrize("packet, t, match", [
    (np.ones(7), 10, "shape"),
    (2 * WavePacket(-200, 20.0).build(Window(-1024, 1024)), 10, "norm"),
    (WavePacket(-200, 20.0), 2.5, "whole"),
    (WavePacket(-200, 20.0), 0, ">= 1"),
], ids=["shape", "norm", "t-not-whole", "t-zero"])
def test_dynamical_scattering_validates_packet_and_t(packet, t, match):
    with pytest.raises(ConstructionError, match=match):
        dynamical_scattering(cs.free(), 0, packet, t, Window(-1024, 1024))


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
