"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion (plain ``pytest`` shows the lines only on failure).
Expected total runtime is a few seconds on one core; the zero-tail
scattering sweeps run on the unit circle and factor no band.
"""
import numpy as np
import pytest

import cmvscat as cs
from cmvscat.dynamics import WavePacket, reflection_probe
from cmvscat.operator import Window, defect
from cmvscat.oracle import dense_green
from cmvscat.resolvent import RadialSchedule, m_function
from cmvscat.scattering import ScatteringCalculator, classify_offdiagonal, sweep, theta_grid
from cmvscat.weyl import green_weyl, transfer, weyl_solutions

SCHEDULE = RadialSchedule(eps0=1e-2, levels=6, contraction=0.5,
                          extrapolation="richardson")
GRID64 = theta_grid(64)


def _report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def free_sweeps():
    out = {}
    for n in (0, 1):
        out[n] = sweep(cs.free(), n, GRID64, SCHEDULE)
    return out


@pytest.fixture(scope="module")
def random_sweeps():
    seq = cs.random_decay(seed=1, rate=0.5)
    out = {}
    for n in (0, 1):
        out[n] = sweep(seq, n, GRID64, SCHEDULE)
    return out


def test_criterion_1_free_reflectionless(free_sweeps):
    worst = 0.0
    n_conv = 0
    for n, samples in free_sweeps.items():
        assert [s.theta for s in samples] == list(GRID64)
        for s in samples:
            if not s.converged:
                continue
            n_conv += 1
            worst = max(worst, abs(s.s_ll), abs(s.s_rr), s.refl_residual)
    total = sum(len(v) for v in free_sweeps.values())
    ok = (n_conv == total) and worst <= 1e-4
    _report(1, ok, f"free max(|s_ll|, |s_rr|, residual) = {worst:.3e} "
                   f"(tol 1e-4), converged {n_conv}/{total}")


def test_criterion_2_unitarity(random_sweeps):
    worst = 0.0
    n_conv = 0
    total = 0
    for n, samples in random_sweeps.items():
        for s in samples:
            total += 1
            if not s.converged:
                continue
            n_conv += 1
            if s.support_l and s.support_r:
                worst = max(worst, s.unitarity_defect)
    frac = n_conv / total
    ok = worst <= 1e-3 and frac >= 0.90
    _report(2, ok, f"max two-channel unitarity defect = {worst:.3e} (tol 1e-3), "
                   f"converged fraction {frac:.3f} (need >= 0.90)")


def test_criterion_3_diagonal_consistency(random_sweeps):
    n_small = 0
    n_conv = 0
    within_err = True
    worst_gap = 0.0
    for n, samples in random_sweeps.items():
        for s in samples:
            if not s.converged:
                continue
            n_conv += 1
            gaps = (abs(s.s_ll - s.diag_moebius[0]), abs(s.s_rr - s.diag_moebius[1]))
            budgets = (s.err_entries[0, 0] + s.err_diag_moebius[0],
                       s.err_entries[1, 1] + s.err_diag_moebius[1])
            worst_gap = max(worst_gap, *gaps)
            if gaps[0] > budgets[0] or gaps[1] > budgets[1]:
                within_err = False
            if max(gaps) <= 1e-3:
                n_small += 1
    frac_small = n_small / n_conv if n_conv else 0.0
    ok = within_err and frac_small >= 0.95
    _report(3, ok, f"resolvent-vs-Moebius diagonals: worst gap {worst_gap:.3e}, "
                   f"within error budgets: {within_err}, "
                   f"<=1e-3 at {frac_small:.3f} of samples (need >= 0.95)")


def test_criterion_4_appendix_green_formulas():
    rng = np.random.default_rng(44)
    win = Window(-96, 95)
    worst_rel = 0.0
    worst_shift = 0.0
    mags = (0.3, 0.7, 1.5)
    for trial in range(20):
        seq = cs.random_decay(seed=1000 + trial, rate=0.5)
        z = mags[trial % 3] * np.exp(2j * np.pi * rng.uniform())
        k = int(rng.integers(-5, 6))
        kp = int(rng.integers(-5, 6))
        k0 = int(rng.integers(-3, 4))
        ref = dense_green(seq, win, z)[win.index(k), win.index(kp)]
        for variant in ("plain", "hat"):
            got = green_weyl(seq, k, kp, z, k0, variant)
            worst_rel = max(worst_rel, abs(got - ref) / max(abs(ref), 1e-12))
        shifted = green_weyl(seq, k, kp, z, k0 + 1, "plain")
        base = green_weyl(seq, k, kp, z, k0, "plain")
        worst_shift = max(worst_shift, abs(shifted - base) / max(abs(base), 1e-12))
    ok = worst_rel <= 1e-8 and worst_shift <= 1e-8
    _report(4, ok, f"green_weyl vs dense rel err {worst_rel:.3e}, "
                   f"k0-shift rel err {worst_shift:.3e} (tol 1e-8)")


def test_criterion_5_decoupling_point_invariance():
    grid = theta_grid(32)
    bad = 0
    excluded = 0
    total = 0
    tol = 1e-3
    for seq in (cs.free(), cs.single_barrier(0, 0.9)):
        per_n = {}
        for n in (0, 1, 2):
            calc = ScatteringCalculator(seq, n, SCHEDULE)
            per_n[n] = [calc.sample(t) for t in grid]
        for i in range(len(grid)):
            total += 1
            samples = [per_n[n][i] for n in (0, 1, 2)]
            if not all(s.converged for s in samples):
                excluded += 1
                continue
            def straddles(s):
                vals = []
                if s.support_l:
                    vals.append((abs(s.s_ll), s.err_entries[0, 0]))
                if s.support_r:
                    vals.append((abs(s.s_rr), s.err_entries[1, 1]))
                return any(abs(v - tol) <= e for v, e in vals)
            if any(straddles(s) for s in samples):
                excluded += 1
                continue
            flags = {classify_offdiagonal(s, tol) for s in samples}
            if len(flags) != 1:
                bad += 1
    ok = bad == 0 and excluded <= 0.05 * total
    _report(5, ok, f"classification disagreements {bad}/{total}, "
                   f"excluded {excluded} (allowed {int(0.05 * total)})")


def test_criterion_6_transfer_algebra():
    rng = np.random.default_rng(46)
    worst_det = 0.0
    worst_res = 0.0
    for trial in range(100):
        seq = cs.random_decay(seed=2000 + trial, rate=0.3)
        z = (0.2 + 1.6 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        k = int(rng.integers(-8, 9))
        worst_det = max(worst_det, abs(np.linalg.det(transfer(seq, z, k)) + 1.0))
        if trial % 10 == 0:
            side = "r" if trial % 20 == 0 else "l"
            zz = z if abs(z) < 1 else 1 / np.conj(z)
            pair = weyl_solutions(seq, side, k, zz, Window(k - 6, k + 6))
            worst_res = max(worst_res, pair.recursion_residual(seq, zz))
    ok = worst_det <= 1e-12 and worst_res <= 1e-10
    _report(6, ok, f"max |det T + 1| = {worst_det:.3e} (tol 1e-12), "
                   f"max recursion residual {worst_res:.3e} (tol 1e-10)")


def test_criterion_7_defect_identities():
    rng = np.random.default_rng(47)
    worst = 0.0
    for trial in range(100):
        seq = cs.random_decay(seed=3000 + trial, rate=0.2)
        for n in (2 * int(rng.integers(-3, 4)), 2 * int(rng.integers(-3, 4)) + 1):
            win = Window(n - 8, n + 8)
            dense = defect(seq, n).as_dense(win)
            a = seq.alpha
            r = seq.rho
            if n % 2 == 0:
                col = lambda j: dense[:, win.index(j)]
                worst = max(worst, float(np.max(np.abs(
                    col(n) - (-a(n + 1) / r(n + 1)) * col(n + 1)))))
                worst = max(worst, float(np.max(np.abs(
                    col(n - 1) - (np.conj(a(n - 1)) / r(n - 1)) * col(n - 2)))))
            else:
                arow = lambda j: np.conj(dense[win.index(j), :])
                worst = max(worst, float(np.max(np.abs(
                    arow(n) - (-np.conj(a(n + 1)) / r(n + 1)) * arow(n + 1)))))
                worst = max(worst, float(np.max(np.abs(
                    arow(n - 1) - (a(n - 1) / r(n - 1)) * arow(n - 2)))))
    ok = worst <= 1e-14
    _report(7, ok, f"max defect-identity residual {worst:.3e} (tol 1e-14, "
                   "column identities at even n, adjoint identities at odd n)")


def test_criterion_8_dynamics_probe():
    packet = WavePacket(center=-400, width=40.0, theta0=np.pi / 2)
    free_res = reflection_probe(cs.free(), 0, packet, horizon=6000,
                                window=Window(-4096, 4096))
    barrier = cs.single_barrier(0, 0.9)
    b1 = reflection_probe(barrier, 0, packet, horizon=6000, window=Window(-4096, 4096))
    b2 = reflection_probe(barrier, 0, packet, horizon=6000, window=Window(-8192, 8192))
    stable = abs(b1.left_mass - b2.left_mass) <= 0.10 * b1.left_mass
    ok = free_res.left_mass <= 1e-3 and b1.left_mass > 0.05 and stable
    _report(8, ok, f"free reflected mass {free_res.left_mass:.3e} (tol 1e-3); "
                   f"barrier reflected mass {b1.left_mass:.4f} vs doubled-window "
                   f"{b2.left_mass:.4f} (need > 0.05, stable to 10%)")


def test_criterion_9_m_normalization_and_sign():
    rng = np.random.default_rng(49)
    worst_norm = 0.0
    signs_ok = True
    for trial in range(20):
        seq = cs.random_decay(seed=4000 + trial, rate=0.4)
        side = "l" if trial % 2 else "r"
        n = int(rng.integers(-4, 5))
        m0 = m_function(seq, side, n, 0.0)
        expect = -1.0 if side == "l" else 1.0
        worst_norm = max(worst_norm, abs(m0 - expect))
    for trial in range(50):
        seq = cs.random_decay(seed=5000 + trial, rate=0.4)
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        n = int(rng.integers(-4, 5))
        if m_function(seq, "r", n, z).real <= 0:
            signs_ok = False
        if m_function(seq, "l", n, z).real >= 0:
            signs_ok = False
    ok = worst_norm <= 1e-12 and signs_ok
    _report(9, ok, f"max |m(0) -+ 1| = {worst_norm:.3e} (solver tol), "
                   f"Herglotz sign pattern holds: {signs_ok}")
