import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmvscat as cs
from cmvscat.errors import NotConvergedError
from cmvscat.operator import Window, defect, truncate
from cmvscat.resolvent import GUARD, RadialSchedule, grown_pairings, m_pair
from cmvscat.scattering import (
    ScatteringCalculator,
    classify_offdiagonal,
    off_diagonality_report,
    reflectionless_residual,
    theta_grid,
)

from conftest import ZERO_TAIL_FAMILIES

FAST = RadialSchedule(eps0=1e-2, levels=4, contraction=0.5)


@pytest.mark.parametrize("n", [0, 1])
def test_free_sample_both_parities(n):
    s = ScatteringCalculator(cs.free(), n, FAST).sample(0.7)
    assert s.converged
    assert abs(s.s_ll) <= 1e-6
    assert abs(s.s_rr) <= 1e-6
    assert abs(abs(s.s_lr) - 1) <= 1e-6
    assert abs(abs(s.s_rl) - 1) <= 1e-6
    assert s.unitarity_defect <= 1e-6
    assert s.refl_residual <= 1e-6
    assert s.density_l == pytest.approx(1.0, abs=1e-6)
    assert s.density_r == pytest.approx(1.0, abs=1e-6)
    assert s.support_l and s.support_r


@pytest.mark.parametrize("n", [0, 1])
def test_unitarity_random_sequence(n):
    seq = cs.random_decay(seed=1, rate=0.5)
    calc = ScatteringCalculator(seq, n, FAST)
    for theta in theta_grid(6):
        s = calc.sample(theta)
        if not s.converged:
            continue
        if s.support_l and s.support_r:
            assert s.unitarity_defect <= 1e-3
            # unitarity also forces |s_ll| = |s_rr|
            assert abs(abs(s.s_ll) - abs(s.s_rr)) <= 2e-3


def test_resolvent_route_vs_moebius_diagonals():
    seq = cs.random_decay(seed=7, rate=0.4)
    calc = ScatteringCalculator(seq, 0, FAST)
    for theta in theta_grid(5):
        s = calc.sample(theta)
        if not s.converged:
            continue
        tol_ll = s.err_entries[0, 0] + s.err_diag_moebius[0] + 1e-9
        tol_rr = s.err_entries[1, 1] + s.err_diag_moebius[1] + 1e-9
        assert abs(s.s_ll - s.diag_moebius[0]) <= tol_ll
        assert abs(s.s_rr - s.diag_moebius[1]) <= tol_rr


def test_diagonal_quotient_vanishes_on_conjugate_pair():
    # if M^l = -conj(M^r) then the s_rr numerator cancels identically
    Ml = -np.conj(0.3 + 0.8j)
    Mr = 0.3 + 0.8j
    num = np.conj(Ml) + Mr
    assert num == 0


def test_reflectionless_residual_free():
    for theta in (0.3, 2.0, 5.1):
        r = reflectionless_residual(cs.free(), 0, theta, FAST)
        assert r <= 1e-6


def test_reflectionless_residual_barrier_positive_and_window_stable():
    seq = cs.single_barrier(0, 0.9)
    theta = 1.1
    assert reflectionless_residual(seq, 0, theta, FAST) > 0.01


def test_residual_n_independence_of_classification():
    seq = cs.single_barrier(0, 0.9)
    tol = 1e-3
    for theta in (0.7, 2.9):
        flags = []
        for n in (0, 2):
            r = reflectionless_residual(seq, n, theta, FAST)
            flags.append(r <= tol)
        assert flags[0] == flags[1]


def test_sample_parity_flip_classification_matches():
    seq = cs.single_barrier(0, 0.9)
    tol = 1e-3
    for theta in (0.9, 2.1):
        cls = []
        for n in (0, 1):
            calc = ScatteringCalculator(seq, n, FAST)
            s = calc.sample(theta)
            assert s.converged
            cls.append(classify_offdiagonal(s, tol))
        assert cls[0] == cls[1]


def test_off_diagonality_report_free():
    rep = off_diagonality_report(cs.free(), 0, theta_grid(8), tol=1e-3, schedule=FAST)
    assert rep.summary["converged"] == 8
    assert rep.summary["offdiagonal_fraction"] == 1.0
    assert rep.summary["agreement_fraction"] == 1.0


def test_off_diagonality_report_barrier_agreement():
    rep = off_diagonality_report(cs.single_barrier(0, 0.9), 0, theta_grid(8),
                                 tol=1e-3, schedule=FAST)
    assert rep.summary["converged"] >= 7
    # a strong barrier is not reflectionless anywhere
    assert rep.summary["offdiagonal_fraction"] <= 0.2
    assert rep.summary["agreement_fraction"] >= 0.95


# A constant non-zero tail keeps a sequence on the radial route.
RADIAL = cs.explicit({0: 0.9}, default=0.3)


def test_sample_records_failure_instead_of_raising(monkeypatch):
    # a Schur depth cap too small for the schedule forces the hard failure
    # path on a sequence with no exact tail; the sample reports it instead
    # of raising.  The schedule is built first: its own check rejects the
    # patched cap.
    seq = cs.random_decay(1, 0.0)
    schedule = RadialSchedule()
    good = ScatteringCalculator(seq, 0, schedule).sample(2.0)
    monkeypatch.setattr(cs.resolvent, "MAX_GROWN_SPAN", 4096)
    bad = ScatteringCalculator(seq, 0, schedule).sample(2.0)
    assert good.converged
    assert not bad.converged
    assert bad.error == "NotConvergedError"
    assert np.isnan(bad.s[0, 0].real)


def test_single_channel_defect_is_modulus_deviation():
    from cmvscat.scattering import _unitarity_defect

    s = np.array([[0.6 + 0.8j, 0.0], [0.0, 0.3]], dtype=complex)
    assert _unitarity_defect(s, True, False) == pytest.approx(0.0, abs=1e-15)
    assert _unitarity_defect(s, False, True) == pytest.approx(0.7, abs=1e-15)
    assert _unitarity_defect(s, False, False) == 0.0


def test_constant_sequence_gap_and_arc():
    # constant alpha: essential spectrum is an arc; inside the gap both
    # channels are inactive, on the arc the operator is reflectionless
    sched = RadialSchedule(eps0=1e-2, levels=5, contraction=0.5)
    calc = ScatteringCalculator(cs.constant(0.5), 0, sched)
    gap = calc.sample(0.3)
    assert gap.converged
    assert not gap.support_l and not gap.support_r
    assert gap.density_l <= 1e-3 and gap.density_r <= 1e-3
    assert classify_offdiagonal(gap, 1e-3)  # vacuously off-diagonal
    arc = calc.sample(np.pi)
    assert arc.converged and arc.support_l and arc.support_r
    assert abs(arc.s_ll) <= 1e-6 and abs(arc.s_rr) <= 1e-6
    assert arc.refl_residual <= 1e-6
    assert arc.unitarity_defect <= 1e-6


def test_diagonal_via_M_matches_calculator():
    got = cs.diagonal_via_M(cs.free(), 0, 0.8, FAST)
    assert abs(got[0]) <= 1e-6 and abs(got[1]) <= 1e-6


def test_diagonal_via_M_runs_no_defect_pairing(monkeypatch):
    seq = cs.random_decay(seed=1, rate=0.5)
    want = ScatteringCalculator(seq, 0, FAST).sample(1.3).diag_moebius

    def no_pairings(*args, **kw):
        raise AssertionError("defect pairing on the Weyl-side route")

    monkeypatch.setattr(ScatteringCalculator, "_block_pairings", no_pairings)
    assert cs.diagonal_via_M(seq, 0, 1.3, FAST) == want


def test_sample_runs_no_halfline_solve(monkeypatch):
    seq = cs.random_decay(seed=1, rate=0.5)
    want = ScatteringCalculator(seq, 0, FAST).sample(1.3)

    def no_halfline(*args, **kw):
        raise AssertionError("banded half-line solve on the production route")

    monkeypatch.setattr(cs.resolvent, "halfline_green_nn", no_halfline)
    got = ScatteringCalculator(seq, 0, FAST).sample(1.3)
    assert got.converged
    np.testing.assert_array_equal(got.s, want.s)


@pytest.mark.parametrize("n", [0, 1])
def test_reflectionless_residual_is_the_sample_residual(n):
    seq = cs.single_barrier(0, 0.9)
    want = ScatteringCalculator(seq, n, FAST).sample(1.1).refl_residual
    assert reflectionless_residual(seq, n, 1.1, FAST) == want


@pytest.mark.parametrize("n", [0, 1])
def test_pairing_window_starts_guard_over_eps_from_site(n, monkeypatch):
    # the banded reference route pre-grows its window at each schedule point
    calc = ScatteringCalculator(RADIAL, n)
    factored = []
    factor = cs.resolvent.BandSolver.__init__

    def recording_factor(self, unitary, z):
        factored.append((unitary.window, complex(z)))
        factor(self, unitary, z)

    monkeypatch.setattr(cs.resolvent.BandSolver, "__init__", recording_factor)
    for z in calc.schedule.points(1.3):
        grown_pairings(RADIAL, Window(n - 4, n + 4), z, calc._rhs, calc._probes)
    # one doubling comparison, two factorizations, at each of the six levels
    assert len(factored) == 12
    first = {}
    for window, z in factored:
        first.setdefault(z, window)
    assert len(first) == 6
    for z, window in first.items():
        reach = GUARD / (1.0 - abs(z))
        assert n - window.a >= reach and window.b - n >= reach


def test_route_follows_the_tails():
    for seq in ZERO_TAIL_FAMILIES.values():
        assert ScatteringCalculator(seq, 1).on_circle
    for seq in (cs.constant(0.5), cs.periodic([0.3, -0.5j]), RADIAL, cs.random_decay(1, 0.0)):
        assert not ScatteringCalculator(seq, 1).on_circle


# Sequences whose tails are constant, periodic or absent: their samples
# take the radial route.
RADIAL_FAMILIES = {
    "constant": cs.constant(0.5),
    "periodic3": cs.periodic([0.3, -0.5j, 0.2 + 0.1j]),
    "periodic2": cs.periodic([0.4, -0.3 + 0.2j]),
    "explicit_default": cs.explicit({0: 0.9}, default=0.5),
    "random_decay_rate0": cs.random_decay(1, 0.0),
}


@pytest.mark.parametrize("family", sorted(ZERO_TAIL_FAMILIES) + sorted(RADIAL_FAMILIES))
def test_block_pairings_match_banded(family):
    seq = {**ZERO_TAIL_FAMILIES, **RADIAL_FAMILIES}[family]
    worst = 0.0
    for n in (0, 1, 2):
        calc = ScatteringCalculator(seq, n)
        for r in (0.99, 0.995):
            for theta in (1.3, 4.4):
                z = r * np.exp(1j * theta)
                m_l, m_r = m_pair(seq, n, z)
                block = calc._block_pairings(z, m_l, m_r)
                banded = grown_pairings(seq, Window(n - 4, n + 4), z, calc._rhs, calc._probes)
                worst = max(worst, np.max(np.abs(block - banded)) / np.max(np.abs(banded)))
    assert worst <= 1e-10


@pytest.mark.parametrize("family", sorted(ZERO_TAIL_FAMILIES))
def test_circle_samples_within_radial_error(family, monkeypatch):
    seq = ZERO_TAIL_FAMILIES[family]
    circle = {n: ScatteringCalculator(seq, n) for n in (0, 1, 2)}
    monkeypatch.setattr(cs.scattering, "has_zero_tails", lambda seq, n: False)
    for n, calc in circle.items():
        radial = ScatteringCalculator(seq, n)
        assert calc.on_circle and not radial.on_circle
        for theta in (1.3, 4.4):
            got, ref = calc.sample(theta), radial.sample(theta)
            assert got.converged and ref.converged
            assert np.all(np.abs(got.s - ref.s) <= ref.err_entries + 1e-13)
            assert np.all(got.err_entries > 0)


@pytest.mark.parametrize("seq", [cs.constant(0.5), RADIAL], ids=["constant", "explicit-default"])
def test_radial_err_entries_carry_roundoff_floor(seq):
    # the radial extrapolant can settle below round-off; err_est may not
    calc = ScatteringCalculator(seq, 0)
    assert not calc.on_circle
    for theta in (1.3, 4.4):
        s = calc.sample(theta)
        assert s.converged
        assert np.all(s.err_entries >= 1e-13 * np.maximum(1.0, np.abs(s.s)))


def test_sample_factors_no_band(monkeypatch):
    def no_factor(self, unitary, z):
        raise AssertionError("banded factorization on the production route")

    monkeypatch.setattr(cs.resolvent.BandSolver, "__init__", no_factor)
    for seq in (cs.random_decay(seed=1, rate=0.5), cs.constant(0.5)):
        calc = ScatteringCalculator(seq, 0)
        assert calc.sample(1.3).converged


def test_calculator_reads_coefficients_once(monkeypatch):
    # n is fixed for a calculator's lifetime, and so are the alphas near it
    reads = []
    alpha_array = cs.CoefficientSequence.alpha_array

    def counted(self, start, stop):
        reads.append((start, stop))
        return alpha_array(self, start, stop)

    monkeypatch.setattr(cs.CoefficientSequence, "alpha_array", counted)
    calc = ScatteringCalculator(cs.random_decay(seed=1, rate=0.5), 0)
    assert calc.on_circle and len(reads) <= 10
    assert calc.sample(1.3).converged
    del reads[:]
    assert calc.sample(4.4).converged
    assert reads == []


def test_sweep_random_decay_points_all_check():
    # every point of the benchmark's sweep (random_decay(seed, 0.5), n = 0
    # and 1, golden-ratio thetas) converges, unitary, on the Moebius route
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for seed in range(1, 11):
        start = float(np.random.default_rng(seed).uniform())
        calcs = [ScatteringCalculator(cs.random_decay(seed, 0.5), n) for n in (0, 1)]
        for i in range(32):
            s = calcs[i % 2].sample(2.0 * np.pi * ((start + golden * i) % 1.0))
            assert s.converged, (seed, i, s.error)
            assert s.unitarity_defect <= 1e-12
            gap = max(abs(s.s_ll - s.diag_moebius[0]), abs(s.s_rr - s.diag_moebius[1]))
            assert gap <= 1e-10


def test_scattering_matrix_single_shot():
    s = cs.scattering_matrix(cs.free(), 1, 2.2, FAST)
    assert s.converged and s.unitarity_defect <= 1e-6


# -- auxiliary identities used in the odd-case derivation ----------------------

def _expand_in_decoupled_basis(seq, n, vec_sites, win):
    """Return the vector as ndarray over win."""
    v = np.zeros(win.size, dtype=complex)
    for k, val in vec_sites.items():
        v[win.index(k)] = val
    return v


def test_odd_defect_column_decompositions(rng):
    # (C - C_n) d_{n-1} = (a_n - 1) C_n d_{n-1} + r_n C_n d_n    (n odd)
    # (C - C_n) d_n     = -r_n C_n d_{n-1} + (conj(a_n) - 1) C_n d_n
    # The second line's coefficient reads conj(a_n); the seemingly parallel
    # conj(a_{n+1}) variant is reported, not asserted, for review.
    from conftest import random_sequence

    seq = random_sequence(rng)
    n = 3
    win = Window(n - 9, n + 9)
    D = defect(seq, n)
    Un = truncate(seq.decouple(n), win)
    e_nm1 = np.zeros(win.size, dtype=complex)
    e_nm1[win.index(n - 1)] = 1
    e_n = np.zeros(win.size, dtype=complex)
    e_n[win.index(n)] = 1
    Cn_nm1 = Un.matvec(e_nm1)
    Cn_n = Un.matvec(e_n)
    a_n = seq.alpha(n)
    rho_n = seq.rho(n)

    col_nm1 = _expand_in_decoupled_basis(seq, n, D.column(n - 1), win)
    lhs1 = col_nm1
    rhs1 = (a_n - 1) * Cn_nm1 + rho_n * Cn_n
    assert np.max(np.abs(lhs1 - rhs1)) <= 1e-14

    col_n = _expand_in_decoupled_basis(seq, n, D.column(n), win)
    rhs2 = -rho_n * Cn_nm1 + (np.conj(a_n) - 1) * Cn_n
    assert np.max(np.abs(col_n - rhs2)) <= 1e-14

    rhs2_alt = -rho_n * Cn_nm1 + (np.conj(seq.alpha(n + 1)) - 1) * Cn_n
    mismatch = np.max(np.abs(col_n - rhs2_alt))
    print(f"[review] alpha_(n+1) variant residual: {mismatch:.3e} (expected nonzero)")


def test_odd_delta_expansion_functions(rng):
    # d_{n+1} = (C_n + a_{n+1}) d_n / r_{n+1};  d_{n-2} = -(C_n + conj(a_{n-1})) d_{n-1} / r_{n-1}
    from conftest import random_sequence

    seq = random_sequence(rng)
    n = -3
    win = Window(n - 9, n + 9)
    Un = truncate(seq.decouple(n), win)
    e = {k: np.eye(win.size, dtype=complex)[win.index(k)] for k in (n - 2, n - 1, n, n + 1)}
    lhs = e[n + 1]
    rhs = (Un.matvec(e[n]) + seq.alpha(n + 1) * e[n]) / seq.rho(n + 1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14
    lhs2 = e[n - 2]
    rhs2 = -(Un.matvec(e[n - 1]) + np.conj(seq.alpha(n - 1)) * e[n - 1]) / seq.rho(n - 1)
    assert np.max(np.abs(lhs2 - rhs2)) <= 1e-14


def test_even_delta_inverse_expansions(rng):
    # r_{n+1} C_n d_{n+1} = d_n + conj(a_{n+1}) C_n d_n          (n even)
    # -r_{n-1} C_n d_{n-2} = d_{n-1} + a_{n-1} C_n d_{n-1}
    from conftest import random_sequence

    seq = random_sequence(rng)
    n = 2
    win = Window(n - 9, n + 9)
    Un = truncate(seq.decouple(n), win)
    e = {k: np.eye(win.size, dtype=complex)[win.index(k)] for k in (n - 2, n - 1, n, n + 1)}
    lhs = seq.rho(n + 1) * Un.matvec(e[n + 1])
    rhs = e[n] + np.conj(seq.alpha(n + 1)) * Un.matvec(e[n])
    assert np.max(np.abs(lhs - rhs)) <= 1e-14
    lhs2 = -seq.rho(n - 1) * Un.matvec(e[n - 2])
    rhs2 = e[n - 1] + seq.alpha(n - 1) * Un.matvec(e[n - 1])
    assert np.max(np.abs(lhs2 - rhs2)) <= 1e-14


# Random zero-tail families: up to five sites in [-6, 6], each |alpha| <= 0.9.
_ZERO_TAIL_EXPLICIT = st.dictionaries(
    st.integers(-6, 6),
    st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi)),
    min_size=1, max_size=5).map(cs.explicit)
_THETAS = st.floats(0.0, 2 * np.pi, exclude_max=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seq=_ZERO_TAIL_EXPLICIT, theta=_THETAS)
def test_zero_tail_unitarity_and_cut_invariance_property(seq, theta):
    # s is unitary where both channels are active, and moving the cut
    # changes s by channel phases only
    moduli = []
    for n in (0, 1, 2):
        calc = ScatteringCalculator(seq, n)
        assert calc.on_circle
        s = calc.sample(theta)
        assert s.converged, s.error
        if s.support_l and s.support_r:
            assert s.unitarity_defect <= 1e-10
        moduli.append(np.abs(s.s))
    assert np.max(np.abs(np.array(moduli[1:]) - moduli[0])) <= 1e-10
