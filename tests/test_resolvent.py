import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmvscat as cs
from cmvscat.errors import NegativeDensityError, NotConvergedError
from cmvscat.operator import Window, truncate
from cmvscat.oracle import dense_green, green
from cmvscat.resolvent import (
    GUARD,
    MAX_GROWN_SPAN,
    ROUNDOFF,
    BandSolver,
    RadialSchedule,
    extrapolate_levels,
    halfline_green_nn,
    m_function,
)

from conftest import force_m_pair, random_sequence


def test_schedule_validation():
    RadialSchedule()
    with pytest.raises(ValueError):
        RadialSchedule(levels=2)
    with pytest.raises(ValueError):
        RadialSchedule(contraction=1.0)
    with pytest.raises(ValueError):
        RadialSchedule(eps0=1e-10, levels=10)  # reaches closer than 1e-12
    # deepest distance 2 * GUARD / MAX_GROWN_SPAN is the closest the capped
    # window doubling can certify
    edge = 2 * GUARD / MAX_GROWN_SPAN
    RadialSchedule(eps0=4 * edge, levels=3, contraction=0.5)
    with pytest.raises(ValueError):
        RadialSchedule(eps0=4 * edge * 0.99, levels=3, contraction=0.5)
    with pytest.raises(ValueError):
        RadialSchedule(extrapolation="pade")


def test_schedule_points():
    sched = RadialSchedule(eps0=1e-2, levels=3, contraction=0.5)
    np.testing.assert_allclose(sched.distances(), [1e-2, 5e-3, 2.5e-3])
    pts = sched.points(0.0)
    np.testing.assert_allclose(pts, [0.99, 0.995, 0.9975])


def test_solver_residual(rng):
    seq = random_sequence(rng)
    U = truncate(seq, Window(-64, 63))
    for z in (0.4 + 0.2j, 0.999 * np.exp(0.7j), 1.3 * np.exp(2j)):
        solver = BandSolver(U, z)
        b = rng.standard_normal(U.size) + 1j * rng.standard_normal(U.size)
        x = solver.solve(b)
        res = np.linalg.norm(U.matvec(x) - z * x - b)
        assert res <= 1e-12 * max(1.0, np.linalg.norm(b))


def test_green_at_zero_is_adjoint_entry(rng):
    # (U - 0)^{-1} = U*, so G(i, j; 0) = conj(U[j, i])
    seq = random_sequence(rng)
    win = Window(-16, 15)
    U = truncate(seq, win)
    for i, j in [(0, 0), (1, -1), (-3, -2), (5, 3)]:
        g = green(seq, win, i, j, 0.0)
        assert g == pytest.approx(np.conj(U.entry(j, i)), abs=1e-13)


def test_green_matches_dense_oracle(rng):
    seq = random_sequence(rng)
    win = Window(-64, 63)
    z = 0.4 + 0.2j
    G = dense_green(seq, win, z)
    for i in range(win.a, win.b + 1, 13):
        for j in range(win.a, win.b + 1, 11):
            g = green(seq, win, i, j, z)
            ref = G[win.index(i), win.index(j)]
            assert abs(g - ref) <= 1e-10 * max(1.0, abs(ref))


def test_first_resolvent_identity(rng):
    # G(z1) - G(z2) = (z1 - z2) G(z1) G(z2), checked entrywise near the cut
    seq = random_sequence(rng)
    win = Window(-32, 31)
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.45j
    G1 = dense_green(seq, win, z1)
    G2 = dense_green(seq, win, z2)
    lhs = G1 - G2
    rhs = (z1 - z2) * (G1 @ G2)
    sub = slice(win.index(-3), win.index(3))
    assert np.max(np.abs(lhs[sub, sub] - rhs[sub, sub])) <= 1e-8


def test_m_matches_dense_oracle_halfline():
    # independent route: dense inverse of the same half-line truncation
    z = 0.3j
    for seq, side, n in ((cs.free(), "r", 0),
                         (cs.random_decay(seed=6, rate=0.5), "r", 0),
                         (cs.random_decay(seed=6, rate=0.5), "l", -1)):
        win = Window(n, n + 255) if side == "r" else Window(n - 255, n)
        g = dense_green(seq, win, z)[win.index(n), win.index(n)]
        sign = 1.0 if side == "r" else -1.0
        m_oracle = sign * (1 + 2 * z * g)
        assert cs.m_function(seq, side, n, z) == pytest.approx(m_oracle, abs=1e-9)


def test_m_at_zero_is_plus_minus_one(rng):
    for _ in range(5):
        seq = random_sequence(rng)
        n = int(rng.integers(-4, 5))
        assert m_function(seq, "l", n, 0.0) == pytest.approx(-1.0, abs=1e-12)
        assert m_function(seq, "r", n, 0.0) == pytest.approx(+1.0, abs=1e-12)


def test_free_m_is_one_inside():
    for z in (0.3j, 0.5, -0.7 + 0.1j):
        assert m_function(cs.free(), "r", 0, z) == pytest.approx(1.0, abs=1e-9)
        assert m_function(cs.free(), "l", 0, z) == pytest.approx(-1.0, abs=1e-9)


def test_herglotz_signs(rng):
    for _ in range(10):
        seq = random_sequence(rng)
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        n = int(rng.integers(-3, 4))
        assert m_function(seq, "r", n, z).real > 0
        assert m_function(seq, "l", n, z).real < 0


def _boundary(f, theta, sched):
    """extrapolate_levels over f at the scheduled points toward e^{i theta}."""
    ys = [f(z) for z in sched.points(theta)]
    return extrapolate_levels(sched.distances(), ys, sched.extrapolation)


def test_radial_limit_constant(monkeypatch):
    monkeypatch.setattr(cs.resolvent, "DEFAULT_BV_TOL", 1e-8)
    sched = RadialSchedule(levels=4)
    bv = _boundary(lambda z: 3.5 - 1j, 0.3, sched)
    assert bv.value == pytest.approx(3.5 - 1j, abs=1e-12)
    # the dropped-level change is below 1e-14; err_est adds the round-off floor
    assert ROUNDOFF * abs(3.5 - 1j) <= bv.err_est <= ROUNDOFF * abs(3.5 - 1j) + 1e-14
    assert bv.converged


def test_radial_limit_identity_function(monkeypatch):
    monkeypatch.setattr(cs.resolvent, "DEFAULT_BV_TOL", 1e-8)
    sched = RadialSchedule(levels=4)
    bv = _boundary(lambda z: z, 0.0, sched)
    assert bv.value == pytest.approx(1.0, abs=1e-12)
    assert bv.converged


def test_radial_limit_free_m():
    sched = RadialSchedule(levels=4)
    bv = _boundary(lambda z: m_function(cs.free(), "r", 0, z), 1.1, sched)
    assert bv.value == pytest.approx(1.0, abs=1e-6)
    assert bv.converged


def test_radial_limit_no_extrapolation():
    sched = RadialSchedule(levels=4, extrapolation="none")
    bv = _boundary(lambda z: z.real, 0.0, sched)
    assert bv.value == pytest.approx(1 - 1.25e-3, abs=1e-12)
    assert bv.err_est == pytest.approx(1.25e-3, abs=1e-12)


def test_radial_limit_flags_noncontraction():
    sched = RadialSchedule(levels=5)

    def wild(z):  # blows up toward the circle
        with np.errstate(over="ignore"):
            return np.exp(1.0 / (1 - abs(z)))

    bv = _boundary(wild, 0.0, sched)
    assert not bv.converged


def test_ac_density_free_is_one():
    # n = 0: density_l is that of m^l_{-1}, density_r that of m^r_0
    calc = cs.ScatteringCalculator(cs.free(), 0, RadialSchedule(levels=4))
    for theta in (0.5, 2.2, 4.0):
        weyl = calc.weyl_boundary(theta)
        assert weyl.density_r == pytest.approx(1.0, abs=1e-6)
        assert weyl.density_l == pytest.approx(1.0, abs=1e-6)


def test_ac_density_error_contracts(monkeypatch):
    # tol impossible to meet for a genuinely varying function: at n = 1,
    # m^l_0 sees the barrier at site 0 (m^r_1 does not, and is identically 1)
    monkeypatch.setattr(cs.resolvent, "DEFAULT_BV_TOL", 1e-16)
    seq, sched = cs.single_barrier(0, 0.9), RadialSchedule(levels=4)
    weyl = cs.ScatteringCalculator(seq, 1, sched).weyl_boundary(1.0)
    assert not weyl.m_l.converged and not weyl.converged
    with pytest.raises(NotConvergedError):
        cs.diagonal_via_M(seq, 1, 1.0, sched)


def test_ac_density_negative_raises(monkeypatch):
    calc = cs.ScatteringCalculator(cs.free(), 0, RadialSchedule(levels=4))
    # force a boundary value whose clamped density is badly negative
    force_m_pair(monkeypatch, -1.0, -0.5)
    with pytest.raises(NegativeDensityError):
        calc.weyl_boundary(0.5)
    # tiny negatives clamp to zero instead
    force_m_pair(monkeypatch, -1.0, -1e-6)
    assert calc.weyl_boundary(0.5).density_r == 0.0


def test_ac_density_mass_bound():
    # integral of the density over the grid stays near total mass 1; at
    # n = 1 the left density is that of m^l_0, which sees the barrier
    sched = RadialSchedule(levels=4)
    thetas = cs.theta_grid(32)
    seq = cs.single_barrier(0, 0.6)
    for n in (0, 1):
        calc = cs.ScatteringCalculator(seq, n, sched)
        weyls = [calc.weyl_boundary(t) for t in thetas]
        assert np.mean([w.density_r for w in weyls]) <= 1.0 + 1e-3
        assert np.mean([w.density_l for w in weyls]) <= 1.0 + 1e-3


def test_ac_support_thresholding():
    calc = cs.ScatteringCalculator(cs.free(), 0, RadialSchedule(levels=4))
    dens = np.array([calc.weyl_boundary(t).density_r for t in cs.theta_grid(8)])
    flags = dens > 0.5
    assert flags.all()
    flags_hi = dens > 1.5
    assert not flags_hi.any()
    # monotone in the threshold
    flags_mid = dens > 0.9
    assert np.all(flags_hi <= flags_mid) and np.all(flags_mid <= flags)


SCHUR_FAMILIES = {
    "free": cs.free(),
    "constant": cs.constant(0.5),
    "single_barrier": cs.single_barrier(0, 0.9),
    "explicit": cs.explicit({0: 0.9, 3: 0.5j}, default=0.5),
    "periodic": cs.periodic([0.3, -0.5j, 0.2 + 0.1j]),
    "random_decay": cs.random_decay(1, 0.5),
}


def _banded_m(seq, side, n, z):
    m = 1.0 + 2.0 * z * halfline_green_nn(seq, side, n, z)
    return -m if side == "l" else m


@pytest.mark.parametrize("family", sorted(SCHUR_FAMILIES))
def test_schur_matches_banded_oracle(family):
    # exact tails (zero, constant, periodic) and the negligible random_decay
    # tail, on and off the disc, up to the deepest default radial level
    seq = SCHUR_FAMILIES[family]
    worst = 0.0
    for side in ("l", "r"):
        for n in (0, 1):
            for r in (0.5, 0.99, 1 - 3.125e-4, 1.5):
                for theta in (0.3, 1.7, 4.0):
                    z = r * np.exp(1j * theta)
                    got = m_function(seq, side, n, z)
                    worst = max(worst, abs(got - _banded_m(seq, side, n, z)))
    assert worst <= 1e-12


def test_schur_without_exact_tail_matches_banded():
    # rate 0 has no exact tail; the depth doubling alone certifies the value
    seq = cs.random_decay(2, 0.0)
    assert seq.tail(0, 1) is None
    for side, n in (("l", -1), ("r", 0)):
        for z in (0.9 * np.exp(0.4j), 0.97 * np.exp(2.5j)):
            assert abs(m_function(seq, side, n, z) - _banded_m(seq, side, n, z)) <= 1e-10


def test_schur_depth_doubling_failure_raises(monkeypatch):
    import cmvscat.resolvent as res

    # rate 0 near the circle needs a depth beyond the cap
    monkeypatch.setattr(res, "MAX_GROWN_SPAN", 64)
    with pytest.raises(NotConvergedError):
        m_function(cs.random_decay(2, 0.0), "r", 0, 0.999)


def test_m_rejects_unit_circle():
    with pytest.raises(ValueError):
        m_function(cs.free(), "r", 0, np.exp(0.3j))


@st.composite
def _explicit_sequences(draw):
    disc = st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi)).map(
        lambda rt: rt[0] * np.exp(1j * rt[1]))
    table = draw(st.dictionaries(st.integers(-6, 6), disc, max_size=5))
    return cs.explicit(table, default=draw(disc))


_SEQUENCES = st.one_of(
    st.builds(cs.random_decay, st.integers(0, 2**31 - 1), st.floats(0.2, 0.8)),
    _explicit_sequences(),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seq=_SEQUENCES, side=st.sampled_from("lr"), n=st.integers(-4, 4),
       r=st.floats(0.05, 0.95), theta=st.floats(0.0, 2 * np.pi))
def test_schur_equals_banded_property(seq, side, n, r, theta):
    z = r * np.exp(1j * theta)
    assert abs(m_function(seq, side, n, z) - _banded_m(seq, side, n, z)) <= 1e-10


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seq=_SEQUENCES, n=st.integers(-4, 4), r=st.floats(0.05, 0.95),
       theta=st.floats(0.0, 2 * np.pi))
def test_herglotz_signs_property(seq, n, r, theta):
    # Re m^r > 0 > Re m^l inside the disc; F(z) = -conj(F(1/conj z)) flips both outside
    z = r * np.exp(1j * theta)
    assert m_function(seq, "r", n, z).real > 0 > m_function(seq, "l", n, z).real
    assert m_function(seq, "r", n, 1 / z).real < 0 < m_function(seq, "l", n, 1 / z).real
