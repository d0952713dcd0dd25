import cmath

import numpy as np
import pytest

import cmvscat as cs
from cmvscat.errors import PropagationOverflowError, WronskianDegenerateError
from cmvscat.operator import Window, entry
from cmvscat.oracle import dense_green
from cmvscat.resolvent import extrapolate_levels, m_pair
from cmvscat.scattering import ScatteringCalculator
from cmvscat.weyl import (
    BLOCK_RADIUS,
    M_cap,
    M_of_m,
    Mhat_cap,
    Mhat_of_m,
    WeylPair,
    _green_entry,
    _propagate,
    _wronskian,
    green_block,
    green_weyl,
    transfer,
    transfer_inverse,
    weyl_solutions,
)

from conftest import random_disc, random_sequence


def test_transfer_free_even():
    t = transfer(cs.free(), 0.5j, 0)
    np.testing.assert_array_equal(t, [[0, 1], [1, 0]])


def test_transfer_free_odd():
    z = 0.5j
    t = transfer(cs.free(), z, 1)
    np.testing.assert_allclose(t, [[0, z], [1 / z, 0]], atol=1e-16)


def test_transfer_rejects_zero_on_odd_branch():
    with pytest.raises(ValueError):
        transfer(cs.free(), 0.0, 3)
    transfer(cs.free(), 0.0, 2)  # even branch is fine


def test_transfer_determinant_minus_one(rng):
    for _ in range(100):
        seq = cs.explicit({0: random_disc(rng), 1: random_disc(rng)})
        z = (0.2 + 1.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        k = int(rng.integers(-5, 6))
        d = np.linalg.det(transfer(seq, z, k))
        assert abs(d + 1.0) <= 1e-12


def test_transfer_inverse(rng):
    seq = random_sequence(rng)
    z = 0.6 * np.exp(1.3j)
    for k in (-2, -1, 0, 3):
        prod = transfer(seq, z, k) @ transfer_inverse(seq, z, k)
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-14)


def test_M_cap_side_r_is_m(rng):
    seq = random_sequence(rng)
    z = 0.4 + 0.3j
    assert M_cap(seq, "r", 2, z) == cs.m_function(seq, "r", 2, z)


def test_M_cap_reduces_to_reciprocal_when_alpha_zero():
    # alpha_n = 0 collapses the Moebius map to 1/m
    seq = cs.single_barrier(5, 0.7)  # alpha_0 = 0
    z = 0.2 + 0.5j
    m = cs.m_function(seq, "l", -1, z)
    assert M_cap(seq, "l", 0, z) == pytest.approx(1 / m, abs=1e-12)


def test_Mhat_cap_side_l_is_m(rng):
    seq = random_sequence(rng)
    z = 0.4 - 0.3j
    assert Mhat_cap(seq, "l", 2, z) == cs.m_function(seq, "l", 2, z)


def test_Mhat_cap_reduces_to_reciprocal_when_alpha_zero():
    seq = cs.single_barrier(-5, 0.7)  # alpha_{n+1} = 0 for n = 0
    z = 0.3 - 0.2j
    m = cs.m_function(seq, "r", 1, z)
    assert Mhat_cap(seq, "r", 0, z) == pytest.approx(1 / m, abs=1e-12)


def test_free_M_values():
    for z in (0.3j, 0.5 - 0.2j):
        assert M_cap(cs.free(), "l", 0, z) == pytest.approx(-1.0, abs=1e-9)
        assert M_cap(cs.free(), "r", 0, z) == pytest.approx(+1.0, abs=1e-9)


def test_free_Mhat_reflectionless_equivalence():
    # Mhat^l_{n-1} = -conj(Mhat^r_{n-1}) on the free sequence
    sched = cs.RadialSchedule(levels=4)
    theta = 1.3
    n = 2

    def f(fun):
        ys = [fun(z) for z in sched.points(theta)]
        return extrapolate_levels(sched.distances(), ys, sched.extrapolation).value

    ml = f(lambda z: Mhat_cap(cs.free(), "l", n - 1, z))
    mr = f(lambda z: Mhat_cap(cs.free(), "r", n - 1, z))
    assert abs(ml + np.conj(mr)) <= 1e-8


def test_weyl_recursion_residual(rng):
    seq = random_sequence(rng)
    z = 0.7 * np.exp(0.9j)
    for variant in ("plain", "hat"):
        for side, n in (("r", 0), ("l", 1)):
            pair = weyl_solutions(seq, side, n, z, Window(n - 10, n + 10), variant)
            assert pair.recursion_residual(seq, z) <= 1e-10


def test_weyl_right_solution_decays(rng):
    seq = random_sequence(rng)
    z = 0.5 * np.exp(0.4j)
    pair = weyl_solutions(seq, "r", 0, z, Window(-10, 30), "plain")
    head = abs(pair.at(4)[0]) + abs(pair.at(4)[1])
    tail = abs(pair.at(28)[0]) + abs(pair.at(28)[1])
    assert tail < 1e-3 * head


def test_weyl_left_solution_decays(rng):
    seq = random_sequence(rng)
    z = 0.5 * np.exp(0.4j)
    pair = weyl_solutions(seq, "l", 0, z, Window(-30, 10), "plain")
    head = abs(pair.at(-4)[0]) + abs(pair.at(-4)[1])
    tail = abs(pair.at(-28)[0]) + abs(pair.at(-28)[1])
    assert tail < 1e-3 * head


def test_weyl_solves_eigenvalue_equation(rng):
    # u solves C u = z u and v solves C^T v = z v on interior sites
    seq = random_sequence(rng)
    z = 0.6 * np.exp(1.7j)
    win = Window(-12, 12)
    for side in ("r", "l"):
        pair = weyl_solutions(seq, side, 0, z, win, "plain")
        for i in range(win.a + 2, win.b - 1):
            row_u = sum(entry(seq, i, j) * pair.at(j)[0] for j in range(i - 2, i + 3))
            row_v = sum(entry(seq, j, i) * pair.at(j)[1] for j in range(i - 2, i + 3))
            scale = max(1.0, abs(pair.at(i)[0]), abs(pair.at(i)[1]))
            assert abs(row_u - z * pair.at(i)[0]) <= 1e-8 * scale
            assert abs(row_v - z * pair.at(i)[1]) <= 1e-8 * scale


def _public_products(seq, z, pair):
    """(u, v) over pair's window from its seed by public transfer products:
    T(z, k) going up and T(z, k + 1)^-1 going down."""
    win, n = pair.window, pair.seed_site
    u = np.zeros(win.size, dtype=np.complex128)
    v = np.zeros(win.size, dtype=np.complex128)
    u[n - win.a], v[n - win.a] = cur = np.array(pair.at(n))
    for k in range(n + 1, win.b + 1):
        cur = transfer(seq, z, k) @ cur
        u[k - win.a], v[k - win.a] = cur
    cur = np.array(pair.at(n))
    for k in range(n - 1, win.a - 1, -1):
        cur = transfer_inverse(seq, z, k + 1) @ cur
        u[k - win.a], v[k - win.a] = cur
    return u, v


@pytest.mark.parametrize("n", [2, -3], ids=["even-seed", "odd-seed"])
@pytest.mark.parametrize("side", ["l", "r"])
@pytest.mark.parametrize("variant", ["plain", "hat"])
def test_weyl_solutions_equal_public_transfer_products(variant, side, n):
    # the propagation is exactly these 2x2 products, bit for bit
    for seq in (cs.random_decay(seed=7, rate=0.3),
                cs.explicit({n - 4: 0.3 - 0.2j, n: 0.5j, n + 1: -0.6, n + 7: 0.1})):
        for z in (0.7 * np.exp(0.9j), 0.4 * np.exp(-2.2j)):
            pair = weyl_solutions(seq, side, n, z, Window(n - 12, n + 12), variant)
            u, v = _public_products(seq, z, pair)
            assert np.array_equal(pair.u, u) and np.array_equal(pair.v, v)


def test_weyl_pair_at_rejects_sites_outside_window():
    pair = weyl_solutions(cs.free(), "r", 0, 0.5j, Window(-10, 10), "plain")
    assert pair.at(-10) == (complex(pair.u[0]), complex(pair.v[0]))
    for k in (-11, 11):
        with pytest.raises(IndexError):
            pair.at(k)


def _first_overflow(seq, z, n, seed, step, limit=1e150):
    """First site past which public transfer products from ``seed`` at n
    exceed ``limit``, walking by ``step`` = +1 (up) or -1 (down)."""
    cur, k = np.array(seed), n
    while True:
        k += step
        t = transfer(seq, z, k) if step > 0 else transfer_inverse(seq, z, k + 1)
        cur = t @ cur
        if np.max(np.abs(cur)) > limit:
            return k


def test_propagation_overflow_guard_upward():
    # the left solution grows to the right; upward propagation runs first
    seq, z = cs.free(), 1e-4
    M = M_cap(seq, "l", 0, z)
    with pytest.raises(PropagationOverflowError, match="propagating up") as info:
        weyl_solutions(seq, "l", 0, z, Window(-200, 200), "plain")
    assert info.value.site == _first_overflow(seq, z, 0, [-1.0 + M, 1.0 + M], +1) > 0


def test_propagation_overflow_guard():
    # growing direction of a decaying-z solution explodes eventually
    seq = cs.free()
    z = 1e-4
    M = M_cap(seq, "r", 0, z)
    with pytest.raises(PropagationOverflowError, match="propagating down") as info:
        weyl_solutions(seq, "r", 0, z, Window(-200, 200), "plain")
    assert info.value.site == _first_overflow(seq, z, 0, [-1.0 + M, 1.0 + M], -1) < 0


def test_nan_m_gives_nan_block_not_overflow():
    # a NaN never trips the overflow guard: it reaches the block as NaN.
    # numpy flags the NaN / NaN scalar division of each entry as invalid.
    seq, n = cs.random_decay(seed=1, rate=0.5), 1
    alphas = ScatteringCalculator(seq, n)._alphas
    z = np.exp(0.7j)
    m_l, m_r = m_pair(seq, n, 0.9 * z)
    nan = complex("nan")
    for pair in ((nan, m_r), (m_l, nan), (nan, nan)):
        with np.errstate(invalid="ignore"):
            block = green_block(alphas, n, z, *pair, range(n - 2, n + 2))
        assert block.shape == (4, 4) and np.isnan(block).all()


@pytest.mark.parametrize("zmag", [0.3, 0.7, 1.5])
@pytest.mark.parametrize("variant", ["plain", "hat"])
def test_green_weyl_matches_dense(zmag, variant, rng):
    seq = cs.random_decay(seed=23, rate=0.4)
    z = zmag * np.exp(1.1j)
    win = Window(-96, 95)
    G = dense_green(seq, win, z)
    for k, kp, k0 in [(-3, 4, 0), (2, -1, 1), (4, 4, -2), (3, 3, 2), (0, 5, 3)]:
        got = green_weyl(seq, k, kp, z, k0, variant)
        ref = G[win.index(k), win.index(kp)]
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-9)


def test_green_weyl_k0_invariance(rng):
    seq = random_sequence(rng)
    z = 0.7 * np.exp(2.3j)
    vals = [green_weyl(seq, -2, 3, z, k0) for k0 in (-1, 0, 1, 2)]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-8 * max(1e-9, abs(vals[0]))


def test_green_weyl_diagonal_parity_split(rng):
    # both diagonal branches (k = k' even/odd) against the dense oracle
    seq = cs.random_decay(seed=31, rate=0.5)
    z = 0.55 * np.exp(0.8j)
    win = Window(-64, 63)
    G = dense_green(seq, win, z)
    for k in (2, 3):
        got = green_weyl(seq, k, k, z, 0)
        ref = G[win.index(k), win.index(k)]
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-9)


@pytest.mark.parametrize("kind", ["decay", "explicit"])
def test_green_block_matches_green_weyl(kind, rng):
    # the calculator's one block read seeds the same Green's entries as
    # green_weyl's own reads, anchored at n
    for trial in range(4):
        seq = random_sequence(rng, kind)
        n = int(rng.integers(-3, 4))
        z = 0.9 * np.exp(2j * np.pi * rng.uniform())
        m_l, m_r = m_pair(seq, n, z)
        sites = range(n - 3, n + 4)
        block = green_block(ScatteringCalculator(seq, n)._alphas, n, z, m_l, m_r, sites)
        for a, k in enumerate(sites):
            for b, kp in enumerate(sites):
                ref = green_weyl(seq, k, kp, z, n)
                assert abs(block[a, b] - ref) <= 1e-13 * max(1.0, abs(ref))


def _eleven_site_block(alphas, n, z, m_l, m_r, sites):
    """The local Green block with both Weyl solutions propagated over the
    whole Window(n - 5, n + 5), as before the block was trimmed."""
    win = Window(n - BLOCK_RADIUS, n + BLOCK_RADIUS)
    Ml = M_of_m(complex(alphas[BLOCK_RADIUS]), m_l)
    at_r = WeylPair(win, *_propagate(alphas, n, z, win.a, win.b, "plain", m_r),
                    n, "r", "plain", complex(m_r)).at
    at_l = WeylPair(win, *_propagate(alphas, n, z, win.a, win.b, "plain", Ml),
                    n, "l", "plain", Ml).at
    den = _wronskian(at_l, at_r, z, n)
    return np.array([[_green_entry(at_l, at_r, k, kp, n, den) for kp in sites]
                     for k in sites], dtype=np.complex128)


@pytest.mark.parametrize("route", ["circle", "radial"])
@pytest.mark.parametrize("reach", [(-2, 1), (-3, 3)], ids=["n-2..n+1", "n-3..n+3"])
@pytest.mark.parametrize("n", [0, 1, -3])
def test_green_block_equals_eleven_site_block(n, reach, route):
    # propagating only over the sites the block returns changes no bit; z is
    # a Python complex on the circle and a numpy complex128 inside it, as
    # the calculator's two routes pass it
    seq = cs.random_decay(seed=3, rate=0.5)
    calc = ScatteringCalculator(seq, n)
    alphas = calc._alphas
    sites = range(n + reach[0], n + reach[1] + 1)
    for theta in (0.3, 1.7, 2.9, 4.4):
        if route == "circle":
            z = cmath.exp(1j * theta)
            m_l, m_r = calc._m_levels(theta)[-1][1:]
            assert type(z) is complex
        else:
            z = 0.9 * np.exp(1j * theta)
            m_l, m_r = m_pair(seq, n, z)
            assert type(z) is np.complex128
        block = green_block(alphas, n, z, m_l, m_r, sites)
        assert np.array_equal(block, _eleven_site_block(alphas, n, z, m_l, m_r, sites))


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_green_block_rejects_sites_beyond_radius(side):
    # a sliced read would wrap round (below) or come up short (above)
    seq, n = cs.random_decay(seed=1, rate=0.5), 1
    alphas = ScatteringCalculator(seq, n)._alphas
    z = 0.9 * np.exp(0.7j)
    m_l, m_r = m_pair(seq, n, z)
    far = n + side * (BLOCK_RADIUS + 1)
    with pytest.raises(ValueError, match=f"site {far} .* BLOCK_RADIUS = {BLOCK_RADIUS}"):
        green_block(alphas, n, z, m_l, m_r, sorted((n, far)))
    green_block(alphas, n, z, m_l, m_r, sorted((n, far - side)))


def test_wronskian_degenerate_guard():
    with pytest.raises(WronskianDegenerateError):
        green_weyl(cs.free(), 0, 1, 1e-13, 0)


def test_moebius_pole_guard():
    from cmvscat.errors import MoebiusPoleError

    # alpha = 0 reduces both denominators to the supplied m itself
    with pytest.raises(MoebiusPoleError):
        M_of_m(0.0, 1e-13)
    with pytest.raises(MoebiusPoleError):
        Mhat_of_m(0.0, 1e-13)
