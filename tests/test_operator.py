import numpy as np
import pytest

import cmvscat as cs
from cmvscat.errors import WindowError
from cmvscat.operator import Window, defect, entry, truncate
from cmvscat.oracle import closed_form_entry

from conftest import random_sequence


def test_window_rejects_short_spans():
    with pytest.raises(WindowError):
        Window(0, 7)
    Window(0, 8)  # minimum allowed


def test_diagonal_entry_is_minus_conj_alpha_alpha_next(rng):
    seq = random_sequence(rng)
    for k in range(-6, 7):
        expect = -np.conj(seq.alpha(k)) * seq.alpha(k + 1)
        assert entry(seq, k, k) == pytest.approx(expect, abs=1e-16)


def test_band_vanishes_beyond_two(rng):
    seq = random_sequence(rng)
    for i in range(-5, 6):
        for j in range(-9, 10):
            if abs(i - j) > 2:
                assert entry(seq, i, j) == 0


def test_free_truncation_is_permutation():
    U = truncate(cs.free(), Window(0, 63)).to_dense()
    mags = np.abs(U)
    assert set(np.round(mags.ravel(), 14)) <= {0.0, 1.0}
    assert np.all(mags.sum(axis=0) == 1)
    assert np.all(mags.sum(axis=1) == 1)
    assert truncate(cs.free(), Window(0, 63)).unitarity_defect() == 0.0


@pytest.mark.parametrize("window", [Window(0, 63), Window(-32, 31), Window(-31, 32),
                                    Window(-33, 30)])
def test_truncation_unitary_all_edge_parities(window, rng):
    seq = cs.random_decay(seed=1, rate=0.05)
    assert truncate(seq, window).unitarity_defect() <= 1e-12


def test_truncation_matches_scalar_entries(rng):
    # vectorized assembly, and ``entry`` read from it, vs the oracle's scalar
    # closed form; 1-ulp slack for the SIMD/FMA difference in complex products
    seq = random_sequence(rng)
    win = Window(-9, 10)
    U = truncate(seq, win)
    cut = seq.decouple(win.a).decouple(win.b + 1)
    for i in range(win.a, win.b + 1):
        for j in range(win.a, win.b + 1):
            assert U.entry(i, j) == pytest.approx(closed_form_entry(cut, i, j), abs=1e-15)
            assert entry(seq, i, j) == pytest.approx(closed_form_entry(seq, i, j), abs=1e-15)


def test_decoupled_truncation_block_diagonal(rng):
    seq = random_sequence(rng)
    n = 3
    U = truncate(seq.decouple(n), Window(-16, 15)).to_dense()
    idx = np.arange(-16, 16)
    assert np.all(U[np.ix_(idx < n, idx >= n)] == 0)
    assert np.all(U[np.ix_(idx >= n, idx < n)] == 0)


def test_nested_windows_agree_in_the_interior(rng):
    seq = random_sequence(rng)
    small = truncate(seq, Window(-16, 16))
    big = truncate(seq, Window(-32, 32))
    for i in range(-13, 14):
        for j in range(-13, 14):
            assert small.entry(i, j) == big.entry(i, j)


def test_lapack_band_roundtrip(rng):
    seq = random_sequence(rng)
    U = truncate(seq, Window(-8, 8))
    ab = U.lapack_band(0.25j)
    A = U.to_dense() - 0.25j * np.eye(U.size)
    for i in range(U.size):
        for j in range(U.size):
            if abs(i - j) <= 2:
                assert ab[4 + i - j, j] == A[i, j]


def test_matvec_matches_dense(rng):
    seq = random_sequence(rng)
    U = truncate(seq, Window(-20, 20))
    x = rng.standard_normal(U.size) + 1j * rng.standard_normal(U.size)
    M = U.to_dense()
    np.testing.assert_allclose(U.matvec(x), M @ x, atol=1e-14)
    np.testing.assert_allclose(U.matvec_adjoint(x), M.conj().T @ x, atol=1e-14)


# -- defect operator ----------------------------------------------------------

# Every family, with a non-zero explicit default and a periodic of odd period.
DEFECT_FAMILIES = {
    "free": cs.free(),
    "constant": cs.constant(0.5 - 0.2j),
    "single_barrier": cs.single_barrier(1, 0.6 * np.exp(2j)),
    "random_decay": cs.random_decay(seed=3, rate=0.2),
    "periodic": cs.periodic([0.3, -0.5j, 0.2 + 0.1j]),
    "explicit": cs.explicit({-2: 0.3 + 0.4j, 0: 0.9, 3: -0.5j}, default=0.4),
}


def _bits(columns):
    return {(j, i): np.complex128(v).tobytes()
            for j, col in columns.items() for i, v in col.items()}


@pytest.mark.parametrize("family", sorted(DEFECT_FAMILIES))
def test_defect_is_entrywise_difference_bit_for_bit(family):
    # the nonzero entries of the band difference of two truncations, on a
    # window wider than the one ``defect`` takes
    seq = DEFECT_FAMILIES[family]
    for n in range(-3, 5):
        win = Window(n - 16, n + 16)
        band = truncate(seq, win).diags - truncate(seq.decouple(n), win).diags
        want = {}
        for d, r in zip(*np.nonzero(band)):
            i = win.a + int(r)
            want.setdefault(i + int(d) - 2, {})[i] = band[d, r]
        assert _bits(defect(seq, n).columns) == _bits(want)


@pytest.mark.parametrize("family", sorted(DEFECT_FAMILIES))
def test_defect_matches_closed_form(family):
    # same support as the difference of the scalar table, whose entries not
    # involving alpha_n cancel exactly too; values to 1 ulp
    seq = DEFECT_FAMILIES[family]
    for n in range(-3, 5):
        cut = seq.decouple(n)
        want = {}
        for j in range(n - 3, n + 4):
            for i in range(j - 2, j + 3):
                v = closed_form_entry(seq, i, j) - closed_form_entry(cut, i, j)
                if v != 0.0:
                    want[j, i] = v
        got = {(j, i): v for j, col in defect(seq, n).columns.items() for i, v in col.items()}
        assert got.keys() == want.keys()
        for key, v in want.items():
            assert got[key] == pytest.approx(v, abs=1e-15)


def test_defect_support_even():
    d = defect(cs.random_decay(seed=3, rate=0.2), 4)
    assert d.domain_sites == (2, 3, 4, 5)
    assert d.range_sites == (3, 4)


def test_defect_support_odd():
    d = defect(cs.random_decay(seed=3, rate=0.2), 5)
    assert d.domain_sites == (4, 5)
    assert d.range_sites == (3, 4, 5, 6)


def test_defect_free_case_columns():
    d = defect(cs.free(), 0)
    assert d.column(-2) == {-1: 1.0, 0: 1.0}
    assert d.column(1) == {-1: 1.0, 0: -1.0}
    assert d.column(-1) == {}
    assert d.column(0) == {}


def test_defect_equals_truncation_subtraction_free_exact():
    for n in (0, 1):
        win = Window(n - 8, n + 8)
        D = defect(cs.free(), n).as_dense(win)
        ref = (truncate(cs.free(), win).to_dense()
               - truncate(cs.free().decouple(n), win).to_dense())
        assert np.max(np.abs(D - ref)) == 0.0


def test_defect_equals_truncation_subtraction_random(rng):
    seq = random_sequence(rng)
    for n in (0, 1):
        win = Window(n - 8, n + 8)
        D = defect(seq, n).as_dense(win)
        ref = truncate(seq, win).to_dense() - truncate(seq.decouple(n), win).to_dense()
        assert np.max(np.abs(D - ref)) <= 1e-15


def test_column_proportionality_even(rng):
    # (C - C_n) d_n = (-a_{n+1}/r_{n+1}) (C - C_n) d_{n+1}
    # (C - C_n) d_{n-1} = (conj(a_{n-1})/r_{n-1}) (C - C_n) d_{n-2}
    for trial in range(100):
        seq = random_sequence(rng)
        n = 2 * int(rng.integers(-3, 4))
        d = defect(seq, n)
        win = Window(n - 8, n + 8)
        dense = d.as_dense(win)

        def col(j):
            return dense[:, win.index(j)]

        lhs1 = col(n)
        rhs1 = (-seq.alpha(n + 1) / seq.rho(n + 1)) * col(n + 1)
        assert np.max(np.abs(lhs1 - rhs1)) <= 1e-14
        lhs2 = col(n - 1)
        rhs2 = (np.conj(seq.alpha(n - 1)) / seq.rho(n - 1)) * col(n - 2)
        assert np.max(np.abs(lhs2 - rhs2)) <= 1e-14


def test_adjoint_proportionality_odd(rng):
    # (C - C_n)* d_n = (-conj(a_{n+1})/r_{n+1}) (C - C_n)* d_{n+1}
    # (C - C_n)* d_{n-1} = (a_{n-1}/r_{n-1}) (C - C_n)* d_{n-2}
    for trial in range(100):
        seq = random_sequence(rng)
        n = 2 * int(rng.integers(-3, 4)) + 1
        d = defect(seq, n)
        win = Window(n - 8, n + 8)
        dense = d.as_dense(win)

        def arow(j):
            return np.conj(dense[win.index(j), :])

        lhs1 = arow(n)
        rhs1 = (-np.conj(seq.alpha(n + 1)) / seq.rho(n + 1)) * arow(n + 1)
        assert np.max(np.abs(lhs1 - rhs1)) <= 1e-14
        lhs2 = arow(n - 1)
        rhs2 = (seq.alpha(n - 1) / seq.rho(n - 1)) * arow(n - 2)
        assert np.max(np.abs(lhs2 - rhs2)) <= 1e-14


def test_adjoint_column_matches_dense(rng):
    seq = random_sequence(rng)
    for n in (0, 1):
        d = defect(seq, n)
        win = Window(n - 8, n + 8)
        dense = d.as_dense(win)
        for j in d.range_sites:
            vec = np.zeros(win.size, dtype=complex)
            for site, v in d.adjoint_column(j).items():
                vec[win.index(site)] = v
            np.testing.assert_array_equal(vec, np.conj(dense[win.index(j), :]))
