import warnings

import numpy as np
import pytest

import cmvscat as cs
from cmvscat.errors import ConstructionError

from conftest import random_sequence

# Frozen first-run output of the seeded generator; guards the PRNG stream
# across platforms and versions.
GOLDEN_ALPHA_3 = 0.10031504213119191 - 0.17861863803424427j


def test_free_is_zero_everywhere():
    seq = cs.free()
    for k in (-17, -1, 0, 5, 1234):
        assert seq.alpha(k) == 0
        assert seq.rho(k) == 1.0


def test_constant_value():
    seq = cs.constant(0.5)
    assert seq.alpha(7) == 0.5
    assert seq.alpha(-3) == 0.5


def test_rho_three_four_five():
    seq = cs.constant(0.6)
    assert seq.rho(11) == pytest.approx(0.8, abs=1e-15)


def test_unit_modulus_rejected_at_construction():
    with pytest.raises(ConstructionError):
        cs.constant(0.6 + 0.8j)
    with pytest.raises(ConstructionError):
        cs.single_barrier(0, 1.0)
    with pytest.raises(ConstructionError):
        cs.periodic([0.1, -1.0])


def test_explicit_rejection_names_index():
    with pytest.raises(ConstructionError, match="index 4"):
        cs.explicit({0: 0.3, 4: 1.2})


def test_random_decay_bound_and_golden():
    seq = cs.random_decay(seed=1, rate=0.5)
    assert abs(seq.alpha(3)) <= np.exp(-0.5 * 3)
    assert seq.alpha(3) == pytest.approx(GOLDEN_ALPHA_3, abs=1e-15)
    # determinism: fresh object, same values
    again = cs.random_decay(seed=1, rate=0.5)
    for k in (-9, -1, 0, 2, 40):
        assert again.alpha(k) == seq.alpha(k)


def test_random_decay_decay_rate(rng):
    seq = cs.random_decay(seed=17, rate=0.3)
    for k in range(-30, 31):
        assert abs(seq.alpha(k)) <= np.exp(-0.3 * abs(k))


def test_random_decay_huge_rate_is_exact_without_warning():
    # rate * |k| overflows to inf for k != 0; exp(-inf) = 0 is the exact factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas = cs.random_decay(seed=1, rate=1e308).alpha_array(-8, 9)
    undamped = cs.random_decay(seed=1, rate=0.0).alpha_array(-8, 9)
    assert alphas[8] == undamped[8] != 0
    assert not np.any(np.delete(alphas, 8))


@pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 1.0])
def test_random_decay_factor_is_exp_of_minus_rate_k(rate):
    ks = np.arange(-40, 41, dtype=np.int64)
    seq = cs.random_decay(seed=5, rate=rate)
    undamped = cs.random_decay(seed=5, rate=0.0).alpha_array(-40, 41)
    np.testing.assert_array_equal(seq.alpha_array(-40, 41),
                                  undamped * np.exp(-rate * np.abs(ks)))


def test_periodic_wraps_negative_indices():
    vals = [0.1, 0.2j, -0.3]
    seq = cs.periodic(vals)
    assert seq.alpha(4) == vals[1]
    assert seq.alpha(-1) == vals[2]
    assert seq.alpha(-3) == vals[0]


def test_explicit_default_tail():
    seq = cs.explicit({2: 0.5j}, default=0.1)
    assert seq.alpha(2) == 0.5j
    assert seq.alpha(100) == 0.1


def test_disc_invariant_and_pythagoras(rng):
    for kind in ("decay", "explicit"):
        seq = random_sequence(rng, kind)
        for k in range(-25, 26):
            a = seq.alpha(k)
            r = seq.rho(k)
            assert abs(a) < 1
            assert r ** 2 + abs(a) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_alpha_array_matches_scalar(rng):
    for seq in (cs.free(), cs.constant(0.3 - 0.1j), cs.single_barrier(-4, 0.7),
                cs.random_decay(seed=9, rate=0.4), cs.periodic([0.2, 0.1j, -0.4]),
                cs.explicit({-2: 0.6, 5: -0.2j}, default=0.05),
                cs.random_decay(seed=9, rate=0.4).decouple(3)):
        arr = seq.alpha_array(-12, 13)
        for k in range(-12, 13):
            assert arr[k + 12] == seq.alpha(k)
        rho_arr = seq.rho_array(-12, 13)
        for k in range(-12, 13):
            assert rho_arr[k + 12] == pytest.approx(seq.rho(k), abs=5e-16)


def test_decouple_pins_single_site():
    seq = cs.free().decouple(0)
    assert seq.alpha(0) == 1.0
    assert seq.rho(0) == 0.0
    for k in (-2, -1, 1, 2, 50):
        assert seq.alpha(k) == 0


def test_decouple_twice():
    seq = cs.free().decouple(-3).decouple(7)
    assert seq.alpha(-3) == 1.0
    assert seq.alpha(7) == 1.0
    assert seq.decoupling_sites() == (-3, 7)


def test_decouple_differs_only_at_n(rng):
    base = random_sequence(rng)
    cut = base.decouple(5)
    for k in range(-20, 21):
        if k == 5:
            assert cut.alpha(k) == 1.0
        else:
            assert cut.alpha(k) == base.alpha(k)


def test_sequences_are_hashable_and_picklable():
    import pickle

    seq = cs.explicit({0: 0.4}, default=0.1).decouple(2)
    clone = pickle.loads(pickle.dumps(seq))
    assert clone == seq
    assert clone.alpha(0) == 0.4
    assert clone.alpha(2) == 1.0
    hash(seq)


def test_tail_onset_and_period():
    # (j0, period): alpha_{k + step j} repeats with period from j = j0 on
    assert cs.free().tail(5, 1) == (0, 1)
    assert cs.constant(0.5).tail(-3, -1) == (0, 1)
    assert cs.periodic([0.1, 0.2, 0.3]).tail(7, -1) == (0, 3)
    barrier = cs.single_barrier(4, 0.9)
    assert barrier.tail(1, 1) == (4, 1)
    assert barrier.tail(1, -1) == (0, 1)
    assert barrier.tail(6, -1) == (3, 1)
    table = cs.explicit({-2: 0.3, 3: 0.5j}, default=0.5)
    assert table.tail(0, 1) == (4, 1)
    assert table.tail(0, -1) == (3, 1)
    assert cs.free().decouple(10).tail(0, 1) == (11, 1)
    # random_decay: coefficients below NEGLIGIBLE count as zero
    seq = cs.random_decay(1, 0.5)
    j0, period = seq.tail(1, 1)
    assert period == 1 and j0 == 78
    assert np.all(np.abs(seq.alpha_array(1 + j0, 1 + j0 + 64)) < cs.coefficients.NEGLIGIBLE)
    assert cs.random_decay(1, 0.0).tail(0, 1) is None
