import tracemalloc

import numpy as np
import pytest

import cmvscat as cs
from cmvscat import dynamics
from cmvscat.dynamics import TransportFrame, WavePacket, reflection_probe, transport_plan
from cmvscat.errors import ConstructionError
from cmvscat.operator import Window, truncate
from cmvscat.oracle import matvec_probe, transfer_reflection

from conftest import random_sequence

WIN = Window(-1024, 1024)

# Observed once and frozen: steps for a free packet launched at -200 to move
# half its mass past site 0 (ballistic transport at 2 sites per step).
GOLDEN_FREE_CROSSING_STEP = 100


def test_packet_invariants():
    pkt = WavePacket(center=-200, width=20.0, theta0=0.3)
    psi = pkt.build(WIN)
    assert abs(np.linalg.norm(psi) - 1) <= 1e-12
    g = np.abs(psi[:3]) ** 2
    assert float(np.sum(g)) < 1e-10
    # even sublattice only
    k = np.arange(WIN.a, WIN.b + 1)
    assert np.all(psi[k % 2 != 0] == 0)


def _int_offset_build(pkt, window):
    """``WavePacket.build`` with int64 offsets from the centre, whose squares
    are exact up to about 3e9 sites and wrap beyond."""
    k = np.arange(window.a, window.b + 1)
    psi = np.exp(-((k - pkt.center) ** 2) / (4.0 * pkt.width ** 2) + 1j * pkt.theta0 * k)
    psi[k % 2 != 0] = 0.0
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ConstructionError("no support")
    psi = psi / nrm
    g = np.abs(np.concatenate((psi[:3], psi[-3:]))) ** 2
    if float(np.sum(g[:3]) + np.sum(g[3:])) > 1e-10:
        raise ConstructionError("tail")
    return psi


@pytest.mark.parametrize("width", [1.0, 1.7, 3.0, 9.25, 20.0, 64.3, 150.0, 499.9, 1000.0,
                                   2000.0])
def test_packet_float_offsets_equal_integer_offsets(width):
    # centres 9 and 5 widths in from either edge (the latter fails the tail
    # check), one just outside each edge, and an odd window end; a
    # fractional centre takes the float subtraction in both formulas
    for window in (Window(-32768, 32768), Window(-32767, 32766)):
        for m in (int(9 * width) + 3, int(5 * width) + 1, -3):
            for center in (window.a + m, window.b - m, window.a + m + 0.37, window.b - m - 0.37):
                pkt = WavePacket(center=center, width=width, theta0=0.9)
                try:
                    ref = _int_offset_build(pkt, window)
                except ConstructionError:
                    with pytest.raises(ConstructionError):
                        pkt.build(window)
                    continue
                assert np.array_equal(pkt.build(window), ref), (window, center)


def test_packet_far_from_window_has_no_support():
    with pytest.raises(ConstructionError, match="no support"):
        WavePacket(center=2 ** 62, width=20.0).build(Window(-512, 512))


def test_packet_rejects_edge_overlap():
    with pytest.raises(ConstructionError):
        WavePacket(center=-1000, width=30.0).build(WIN)


def test_norm_preserved(rng):
    seq = random_sequence(rng)
    U = truncate(seq, WIN)
    psi = WavePacket(center=0, width=15.0).build(WIN)
    out = psi
    for _ in range(200):
        out = U.matvec(out)
    assert abs(np.linalg.norm(out) - 1) <= 1e-12


def test_norm_drift_cumulative():
    U = truncate(cs.random_decay(seed=2, rate=0.1), Window(-256, 256))
    psi = WavePacket(center=0, width=10.0).build(Window(-256, 256))
    drift = 0.0
    for _ in range(100):
        prev = np.linalg.norm(psi)
        psi = U.matvec(psi)
        drift += abs(np.linalg.norm(psi) - prev)
    assert drift <= 1e-9


def test_inverse_evolution_roundtrip(rng):
    seq = random_sequence(rng)
    U = truncate(seq, WIN)
    psi = WavePacket(center=0, width=15.0, theta0=1.0).build(WIN)
    back = psi
    for _ in range(64):
        back = U.matvec(back)
    for _ in range(64):
        back = U.matvec_adjoint(back)
    assert np.max(np.abs(back - psi)) <= 1e-10


def test_free_ballistic_crossing_golden():
    U = truncate(cs.free(), WIN)
    psi = WavePacket(center=-200, width=20.0).build(WIN)
    k = np.arange(WIN.a, WIN.b + 1)
    step = 0
    while True:
        step += 1
        psi = U.matvec(psi)
        if float(np.sum(np.abs(psi[k >= 0]) ** 2)) >= 0.5:
            break
        assert step < 400, "transport should be ballistic"
    assert step == GOLDEN_FREE_CROSSING_STEP


def test_edge_contact_raises():
    # the probe stops at the first step whose edge mass passes the tolerance
    res = reflection_probe(cs.free(), 0, WavePacket(center=-100, width=10.0),
                           horizon=400, window=Window(-256, 256))
    assert res.edge_contact
    assert 100 < res.steps <= 400


def test_probe_requires_left_concentration():
    with pytest.raises(ConstructionError):
        reflection_probe(cs.free(), 0, WavePacket(center=50, width=10.0),
                         horizon=10, window=WIN)


def test_probe_free_transmits_fully():
    res = reflection_probe(cs.free(), 0, WavePacket(center=-300, width=20.0),
                           horizon=2000, window=WIN)
    assert res.left_mass <= 1e-3
    assert res.right_mass >= 1 - 1e-3
    assert abs(res.left_mass + res.right_mass + res.escaped - 1) <= 1e-10


def test_probe_barrier_reflects_and_is_window_stable():
    pkt = WavePacket(center=-300, width=20.0)
    r1 = reflection_probe(cs.single_barrier(0, 0.9), 0, pkt, horizon=4000,
                          window=Window(-1024, 1024))
    r2 = reflection_probe(cs.single_barrier(0, 0.9), 0, pkt, horizon=4000,
                          window=Window(-2048, 2048))
    assert r1.left_mass > 0.05
    assert abs(r1.left_mass - r2.left_mass) <= 0.1 * r1.left_mass


def test_probe_mass_partition_every_step():
    res = reflection_probe(cs.single_barrier(0, 0.5), 0,
                           WavePacket(center=-200, width=15.0),
                           horizon=300, window=WIN, record_series=True)
    series = res.series
    assert series.shape[1] == 4
    total = series[:, 1] + series[:, 2] + series[:, 3]
    assert np.max(np.abs(total - 1)) <= 1e-10


def test_probe_consistent_with_scattering_classification():
    # off-diagonal (reflectionless) sequences reflect less than a strong
    # barrier on the same packet; qualitative monotone comparison
    pkt = WavePacket(center=-300, width=20.0)
    free_mass = reflection_probe(cs.free(), 0, pkt, horizon=2000, window=WIN).left_mass
    barrier_mass = reflection_probe(cs.single_barrier(0, 0.9), 0, pkt,
                                    horizon=2000, window=WIN).left_mass
    assert free_mass < barrier_mass


PROBE_FAMILIES = {
    "free": cs.free(),
    "single_barrier": cs.single_barrier(0, 0.9),
    "explicit2": cs.explicit({0: 0.9, 3: 0.5j}),
    "random_decay": cs.random_decay(1, 0.5),
    "constant": cs.constant(0.5),
    "periodic3": cs.periodic([0.3, -0.5j, 0.2 + 0.1j]),
    "two-far-sites": cs.explicit({-40: 0.5, 60: 0.3j}),
}


@pytest.mark.parametrize("name", PROBE_FAMILIES)
def test_probe_equals_matvec_probe_bitwise(name):
    # Windows with even ends, an odd left end and an odd right end.  The
    # three runs stop at the horizon, stop at edge contact, and (edge_tol
    # infinite) run past the step where the frame moves its sites back.
    seq = PROBE_FAMILIES[name]
    pkt = WavePacket(center=-20, width=3.0, theta0=0.7)
    runs = [(10, {"record_series": True}), (100, {}),
            (130, {"record_series": True, "edge_tol": np.inf})]
    for window in (Window(-48, 48), Window(-47, 48), Window(-48, 49)):
        for n in (0, 1, 5):
            for horizon, kwargs in runs:
                fast = reflection_probe(seq, n, pkt, horizon, window, **kwargs)
                ref = matvec_probe(seq, n, pkt, horizon, window, **kwargs)
                _assert_probes_equal(fast, ref, (window, n, horizon, kwargs))
            assert matvec_probe(seq, n, pkt, 100, window).edge_contact


def _assert_probes_equal(fast, ref, case):
    assert fast.left_mass == ref.left_mass, case
    assert fast.right_mass == ref.right_mass, case
    assert fast.escaped == ref.escaped, case
    assert fast.steps == ref.steps, case
    assert fast.edge_contact == ref.edge_contact, case
    assert np.array_equal(fast.series, ref.series), case


BLOCK_CASES = {
    # (sequence, window, block length)
    "barrier-odd-right-end": (cs.single_barrier(0, 0.6 * np.exp(2j)), Window(-1024, 1023), 512),
    "barrier-odd-left-end": (cs.single_barrier(0, 0.6 * np.exp(2j)), Window(-1023, 1024), 511),
    "two-far-sites": (cs.explicit({-40: 0.5, 60: 0.3j}), Window(-1024, 1024), 50),
}


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_probe_equals_matvec_probe_bitwise(name):
    # Sequences whose scattering rows are single rows run many steps per
    # pass.  Horizon 400 ends with the light cone clear of the edges, 3000 at
    # edge contact, where the certificate fails and the edge is checked step
    # by step; record_series runs one step per pass.
    seq, window, block = BLOCK_CASES[name]
    pkt = WavePacket(center=-300, width=20.0, theta0=0.7)
    assert transport_plan(seq, window).block == block
    for n in (0, 1, 5):
        for horizon in (400, 3000):
            for kwargs in ({}, {"record_series": True}):
                ref = matvec_probe(seq, n, pkt, horizon, window, **kwargs)
                assert ref.edge_contact == (horizon == 3000)
                fast = reflection_probe(seq, n, pkt, horizon, window, **kwargs)
                _assert_probes_equal(fast, ref, (n, horizon, kwargs))


@pytest.mark.parametrize("edge_tol", [0.0, 1e-310, -1.0, float("nan")])
def test_probe_edge_tolerance_extremes_equal_matvec_probe(edge_tol):
    # 0 and a subnormal tolerance certify only an exactly zero edge region, a
    # negative one stops at step 1 and NaN never stops, as in the step loop.
    seq = cs.single_barrier(0, 0.6 * np.exp(2j))
    pkt = WavePacket(center=-100, width=10.0, theta0=0.7)
    window = Window(-256, 256)
    ref = matvec_probe(seq, 0, pkt, 300, window, edge_tol=edge_tol)
    fast = reflection_probe(seq, 0, pkt, 300, window, edge_tol=edge_tol)
    _assert_probes_equal(fast, ref, edge_tol)


def test_barrier_probe_runs_in_one_block(monkeypatch):
    calls = []
    advance = TransportFrame.advance

    def counted(frame, k):
        calls.append(k)
        return advance(frame, k)

    monkeypatch.setattr(TransportFrame, "advance", counted)
    pkt = WavePacket(center=-600, width=40.0, theta0=np.pi / 2)
    res = reflection_probe(cs.single_barrier(0, 0.6 * np.exp(2j)), 0, pkt, 3600,
                           Window(-8192, 8192))
    assert res.steps == 3600 and not res.edge_contact
    assert calls == [3600]


@pytest.mark.parametrize("seq", [cs.constant(0.5), cs.random_decay(1, 0.5)],
                         ids=["constant", "random_decay"])
def test_dense_sequences_keep_block_length_one(seq):
    window = Window(-8192, 8192)
    assert transport_plan(seq, window).block == 1


def test_probe_spectral_and_dynamical_reflection_agree():
    # Breuer-Ryckman-Simon: the reflected mass of a packet incoming from a
    # zero tail is its spectral weight times |r|^2.  The packet starts where
    # the alphas vanish, so its weight is the FFT of the even-sublattice
    # envelope.  Free U maps f_j to f_{j-1}, so the envelope mode
    # e^{i phi j} has eigenvalue e^{-i phi} and sees |r(-phi)|.
    seq = cs.explicit({0: 0.9, 3: 0.5j})
    window = Window(-4096, 4096)
    sites = np.arange(window.a, window.b + 1)
    for theta0 in (0.3, 0.9, 1.3, np.pi / 2, 2.2):
        pkt = WavePacket(center=-600, width=40.0, theta0=theta0)
        res = reflection_probe(seq, 0, pkt, 1800, window)
        assert res.steps == 1800 and not res.edge_contact
        envelope = pkt.build(window)[sites % 2 == 0]
        w = np.abs(np.fft.fft(envelope)) ** 2
        w /= np.sum(w)
        # modes below 1e-20 weigh less than 1e-16 together, and |r| <= 1
        modes = np.flatnonzero(w > 1e-20)
        assert np.sum(w) - np.sum(w[modes]) <= 1e-16
        r2 = np.array([transfer_reflection(seq, -2 * np.pi * m / len(envelope)) ** 2
                       for m in modes])
        assert abs(res.left_mass - float(np.sum(w[modes] * r2))) <= 1e-12


@pytest.mark.parametrize("horizon", [0, -5, float("nan")])
def test_probe_rejects_horizon_below_one(horizon):
    pkt = WavePacket(center=-100, width=10.0)
    with pytest.raises(ConstructionError, match="horizon"):
        reflection_probe(cs.free(), 0, pkt, horizon, Window(-256, 256))


@pytest.mark.parametrize("horizon", [2.7, float("inf")])
def test_probe_rejects_horizon_not_whole(horizon):
    pkt = WavePacket(center=-100, width=10.0)
    for probe in (reflection_probe, matvec_probe):
        with pytest.raises(ConstructionError, match="horizon"):
            probe(cs.free(), 0, pkt, horizon, Window(-256, 256))


def test_probe_accepts_whole_horizon_of_any_type():
    pkt = WavePacket(center=-100, width=10.0)
    runs = [reflection_probe(cs.single_barrier(0, 0.9), 0, pkt, horizon, Window(-256, 256))
            for horizon in (50, 50.0, np.int64(50))]
    for res in runs:
        assert res.steps == 50
        assert (res.left_mass, res.right_mass) == (runs[0].left_mass, runs[0].right_mass)


def test_probe_rejects_packet_of_wrong_length():
    psi = WavePacket(center=-100, width=10.0).build(Window(-256, 256))
    with pytest.raises(ConstructionError, match="shape"):
        reflection_probe(cs.free(), 0, psi, 10, Window(-256, 255))


@pytest.mark.parametrize("scale", [2.0, float("nan")])
def test_probe_rejects_raw_packet_without_unit_norm(scale):
    psi = WavePacket(center=-100, width=10.0).build(Window(-256, 256))
    with pytest.raises(ConstructionError, match="norm"):
        reflection_probe(cs.free(), 0, scale * psi, 50, Window(-256, 256))


@pytest.mark.parametrize("fields", [{"width": float("nan")}, {"theta0": float("nan")},
                                    {"theta0": float("inf")}, {"center": float("nan")}],
                         ids=["width-nan", "theta0-nan", "theta0-inf", "center-nan"])
def test_packet_rejects_non_finite_fields(fields):
    with pytest.raises(ConstructionError, match="finite"):
        WavePacket(**{"center": -100, "width": 10.0, **fields})


def test_warm_probe_builds_no_truncation(monkeypatch):
    seq, window = cs.single_barrier(0, 0.45j), Window(-2048, 2048)
    reflection_probe(seq, 0, WavePacket(center=-300, width=20.0), 500, window)
    calls = []

    def counted(*args):
        calls.append(args)
        return truncate(*args)

    monkeypatch.setattr(dynamics, "truncate", counted)
    res = reflection_probe(seq, 0, WavePacket(center=-400, width=30.0, theta0=1.0), 500, window)
    assert calls == [] and res.steps == 500


def test_plan_cache_keys_on_sequence_and_window():
    # each probe follows one on another key; a plan served for the wrong
    # sequence or window would move the masses
    pkt = WavePacket(center=-300, width=20.0, theta0=0.7)
    barrier = cs.single_barrier(0, 0.6 * np.exp(2j))
    cases = [(barrier, Window(-1024, 1024)), (cs.single_barrier(0, 0.3), Window(-1024, 1024)),
             (barrier, Window(-1022, 1026)), (barrier, Window(-1024, 1024)),
             (barrier.decouple(0), Window(-1024, 1024)), (barrier, Window(-1024, 1024))]
    for seq, window in cases:
        for n in (0, 1):
            fast = reflection_probe(seq, n, pkt, 900, window)
            _assert_probes_equal(fast, matvec_probe(seq, n, pkt, 900, window), (seq, window, n))


@pytest.mark.parametrize("seq", [cs.single_barrier(0, 0.6 * np.exp(2j)), cs.constant(0.5)],
                         ids=["barrier", "constant"])
def test_plan_keeps_no_band(seq):
    # a one-row slice of the band is contiguous, so only a copy frees the band
    plan = transport_plan(seq, Window(-1024, 1024))
    coefs = [coef for bands, _ in plan.runs for coef, _, _ in bands]
    assert coefs and all(c.base is None and not c.flags.writeable for c in coefs)


def test_warm_probe_transient_memory_is_small():
    # the plan is cached; a probe holds the packet, the frame's buffer and
    # the final state, and no 5 x window band
    window = Window(-8192, 8192)
    pkt = WavePacket(center=-600, width=40.0, theta0=np.pi / 2)
    seq = cs.single_barrier(0, 0.6 * np.exp(2j))
    reflection_probe(seq, 0, pkt, 3600, window)
    tracemalloc.start()
    try:
        reflection_probe(seq, 0, pkt, 3600, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_probe_transient_memory_is_small():
    # one cold probe of the benchmark's size: the truncation, the plan, the
    # frame and the packet, with no 5 x window temporaries; earlier tests
    # probe the same (sequence, window), so the plan cache is emptied first
    dynamics.transport_plan.cache_clear()
    window = Window(-8192, 8192)
    pkt = WavePacket(center=-600, width=40.0, theta0=np.pi / 2)
    tracemalloc.start()
    try:
        reflection_probe(cs.single_barrier(0, 0.6 * np.exp(2j)), 0, pkt, 3600, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_probe_memory_follows_window_not_horizon():
    pkt = WavePacket(center=-100, width=10.0)
    tracemalloc.start()
    try:
        res = reflection_probe(cs.free(), 0, pkt, 10 ** 9, Window(-256, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.edge_contact and res.steps < 400
    assert peak < 2 * 2 ** 20
