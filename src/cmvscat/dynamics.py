"""A wave-packet reflection probe: discrete-time evolution U^m psi of a packet.

A state launched on the left and propagating right should, for a
reflectionless operator, end up entirely on the right of the decoupling
site; the probe measures the left/right mass split after evolving to a
horizon (or until the packet touches the window edge, past which the
truncated dynamics stops being a faithful surrogate for the full line).

Free dynamics transports the even and odd sublattices ballistically in
opposite directions (2 sites per step), so an incoming-from-the-left state
is prepared on the even sublattice; for coefficient families that decay at
infinity this remains the right-moving asymptotic channel.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConstructionError
from .operator import Window, truncate

EDGE_GUARD = 2          # band distance monitored at each window edge
EDGE_MASS_TOL = 1e-6
TAIL_TOL = 1e-10
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WavePacket:
    """Gaussian envelope on the right-moving (even) sublattice.

    ``center`` and ``width`` are in lattice sites; ``theta0`` sets the
    per-site phase twist, steering where on the unit circle the packet
    concentrates spectrally (phase 2*theta0 per effective hop).
    """

    center: int
    width: float
    theta0: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.center, numbers.Integral) or np.isfinite(self.center)):
            raise ConstructionError(f"packet center must be finite, got {self.center}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ConstructionError(
                f"packet width must be finite and positive, got {self.width}")
        if not np.isfinite(self.theta0):
            raise ConstructionError(f"packet theta0 must be finite, got {self.theta0}")

    def build(self, window):
        """Normalized state vector over the window; validates the invariants.

        The envelope is evaluated on the even sites alone.  Their offsets
        from the centre are float64 differences, as for a fractional centre;
        for a whole-number centre they are exact, and so are their squares,
        below 2**26 sites, and a centre far outside the window gives a packet
        with no support in it, not a wrapped integer square.
        """
        if not isinstance(window, Window):
            window = Window(*window)
        first = window.a + window.a % 2
        k = np.arange(first, window.b + 1, 2)
        offset = k.astype(float) - float(self.center)
        psi = np.zeros(window.size, dtype=np.complex128)
        psi[first - window.a::2] = np.exp(-(offset ** 2) / (4.0 * self.width ** 2)
                                          + 1j * self.theta0 * k)
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise ConstructionError(
                f"packet centred at {self.center} has no support on the even sites "
                f"of the window [{window.a}, {window.b}]")
        psi /= nrm
        if _edge_mass(psi) > TAIL_TOL:
            raise ConstructionError(
                f"packet tail mass at the window edge exceeds {TAIL_TOL:.0e}; "
                "enlarge the window or narrow the packet"
            )
        return psi


def _edge_mass(psi):
    g = EDGE_GUARD + 1
    w = np.abs(np.concatenate((psi[:g], psi[-g:]))) ** 2
    return float(np.add.reduce(w[:g]) + np.add.reduce(w[g:]))


@dataclass(frozen=True)
class ProbeResult:
    left_mass: float
    right_mass: float
    escaped: float
    steps: int
    edge_contact: bool
    series: np.ndarray    # rows (step, left, right, escaped); empty unless recorded


def probe_start(n, packet, horizon, window):
    """Validated start of a probe: (window, initial state, mass split).

    ``masses(state)`` returns (left, right, escaped): the weights of the
    indicators of (-inf, n-1] and [n, inf) restricted to the window, and the
    remainder 1 - left - right.  Raises ConstructionError for a horizon
    below 1 or not a finite whole number, a raw packet whose shape is not
    the window's or whose squared norm is not 1 to within 1e-12, or a packet
    that is not left-concentrated.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    if not horizon >= 1:
        raise ConstructionError(f"probe horizon must be >= 1, got {horizon!r}")
    # float(inf).is_integer() is False; a large int is never made a float
    if not (isinstance(horizon, numbers.Integral) or float(horizon).is_integer()):
        raise ConstructionError(f"probe horizon must be a whole number of steps, got {horizon!r}")
    psi = packet.build(window) if isinstance(packet, WavePacket) else np.asarray(packet)
    if psi.shape != (window.size,):
        raise ConstructionError(
            f"packet has shape {psi.shape}; window [{window.a}, {window.b}] "
            f"needs ({window.size},)"
        )
    norm2 = float(np.vdot(psi, psi).real)
    if not abs(norm2 - 1.0) <= 1e-12:
        raise ConstructionError(f"packet has squared norm {norm2!r}; a state needs 1")
    cut = min(max(n - window.a, 0), window.size)    # index of site n

    def masses(state):
        right = float(np.sum(np.abs(state[cut:]) ** 2))
        left = float(np.sum(np.abs(state[:cut]) ** 2))
        return left, right, 1.0 - left - right

    right0 = masses(psi)[1]
    if right0 > 1e-6:
        raise ConstructionError(
            f"packet is not left-concentrated: right mass {right0:.3e} > 1e-6"
        )
    return window, psi, masses


def probe_result(masses, psi, rows, steps, edge_contact):
    left, right, escaped = masses(psi)
    series = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    return ProbeResult(left_mass=left, right_mass=right, escaped=escaped,
                       steps=steps, edge_contact=edge_contact, series=series)


def _runs(mask):
    """(start, stop) of each maximal run of True in a 1-D boolean array."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return zip(edges[::2].tolist(), edges[1::2].tolist())


def _block_length(writes, reads, room):
    """Largest K <= room for which K steps can be computed in one pass.

    ``writes[q]`` and ``reads[q]`` hold the sublattice indices of parity q
    that scattering rows write and read.  Parity q's origin drifts by
    d = 2q - 1 slots per step, so a read of index x sees the write of index
    w made 1 + d (w - x) steps earlier; every such delay of at least one
    step must be at least K, and two writers of one parity must be at least
    K indices apart, so that no slot is written twice in a block.
    """
    k = room
    for q in (0, 1):
        d = 2 * q - 1
        w = np.sort(d * np.concatenate(writes[q] or [np.empty(0, int)]))
        if w.size > 1:
            k = min(k, int(np.min(np.diff(w))))
        x = d * np.concatenate(reads[q] or [np.empty(0, int)])
        i = np.searchsorted(w, x)
        seen = i < w.size
        if np.any(seen):
            k = min(k, int(np.min(1 + w[i[seen]] - x[seen])))
    return k


class TransportPlan:
    """What a truncation's evolution in the free-transport frame reads, built once.

    A free row is an exact shift with coefficient rho(0)^2 == 1.0: even rows
    take x[i-2] and odd rows x[i+2].  Site i of parity p is kept in slot
    ``origin[p] + j`` of one buffer, with j = (i - first[p]) // 2 its
    sublattice index, and every step moves the even origin one slot left and
    the odd origin one slot right; that move is the whole of every free row.
    A step computes only the other rows, as runs of consecutive sublattice
    indices of one parity: each run is a sum of slot slices times the run's
    band coefficients, added in ``BandedUnitary.matvec``'s order o = -2..2,
    so the state equals the matvec loop's bit for bit.  A band that is zero
    on the whole run is skipped (adding 0 * x changes no finite sum).

    ``TransportFrame.advance(k)`` computes k steps in one pass: each band is
    one product over a (k, run length) sliding-window view of the buffer,
    whose row t is the band's slots at step t (a k-slot slice for a single
    row).  That is exact while no read of the block sees a write of the
    block and no slot is written twice; ``block`` is the largest such k
    (``_block_length``).  Two writers of one parity are then ``block``
    indices apart, so ``block`` > 1 only when every run is a single row, and
    a block's temporaries stay O(window).  Dense or cavity sequences keep
    ``block`` == 1.

    Each sublattice's region of the buffer has a padding slot on either side
    of its sites, which an edge row's out-of-window column reads times an
    exact-zero coefficient, and as many slots of drift room as it has sites;
    before a block that would run out of room the sites move back to its
    start, so memory is O(window) whatever the horizon.

    The plan keeps copies of the runs' band coefficients, not the
    truncation's 5 x N band; for a dense sequence the runs cover the window,
    and the copies are about the band's size.  It is immutable:
    ``transport_plan`` caches one per (sequence, window), and every probe on
    them shares it.
    """

    def __init__(self, unitary):
        w = unitary.window
        self.a, self.b = w.a, w.b
        self.size = w.size
        self.first = (w.a + w.a % 2, w.a + 1 - w.a % 2)
        self.count = tuple((w.b - f) // 2 + 1 for f in self.first)
        c0, c1 = self.count
        # even region [0, 2 c0 + 2) drifts left, odd region [2 c0 + 2, ...) right
        self.start = (c0 + 1, 2 * c0 + 3)
        self.slots = 2 * (c0 + c1) + 4
        # (bands, write): bands ((coefficients, view key, row), ...), write
        # (view key, row); see ``_slot``
        runs = []
        writes, reads = ([], []), ([], [])
        for p, free_band in ((0, 0), (1, 4)):
            diags = unitary.diags[:, self.first[p] - w.a::2]
            scatters = (diags[free_band] != 1) | (np.count_nonzero(diags, axis=0) != 1)
            for j0, j1 in _runs(scatters):
                bands = self._bands(diags, p, j0, j1)
                writes[p].append(np.arange(j0, j1))
                for _, q, off in bands:
                    reads[q].append(np.arange(off, off + j1 - j0))
                # step t writes the slots that step t + 1 reads
                key, row = self._slot(p, j0, j1 - j0)
                runs.append((tuple((coef, *self._slot(q, off, j1 - j0))
                                   for coef, q, off in bands), (key, row + 1)))
        self.runs = tuple(runs)
        self.block = _block_length(writes, reads, c0)
        g = EDGE_GUARD + 1
        edge = list(range(w.a, w.a + g)) + list(range(w.b - g + 1, w.b + 1))
        # slot of edge site i at drift 0, and its move per step
        self.edge_home = np.array([self.start[i % 2] + (i - self.first[i % 2]) // 2
                                   for i in edge])
        self.edge_drift = np.array([2 * (i % 2) - 1 for i in edge])
        self.edge_home.setflags(write=False)
        self.edge_drift.setflags(write=False)

    def _bands(self, diags, p, j0, j1):
        """(coefficients, sublattice, offset from its origin) per nonzero band.

        Every row of a unitary has norm 1, so each run keeps at least one band.
        The coefficients are copies: a view would keep the whole band alive.
        """
        bands = []
        for o in range(-2, 3):
            coef = diags[o + 2, j0:j1].copy()
            if np.any(coef != 0):
                coef.setflags(write=False)
                q = (p + o) % 2
                bands.append((coef, q, j0 + (self.first[p] + o - self.first[q]) // 2))
        return bands

    def _slot(self, q, off, length):
        """(view key, row): row ``row + drift`` of a frame's view ``(q,
        length)`` is sublattice q's slots at offsets off..off+length-1 from
        its origin at that drift.

        The even view runs backwards, so the rows of either sublattice follow
        the step (``TransportFrame._view``).
        """
        slot = self.start[q] + off
        return (q, length), (slot if q else self.slots - length - slot)


@lru_cache(maxsize=8)
def transport_plan(seq, window):
    """The ``TransportPlan`` of ``truncate(seq, window)``, built once per pair.

    Up to 8 plans stay alive for the life of the process; a dense
    sequence's plan holds band-sized coefficient copies
    (``transport_plan.cache_clear()`` frees them).  ``window`` must be a
    ``Window``; a tuple would be a second cache key.
    """
    return TransportPlan(truncate(seq, window))


class TransportFrame:
    """One evolution in the free-transport frame: a fresh buffer holding the
    state, read and written as its ``TransportPlan`` says."""

    def __init__(self, plan, psi):
        self.plan = plan
        self.block = plan.block
        self.buf = np.zeros(plan.slots, dtype=np.complex128)
        self.drift = 0          # steps since the sites were at their start slots
        for p in (0, 1):
            self._live(p)[:] = psi[plan.first[p] - plan.a::2]
        views = {}
        self.runs = [([(coef, self._view(views, key), row) for coef, key, row in bands],
                      (self._view(views, key), row))
                     for bands, (key, row) in plan.runs]

    def _view(self, views, key):
        """The buffer view of ``TransportPlan._slot``'s key (q, length).

        A window of one slot is the buffer itself: numpy rounds a complex
        product of shape (1, 1) differently from the matvec's 1-D one.
        """
        if key not in views:
            q, length = key
            view = (self.buf if length == 1 else np.lib.stride_tricks.sliding_window_view(
                self.buf, length, writeable=True))
            views[key] = view if q else view[::-1]
        return views[key]

    def _live(self, p):
        plan = self.plan
        origin = plan.start[p] + (2 * p - 1) * self.drift
        return self.buf[origin:origin + plan.count[p]]

    def _rebase(self):
        start, count = self.plan.start, self.plan.count
        for p in (0, 1):
            live = self._live(p).copy()
            self.buf[start[p]:start[p] + count[p]] = live
        self.drift = 0

    def advance(self, k):
        """Compute the next k steps in one pass; k must not exceed ``block``."""
        if self.plan.start[0] - self.drift - 1 < k:
            self._rebase()
        t = self.drift
        outs = []
        for bands, _ in self.runs:
            out = None
            for coef, view, row in bands:
                term = coef * view[row + t:row + t + k]
                if out is None:
                    out = term
                else:
                    out += term
            outs.append(out)
        for (_, (view, row)), out in zip(self.runs, outs):
            view[row + t:row + t + k] = out
        self.drift = t + k

    def clear_of_edges(self, span, edge_tol):
        """Whether the edge check cannot fail in the next ``span`` steps.

        U is unitary with |i - j| <= 2, so the edge mass after each of the
        next ``span`` steps is at most the mass now within 2 span +
        EDGE_GUARD sites of either window edge.  Certified when that mass is
        at most edge_tol / 4; the factor covers the round-off of the span's
        steps, relative to the same mass.  Below the normal floating range a
        sum of squares can underflow, so a tolerance there certifies only an
        exactly zero region.  A negative or NaN tolerance certifies nothing.
        """
        plan = self.plan
        reach = 2 * span + EDGE_GUARD
        near = []
        for p in (0, 1):
            live = self._live(p)
            left = (plan.a + reach - plan.first[p]) // 2 + 1
            right = (plan.b - reach - plan.first[p] + 1) // 2
            near += [live[:left], live[max(left, right):]]
        limit = edge_tol / 4
        if limit >= _TINY:
            return sum(float(np.add.reduce(np.abs(x) ** 2)) for x in near) <= limit
        return limit >= 0 and not any(np.any(x) for x in near)

    def edge_mass(self):
        """``_edge_mass`` of the state, read from the edge slots alone."""
        plan = self.plan
        return _edge_mass(self.buf[plan.edge_home + self.drift * plan.edge_drift])

    def state(self):
        plan = self.plan
        psi = np.zeros(plan.size, dtype=np.complex128)
        for p in (0, 1):
            psi[plan.first[p] - plan.a::2] = self._live(p)
        return psi


def evolve_in_light_cone(frame, steps, edge_tol, each_step=None):
    """Advance ``frame`` by ``steps`` steps, or up to its first edge contact.

    Returns (steps done, edge contact): contact is an edge mass above
    ``edge_tol`` after a step.  The edge is checked step by step only where
    the light cone (``clear_of_edges``) cannot rule contact out: each span
    is the longest it clears, halved from twice the last, and a block of
    steps no row can see into is one ``advance``.  ``each_step(done)``, if
    given, runs after every step, and the steps then go one at a time.
    """
    done = 0
    span = steps
    while done < steps:
        span = min(span, steps - done)
        while span > 1 and not frame.clear_of_edges(span, edge_tol):
            span //= 2
        stop = done + span
        while done < stop:
            k = 1 if each_step else min(frame.block, stop - done)
            frame.advance(k)
            done += k
            if each_step:
                each_step(done)
        if span == 1 and frame.edge_mass() > edge_tol:
            return done, True
        span *= 2
    return done, False


def reflection_probe(seq, n, packet, horizon, window, *, edge_tol=EDGE_MASS_TOL,
                     record_series=False):
    """Evolve a left-incoming packet and report the final mass split.

    left/right masses are the weights of the indicator functions of
    (-inf, n-1] and [n, inf) restricted to the window; ``escaped`` is the
    remainder 1 - left - right (numerical drift only, since the two
    indicators partition the window).  Evolution stops at the horizon or at
    first edge contact, whichever comes first.  It runs in the
    free-transport frame (``TransportFrame``) of the cached plan of
    (seq, window), so a step costs the rows that scatter, not the window,
    and a block of steps no row can see into costs one pass
    (``evolve_in_light_cone``).  The result equals ``oracle.matvec_probe``'s
    bit for bit.
    """
    window, psi, masses = probe_start(n, packet, horizon, window)
    frame = TransportFrame(transport_plan(seq, window), psi)
    rows = []
    each_step = None
    if record_series:
        rows.append((0, *masses(psi)))

        def each_step(step):
            rows.append((step, *masses(frame.state())))
    del psi     # the frame holds the state; this lowers the probe's peak memory
    steps, edge_contact = evolve_in_light_cone(frame, int(horizon), edge_tol, each_step)
    return probe_result(masses, frame.state(), rows, steps, edge_contact)
