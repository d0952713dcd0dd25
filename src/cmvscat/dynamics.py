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

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .operator import Window, truncate

EDGE_GUARD = 2          # band distance monitored at each window edge
EDGE_MASS_TOL = 1e-6
TAIL_TOL = 1e-10


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
        if self.width <= 0:
            raise ConstructionError(f"packet width must be positive, got {self.width}")

    def build(self, window):
        """Normalized state vector over the window; validates the invariants."""
        if not isinstance(window, Window):
            window = Window(*window)
        k = np.arange(window.a, window.b + 1)
        psi = np.exp(-((k - self.center) ** 2) / (4.0 * self.width ** 2)
                     + 1j * self.theta0 * k)
        psi[k % 2 != 0] = 0.0
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise ConstructionError("packet has no support on the even sublattice")
        psi = psi / nrm
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


def probe_start(seq, n, packet, horizon, window):
    """Validated start of a probe: (truncation, initial state, mass split).

    ``masses(state)`` returns (left, right, escaped): the weights of the
    indicators of (-inf, n-1] and [n, inf) restricted to the window, and the
    remainder 1 - left - right.  Raises ConstructionError for a horizon
    below 1, a raw packet whose shape is not the window's, or a packet that
    is not left-concentrated.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    if not horizon >= 1:
        raise ConstructionError(f"probe horizon must be >= 1, got {horizon!r}")
    unitary = truncate(seq, window)
    psi = packet.build(window) if isinstance(packet, WavePacket) else np.asarray(packet)
    if psi.shape != (window.size,):
        raise ConstructionError(
            f"packet has shape {psi.shape}; window [{window.a}, {window.b}] "
            f"needs ({window.size},)"
        )
    right_sel = np.arange(window.a, window.b + 1) >= n

    def masses(state):
        right = float(np.sum(np.abs(state[right_sel]) ** 2))
        left = float(np.sum(np.abs(state[~right_sel]) ** 2))
        return left, right, 1.0 - left - right

    right0 = masses(psi)[1]
    if right0 > 1e-6:
        raise ConstructionError(
            f"packet is not left-concentrated: right mass {right0:.3e} > 1e-6"
        )
    return unitary, psi, masses


def probe_result(masses, psi, rows, steps, edge_contact):
    left, right, escaped = masses(psi)
    series = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    return ProbeResult(left_mass=left, right_mass=right, escaped=escaped,
                       steps=steps, edge_contact=edge_contact, series=series)


def _runs(mask):
    """(start, stop) of each maximal run of True in a 1-D boolean array."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return zip(edges[::2].tolist(), edges[1::2].tolist())


class TransportFrame:
    """The state of a truncation's evolution in the free-transport frame.

    A free row is an exact shift with coefficient rho(0)^2 == 1.0: even rows
    take x[i-2] and odd rows x[i+2].  Site i of parity p is kept in slot
    ``origin[p] + j`` of one buffer, with j = (i - first[p]) // 2 its
    sublattice index, and every step moves the even origin one slot left and
    the odd origin one slot right; that move is the whole of every free row.
    A step computes only the other rows, as runs of consecutive sublattice
    indices of one parity: each run is a sum of contiguous slot slices times
    the run's band coefficients, added in ``BandedUnitary.matvec``'s order
    o = -2..2, so the state equals the matvec loop's bit for bit.  A band
    that is zero on the whole run is skipped (adding 0 * x changes no finite
    sum).  Each sublattice's region of the buffer has a padding slot on
    either side of its sites, which an edge row's out-of-window column reads
    times an exact-zero coefficient, and as many slots of drift room as it
    has sites; when the room runs out the sites move back to its start, so
    memory is O(window) whatever the horizon.
    """

    def __init__(self, unitary, psi):
        w = unitary.window
        sites = np.arange(w.a, w.b + 1)
        even = sites % 2 == 0
        free = np.zeros((5, w.size), dtype=np.complex128)
        free[0, even] = 1.0
        free[4, ~even] = 1.0
        scatters = np.any(unitary.diags != free, axis=0)
        self.a = w.a
        self.size = w.size
        self.first = (w.a + w.a % 2, w.a + 1 - w.a % 2)
        self.count = tuple((w.b - f) // 2 + 1 for f in self.first)
        c0, c1 = self.count
        # even region [0, 2 c0 + 2) drifts left, odd region [2 c0 + 2, ...) right
        self.start = (c0 + 1, 2 * c0 + 3)
        self.buf = np.zeros(2 * (c0 + c1) + 4, dtype=np.complex128)
        self.origin = list(self.start)
        for p in (0, 1):
            self._live(p)[:] = psi[self.first[p] - w.a::2]
        self.runs = []
        for p in (0, 1):
            rows = slice(self.first[p] - w.a, None, 2)
            for j0, j1 in _runs(scatters[rows]):
                self.runs.append((p, j0, j1 - j0,
                                  self._bands(unitary.diags[:, rows], p, j0, j1)))
        g = EDGE_GUARD + 1
        edge = list(range(w.a, w.a + g)) + list(range(w.b - g + 1, w.b + 1))
        self.edge_parity = np.array(edge) % 2
        self.edge_slots = np.array([self.origin[i % 2] + (i - self.first[i % 2]) // 2
                                    for i in edge])
        self.edge_drift = 2 * self.edge_parity - 1

    def _bands(self, diags, p, j0, j1):
        """(coefficients, sublattice, slot offset from its origin) per nonzero band.

        Every row of a unitary has norm 1, so each run keeps at least one band.
        """
        bands = []
        for o in range(-2, 3):
            coef = np.ascontiguousarray(diags[o + 2, j0:j1])
            if np.any(coef != 0):
                q = (p + o) % 2
                bands.append((coef, q, j0 + (self.first[p] + o - self.first[q]) // 2))
        return bands

    def _live(self, p):
        return self.buf[self.origin[p]:self.origin[p] + self.count[p]]

    def _rebase(self):
        for p in (0, 1):
            live = self._live(p).copy()
            self.edge_slots[self.edge_parity == p] += self.start[p] - self.origin[p]
            self.origin[p] = self.start[p]
            self._live(p)[:] = live

    def step(self):
        origin, buf = self.origin, self.buf
        if origin[0] == 1:
            self._rebase()
        outs = []
        for _, _, length, bands in self.runs:
            out = None
            for coef, q, off in bands:
                lo = origin[q] + off
                term = coef * buf[lo:lo + length]
                if out is None:
                    out = term
                else:
                    out += term
            outs.append(out)
        origin[0] -= 1
        origin[1] += 1
        self.edge_slots += self.edge_drift
        for (p, j0, length, _), out in zip(self.runs, outs):
            lo = origin[p] + j0
            buf[lo:lo + length] = out

    def edge_mass(self):
        """``_edge_mass`` of the state, read from the edge slots alone."""
        return _edge_mass(self.buf[self.edge_slots])

    def state(self):
        psi = np.zeros(self.size, dtype=np.complex128)
        for p in (0, 1):
            psi[self.first[p] - self.a::2] = self._live(p)
        return psi


def reflection_probe(seq, n, packet, horizon, window, *, edge_tol=EDGE_MASS_TOL,
                     record_series=False):
    """Evolve a left-incoming packet and report the final mass split.

    left/right masses are the weights of the indicator functions of
    (-inf, n-1] and [n, inf) restricted to the window; ``escaped`` is the
    remainder 1 - left - right (numerical drift only, since the two
    indicators partition the window).  Evolution stops at the horizon or at
    first edge contact, whichever comes first.  It runs in the
    free-transport frame (``TransportFrame``), so a step costs the rows that
    scatter, not the window; the result equals ``oracle.matvec_probe``'s bit
    for bit.
    """
    unitary, psi, masses = probe_start(seq, n, packet, horizon, window)
    frame = TransportFrame(unitary, psi)
    rows = [(0, *masses(psi))] if record_series else []
    edge_contact = False
    steps_done = 0
    for step in range(1, int(horizon) + 1):
        frame.step()
        steps_done = step
        if record_series:
            rows.append((step, *masses(frame.state())))
        if frame.edge_mass() > edge_tol:
            edge_contact = True
            break
    return probe_result(masses, frame.state(), rows, steps_done, edge_contact)
