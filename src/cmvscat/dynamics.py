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
    return float(np.sum(np.abs(psi[:g]) ** 2) + np.sum(np.abs(psi[-g:]) ** 2))


@dataclass(frozen=True)
class ProbeResult:
    left_mass: float
    right_mass: float
    escaped: float
    steps: int
    edge_contact: bool
    series: np.ndarray    # rows (step, left, right, escaped); empty unless recorded


def reflection_probe(seq, n, packet, horizon, window, *, edge_tol=EDGE_MASS_TOL,
                     record_series=False):
    """Evolve a left-incoming packet and report the final mass split.

    left/right masses are the weights of the indicator functions of
    (-inf, n-1] and [n, inf) restricted to the window; ``escaped`` is the
    remainder 1 - left - right (numerical drift only, since the two
    indicators partition the window).  Evolution stops at the horizon or at
    first edge contact, whichever comes first.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    unitary = truncate(seq, window)
    psi = packet.build(window) if isinstance(packet, WavePacket) else np.asarray(packet)
    k = np.arange(window.a, window.b + 1)
    right_sel = k >= n

    def masses(state):
        right = float(np.sum(np.abs(state[right_sel]) ** 2))
        left = float(np.sum(np.abs(state[~right_sel]) ** 2))
        return left, right, 1.0 - left - right

    left0, right0, _ = masses(psi)
    if right0 > 1e-6:
        raise ConstructionError(
            f"packet is not left-concentrated: right mass {right0:.3e} > 1e-6"
        )

    rows = []
    if record_series:
        rows.append((0, *masses(psi)))
    edge_contact = False
    steps_done = 0
    for step in range(1, int(horizon) + 1):
        psi = unitary.matvec(psi)
        steps_done = step
        if record_series:
            rows.append((step, *masses(psi)))
        if _edge_mass(psi) > edge_tol:
            edge_contact = True
            break
    left, right, escaped = masses(psi)
    series = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    return ProbeResult(left_mass=left, right_mass=right, escaped=escaped,
                       steps=steps_done, edge_contact=edge_contact, series=series)
