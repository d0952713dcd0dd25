"""Brute-force reference implementations for tests and acceptance runs.

Nothing here sits on a production path: the dense resolvent checks the
banded solves entry by entry through ``green``; the transfer-matrix
reflection gives |s_ij| on the unit circle with no m-function, defect
pairing or radial limit; ``matvec_probe`` evolves the reflection probe
by full-window matvecs, the loop the free-transport frame replaces; and
``dynamical_scattering`` evaluates the scattering operator's quadratic
form on a wave packet by finite-time evolution, which pins the phases
of s_ll and s_rr and not only their moduli.
"""
from __future__ import annotations

import numpy as np

from .dynamics import (EDGE_MASS_TOL, TransportFrame, TransportPlan, _edge_mass,
                       evolve_in_light_cone, probe_result, probe_start, transport_plan)
from .errors import ConstructionError, NearSpectrumError
from .operator import Window, truncate
from .resolvent import has_zero_tails, resolvent_pairings
from .weyl import transfer

ORACLE_MAX_DIM = 512
# Edge mass above which dynamical_scattering reports contact: a step from a
# state under it moves the value by at most 2 sqrt(EXACT_EDGE_TOL) = 2e-18.
EXACT_EDGE_TOL = 1e-36


def dense_green(seq, window, z):
    """Full (U - z)^{-1} by dense factorization; oracle scale only (n <= 512)."""
    if not isinstance(window, Window):
        window = Window(*window)
    if window.size > ORACLE_MAX_DIM:
        raise ConstructionError(
            f"dense oracle limited to {ORACLE_MAX_DIM} sites, got {window.size}"
        )
    U = truncate(seq, window).to_dense()
    A = U - z * np.eye(window.size)
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NearSpectrumError(f"dense resolvent singular at z={z}") from exc


def green(seq, window, i, j, z):
    """<delta_i, (U - z)^{-1} delta_j> for the truncation U on ``window``.

    One banded solve on exactly that window, with no window-doubling
    certificate: the banded side of the entrywise check against
    ``dense_green``.
    """
    vals = resolvent_pairings(seq, window, z, [{j: 1.0}], [{i: 1.0}], mode="bilinear")
    return complex(vals[0, 0])


def support_transfer(seq, theta):
    """Product of ``weyl.transfer`` across the support of a zero-tail sequence.

    M = T(z, b) ... T(z, a + 1) at z = e^{i theta}, from the even site a
    below the support to the even site b above it.  Outside the support the
    two-step transfer T(z, 2j + 1) T(z, 2j) is diag(z, 1/z), so solutions
    there are free plane waves and M is their scattering transfer matrix.
    """
    if not has_zero_tails(seq, 0):
        raise ValueError("transfer-matrix scattering needs zero tails on both sides")
    a = -seq.tail(0, -1)[0]
    b = seq.tail(0, 1)[0]
    z = np.exp(1j * theta)
    M = np.eye(2, dtype=np.complex128)
    for k in range(a - a % 2 + 1, b + b % 2 + 1):
        M = transfer(seq, z, k) @ M
    return M


def transfer_reflection(seq, theta):
    """Reflection modulus |r| = |M_21 / M_22| of ``support_transfer``.

    Every s_ij then has a known modulus: |s_ll| = |s_rr| = |r| and
    |s_lr| = |s_rl| = sqrt(1 - |r|^2), at every decoupling site.
    """
    M = support_transfer(seq, theta)
    return float(abs(M[1, 0] / M[1, 1]))


def matvec_probe(seq, n, packet, horizon, window, *, edge_tol=EDGE_MASS_TOL,
                 record_series=False):
    """``dynamics.reflection_probe`` by one full-window ``matvec`` per step."""
    window, psi, masses = probe_start(n, packet, horizon, window)
    unitary = truncate(seq, window)
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
    return probe_result(masses, psi, rows, steps_done, edge_contact)


def _transport(plan, psi, steps):
    """U^steps psi for the truncation U of ``plan``, in the free-transport
    frame; edge contact, of psi itself or after any step, raises.
    """
    frame = TransportFrame(plan, psi)
    done, contact = 0, frame.edge_mass() > EXACT_EDGE_TOL
    if not contact:
        done, contact = evolve_in_light_cone(frame, steps, EXACT_EDGE_TOL)
    if contact:
        raise ConstructionError(f"packet reached the window edge after {done} steps")
    return frame.state()


def dynamical_scattering(seq, n, packet, t, window):
    """<f, S f> = <C_n^t f, C^{2t} C_n^{-t} f> on the truncation to ``window``.

    S = Omega_+^* Omega_- is the scattering operator of C against C_n, and
    the finite-time form is exact, up to round-off, once the packet has left
    the support: for an even-sublattice packet f in the zero tail left of it,
    the spectral weights w of f's envelope give sum w(phi) s_ll(-phi); for an
    odd-sublattice packet on the right, sum w(phi) s_rr(phi).

    ``packet`` is a ``WavePacket`` or a raw unit-norm array of the window's
    shape, and ``t`` a whole number of steps >= 1, both validated as
    ``dynamics.probe_start`` validates a probe's.  C_n^{-t} f takes t
    ``matvec_adjoint`` steps of the decoupled truncation; the two forward
    evolutions run in ``TransportFrame``.  A state whose edge mass exceeds
    EXACT_EDGE_TOL at any step raises ConstructionError.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    # a cut past the window counts every packet as left-concentrated
    _, f, _ = probe_start(window.b + 1, packet, t, window)
    t = int(t)
    decoupled = truncate(seq.decouple(n), window)
    g = f
    for step in range(t):
        if _edge_mass(g) > EXACT_EDGE_TOL:
            raise ConstructionError(f"packet reached the window edge after {step} steps back")
        g = decoupled.matvec_adjoint(g)
    return complex(np.vdot(_transport(TransportPlan(decoupled), f, t),
                           _transport(transport_plan(seq, window), g, 2 * t)))
