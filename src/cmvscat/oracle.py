"""Brute-force reference implementations for tests and acceptance runs.

Nothing here sits on a production path: the dense resolvent checks the
banded solves entry by entry through ``green``; the transfer-matrix
reflection gives |s_ij| on the unit circle with no m-function, defect
pairing or radial limit; ``matvec_probe`` evolves the reflection probe
by full-window matvecs, the loop the free-transport frame replaces; and
the time-domain scattering estimate
cross-checks the stationary formulas at low accuracy through the
Abel-summed expansion of s - 1 with the wave operator replaced by a
finite-time approximant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EDGE_MASS_TOL, _edge_mass, probe_result, probe_start
from .errors import ConstructionError, NearSpectrumError
from .operator import Window, defect, truncate
from .resolvent import has_zero_tails, resolvent_pairings
from .weyl import transfer

ORACLE_MAX_DIM = 512


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
    unitary, psi, masses = probe_start(seq, n, packet, horizon, window)
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


def _sublattice_packet(window, center, width, parity):
    k = np.arange(window.a, window.b + 1)
    psi = np.exp(-((k - center) ** 2) / (4.0 * width ** 2)).astype(np.complex128)
    psi[k % 2 != parity] = 0.0
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class TimeDomainScattering:
    """Low-accuracy estimates of <f_a, (s - 1) f_b> between channel packets."""

    entries: dict                # {("l","l"): complex, ...}
    overlaps: dict               # {("l","l"): <f_a, f_b>, ...}
    m_max: int
    t: float


def finite_time_scattering(seq, n, window, m_max, t, *, packets=None):
    """Abel-summed time-domain estimate of the (s - 1) quadratic form.

    Truncates sum_k t^{|k|} <C^k (C - C_n) C_n^{-k-1} f, w g> at |k| <=
    m_max, with w replaced by the finite-time approximant C^{m_max}
    C_n^{-m_max} on the truncation.  Accuracy is ~1e-2 at best; use only as
    a structural sanity check of the stationary formulas.

    ``packets`` optionally supplies {"l": vec, "r": vec}; the defaults are
    an even-sublattice (right-moving) Gaussian in the left half and an
    odd-sublattice (left-moving) Gaussian in the right half, i.e. the two
    incoming channels of the decoupled dynamics.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    if not (0.0 <= t < 1.0):
        raise ConstructionError(f"Abel parameter t must be in [0, 1), got {t}")
    U = truncate(seq, window)
    Un = truncate(seq.decouple(n), window)
    D = defect(seq, n)

    # Trajectories move 2 sites per step; everything must stay clear of the
    # window edges for the whole summed horizon or bounce terms pollute the
    # estimate.
    span = window.b - window.a
    width = 6.0
    off = 24
    if off + 2 * m_max + 16 > span // 2:
        raise ConstructionError(
            f"m_max {m_max} walks too far for window span {span}; shrink m_max "
            "or enlarge the window"
        )
    if packets is None:
        packets = {
            "l": _sublattice_packet(window, n - off, width, parity=0),
            "r": _sublattice_packet(window, n + off, width, parity=1),
        }

    def defect_apply(x):
        return D.apply(x, window)

    sides = ("l", "r")
    overlaps = {(a, b): complex(np.vdot(packets[a], packets[b]))
                for a in sides for b in sides}

    # w g ~= U^m Un^{-m} g
    w = {}
    for b in sides:
        g = packets[b]
        for _ in range(m_max):
            g = Un.matvec_adjoint(g)
        for _ in range(m_max):
            g = U.matvec(g)
        w[b] = g

    entries = {(a, b): 0.0 + 0.0j for a in sides for b in sides}
    for a in sides:
        # k >= 0 chain: f_k = C_n^{-k-1} f, paired against C^{-k} w
        f_k = Un.matvec_adjoint(packets[a])
        w_k = {b: w[b].copy() for b in sides}
        for k in range(0, m_max + 1):
            weight = t ** k if k > 0 else 1.0
            if weight != 0.0:
                df = defect_apply(f_k)
                for b in sides:
                    entries[(a, b)] += weight * complex(np.vdot(df, w_k[b]))
            if k == m_max:
                break
            f_k = Un.matvec_adjoint(f_k)
            for b in sides:
                w_k[b] = U.matvec_adjoint(w_k[b])
        # k < 0 chain: C_n^{|k|-1} f, paired against C^{|k|} w
        f_k = packets[a]
        w_k = {b: w[b].copy() for b in sides}
        for k in range(1, m_max + 1):
            for b in sides:
                w_k[b] = U.matvec(w_k[b])
            weight = t ** k
            if weight == 0.0:
                break
            df = defect_apply(f_k)
            for b in sides:
                entries[(a, b)] += weight * complex(np.vdot(df, w_k[b]))
            f_k = Un.matvec(f_k)

    entries = {key: -val for key, val in entries.items()}
    return TimeDomainScattering(entries=entries, overlaps=overlaps, m_max=m_max, t=t)
