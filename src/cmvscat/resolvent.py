"""Half-line m-functions, boundary values, densities, and the banded reference route.

Half-line m-functions come from the Schur recursion.  The half-line
spectral measure at a cut has Verblunsky coefficients read off the
sequence, so its Caratheodory function F is

    m^r_n(z) = F(z; -conj(a_{n+1}), -conj(a_{n+2}), ...)
    m^l_n(z) = -F(z; -a_n, -a_{n-1}, ...)
    F = (1 + z f_0) / (1 - z f_0),   f_{k-1} = (b_k + z f_k) / (1 + conj(b_k) z f_k),

run backward from the Schur function of the tail at depth D.  That seed is
exact wherever the sequence is eventually periodic: it is 0 for a zero
tail (coefficients below NEGLIGIBLE) and otherwise the in-disc fixed point
of the Moebius steps composed over one period.  The certificate runs the
recursion at depth D and 2D and accepts when the two values agree to
``wd_tol`` (relative), doubling D up to MAX_GROWN_SPAN and raising
``NotConvergedError`` otherwise; a sequence with no exact tail
(random_decay at rate 0) relies on the doubling alone.  Outside the disc
``F(z) = -conj(F(1/conj z))``.  With zero tails on both sides of a cut
(``has_zero_tails``) the recursion is exact on |z| = 1 too, and
``circle_m_pairs`` returns the m-pair there at both depths.

Banded solves of ``(U - z) x = b`` on edge-decoupled truncations are the
reference route, for the tests and the ``oracle`` job: production defect
pairings come from the local Green block (``weyl.green_block``).  Finite
truncations carry an edge artifact of order
``exp(-|1 - |z|| * distance_to_edge)``, so ``grown_pairings`` certifies
every pairing by window doubling: the window grows until the value is
stable to ``wd_tol`` (relative), and failure to stabilize raises
``NotConvergedError``.  LAPACK is looked up on the first factorization,
so no production path imports ``scipy``.  ``halfline_green_nn`` is the
banded half-line route, kept as a cross-check of the Schur one.

Elsewhere boundary values on the unit circle are radial limits from inside
the disc, ``z = (1 - eps_j) e^{i theta}`` with a geometric schedule of
distances: ``extrapolate_levels`` turns the values at the scheduled points
into one, optionally Richardson-accelerated by polynomial extrapolation in
``eps``.  ``settled_value`` is the certificate both routes share, and
``density_of_m`` reads an a.c. density off an m boundary value.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import NEGLIGIBLE
from .errors import NearSpectrumError, NegativeDensityError, NotConvergedError
from .operator import BandedUnitary, Window, truncate

# Residual target for every accepted resolvent solve.
RESIDUAL_TARGET = 1e-12
# Solution-growth bound treated as "z effectively on the spectrum".
COND_LIMIT = 1e12
# Pre-growth heuristic: before the first doubling comparison, put each
# growing edge at distance >= GUARD / eps from the window's centre (from the
# pinned edge for one-sided growth).
GUARD = 16.0
# Hard cap on one-sided window span during growth, and on the Schur depth.
MAX_GROWN_SPAN = 1 << 18

DEFAULT_WD_TOL = 1e-6
DEFAULT_BV_TOL = 1e-4
# Densities below -DEFAULT_NEG_TOL are extrapolation failures, not round-off.
DEFAULT_NEG_TOL = 1e-3
DEFAULT_HALF_BASE = 256
# Shallowest Schur recursion the depth-doubling certificate starts from.
MIN_SCHUR_DEPTH = 16
# Most radial levels a schedule may take: each costs one Weyl step per theta,
# and the Neville pass over them is quadratic in their number.
MAX_LEVELS = 32

# Pivoted LU of a pentadiagonal matrix: two sub- and two super-diagonals.
_KL = _KU = 2


@lru_cache(maxsize=1)
def _banded_lapack():
    """(gbtrf, gbtrs) for complex128, looked up on the first factorization.

    Importing scipy.linalg costs more than the rest of the package, and a
    sample on the unit circle never factors a band.
    """
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.complex128)


@dataclass(frozen=True)
class RadialSchedule:
    """Geometric approach r_j = 1 - eps0 * contraction^j to the unit circle."""

    eps0: float = 1e-2
    levels: int = 6
    contraction: float = 0.5
    extrapolation: str = "richardson"

    def __post_init__(self):
        if not (0 < self.eps0 < 1):
            raise ValueError(f"eps0 must be in (0, 1), got {self.eps0}")
        if not 3 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must lie in [3, {MAX_LEVELS}], got {self.levels}")
        if not (0 < self.contraction < 1):
            raise ValueError(f"contraction must be in (0, 1), got {self.contraction}")
        # With no exact tail the deepest level starts the Schur recursion
        # GUARD / eps deep; past MAX_GROWN_SPAN / 2 no depth doubling fits.
        if 2 * GUARD > MAX_GROWN_SPAN * self.eps0 * self.contraction ** (self.levels - 1):
            raise ValueError(
                f"deepest level closer than {2 * GUARD / MAX_GROWN_SPAN:.3e} to the circle; "
                f"a Schur depth capped at {MAX_GROWN_SPAN} cannot certify it"
            )
        if self.extrapolation not in ("none", "richardson"):
            raise ValueError(f"unknown extrapolation {self.extrapolation!r}")

    def distances(self):
        return self.eps0 * self.contraction ** np.arange(self.levels)

    def radii(self):
        return 1.0 - self.distances()

    def points(self, theta):
        return self.radii() * np.exp(1j * theta)


@dataclass(frozen=True)
class BoundaryValue:
    value: complex
    err_est: float
    converged: bool


class BandSolver:
    """Factor (U - z) once on a truncation; solve many right-hand sides.

    One step of iterative refinement keeps the residual at the accepted
    target even when z sits within ~1e-4 of the unit circle.
    """

    def __init__(self, unitary: BandedUnitary, z):
        self.unitary = unitary
        self.z = complex(z)
        # LAPACK general-banded layout (7, n), kl = ku = 2: rows 0..1 hold
        # the pivoting fill-in, so the LU overwrites the band in place.
        ab = np.asfortranarray(unitary.lapack_band(self.z))
        gbtrf, self._gbtrs = _banded_lapack()
        self._lu, self._ipiv, info = gbtrf(ab, _KL, _KU, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"gbtrf: illegal argument {-info}")
        if info > 0:
            raise NearSpectrumError(f"(U - z) exactly singular at z={self.z}")

    def lu_solve(self, b):
        """(U - z)^{-1} b from the pivoted LU alone: no refinement, no checks."""
        x, info = self._gbtrs(self._lu, _KL, _KU, b, self._ipiv)
        if info != 0:
            raise np.linalg.LinAlgError(f"gbtrs failed with info={info}")
        return x

    def _residual(self, x, b):
        return self.unitary.matvec(x) - self.z * x - b

    def solve(self, b):
        b = np.asarray(b, dtype=np.complex128)
        scale = max(1.0, float(np.linalg.norm(b)))
        x = self.lu_solve(b)
        r = self._residual(x, b)
        if np.linalg.norm(r) > 0.5 * RESIDUAL_TARGET * scale:
            x = x - self.lu_solve(r)
            r = self._residual(x, b)
        res = float(np.linalg.norm(r))
        if res > RESIDUAL_TARGET * scale:
            raise NearSpectrumError(
                f"resolvent residual {res:.3e} above target at z={self.z}"
            )
        if np.linalg.norm(x) > COND_LIMIT * scale:
            raise NearSpectrumError(f"solution growth beyond {COND_LIMIT:.1e} at z={self.z}")
        return x

    def solve_sparse(self, rhs):
        """Solve with a {site: value} right-hand side."""
        b = np.zeros(self.unitary.size, dtype=np.complex128)
        for k, v in rhs.items():
            b[self.unitary.window.index(k)] = v
        return self.solve(b)


def _sparse_pair(x, v, window, mode):
    """<x, v> over a sparse second factor.

    mode "herm": sum conj(x_i) v_i (physics inner product, x conjugated);
    mode "bilinear": sum x_i v_i.
    """
    acc = 0.0 + 0.0j
    for k, val in v.items():
        xi = x[window.index(k)]
        acc += (np.conj(xi) if mode == "herm" else xi) * val
    return acc


# Truncations are z-independent, and a reference run over several z revisits
# the same window ladder; no production path fills this cache.
_truncate_cached = lru_cache(maxsize=24)(truncate)


def resolvent_pairings(seq, window, z, rhs_list, probe_list, mode="herm"):
    """Matrix of pairings <(U_window - z)^{-1} u_a, v_b> on a fixed window."""
    unitary = _truncate_cached(seq, window)
    solver = BandSolver(unitary, z)
    out = np.empty((len(rhs_list), len(probe_list)), dtype=np.complex128)
    for a, u in enumerate(rhs_list):
        x = solver.solve_sparse(u)
        for b, v in enumerate(probe_list):
            out[a, b] = _sparse_pair(x, v, window, mode)
    return out


def _pregrow(window, z, grow):
    """Double the window until its growing edges sit GUARD / eps sites out.

    A centred window ("both") reaches span >= 2 GUARD / eps, so each edge is
    GUARD / eps from the centre; one-sided growth reaches span >= GUARD / eps
    from the pinned edge.  Growth stops at span MAX_GROWN_SPAN / 2, so one
    doubling comparison always fits under the cap.
    """
    eps = abs(1.0 - abs(z))
    if eps <= 0:
        raise ValueError("|z| = 1 is not in the resolvent set")
    target = (2.0 if grow == "both" else 1.0) * GUARD / eps
    w = window
    while (w.b - w.a) < target and (w.b - w.a) * 4 <= MAX_GROWN_SPAN:
        w = w.doubled(grow)
    return w


def grown_pairings(seq, window, z, rhs_list, probe_list, *, mode="herm",
                   grow="both", wd_tol=DEFAULT_WD_TOL):
    """Pairings with a window-doubling convergence certificate.

    Doubles the window (about its center, or one-sided for half-line use)
    until the full pairing matrix moves by at most wd_tol relative between
    consecutive sizes; returns the larger-window values.
    """
    w = _pregrow(window, z, grow)
    prev = None
    while True:
        vals = resolvent_pairings(seq, w, z, rhs_list, probe_list, mode=mode)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(vals))))
            if float(np.max(np.abs(vals - prev))) <= wd_tol * scale:
                return vals
        if (w.b - w.a) * 2 > MAX_GROWN_SPAN:
            raise NotConvergedError(
                f"window grew to span {w.b - w.a} without stabilizing at z={z}"
            )
        prev = vals
        w = w.doubled(grow)


def halfline_green_nn(seq, side, n, z, *, base_len=DEFAULT_HALF_BASE,
                      wd_tol=DEFAULT_WD_TOL):
    """Certified G_{nn}(z) of the half-line operator cut at n, by banded solves.

    The cross-check of the Schur route: ``-+(1 + 2 z G_{nn})`` is
    ``m_function`` (- for side "l").  Side "r": operator on [n, inf),
    realized as growing windows [n, n+L]; side "l": operator on (-inf, n],
    windows [n-L, n].  The cut edge stays pinned at n; only the artificial
    far edge grows.
    """
    if side == "r":
        window, grow = Window(n, n + base_len), "right"
    elif side == "l":
        window, grow = Window(n - base_len, n), "left"
    else:
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    vals = grown_pairings(
        seq, window, z, [{n: 1.0}], [{n: 1.0}], mode="bilinear", grow=grow, wd_tol=wd_tol
    )
    return complex(vals[0, 0])


# The parameters are z-independent; radial sweeps ask for the same ones at
# every level and theta.
@lru_cache(maxsize=16)
def _schur_parameters(seq, side, n, count):
    """The first ``count`` Schur parameters of the half-line measure at n.

    Side "r": -conj(a_{n+1}), -conj(a_{n+2}), ...; side "l": -a_n, -a_{n-1}, ...
    """
    if side == "r":
        return -np.conj(seq.alpha_array(n + 1, n + 1 + count))
    return -seq.alpha_array(n + 1 - count, n + 1)[::-1]


def _disc_root(a, b, c):
    """The smaller-modulus root of a f^2 + b f + c = 0 (a root of b f + c if a = 0)."""
    if a == 0:
        return -c / b
    sq = cmath.sqrt(b * b - 4 * a * c)
    if (b.conjugate() * sq).real < 0:
        sq = -sq
    q = -0.5 * (b + sq)
    return min(c / q, q / a, key=abs)


def _tail_seed(period, z):
    """Schur function of the periodic tail whose one period is ``period``.

    The in-disc fixed point of f -> (p f + q) / (r f + s), the Schur steps
    through one period composed; for a constant tail b it is the disc root
    of conj(b) z f^2 + (1 - z) f - b = 0.
    """
    p, q, r, s = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for b in period:
        bz = b.conjugate() * z
        p, q, r, s = p * z + q * bz, p * b + q, r * z + s * bz, r * b + s
        scale = max(abs(p), abs(q), abs(r), abs(s))
        p, q, r, s = p / scale, q / scale, r / scale, s / scale
    return _disc_root(r, s - p, -q)


def _caratheodory_at(params, z, f):
    """(1 + z f_0) / (1 - z f_0) after the backward Schur steps from f_D = f."""
    for b in reversed(params):
        zf = z * f
        f = (b + zf) / (1.0 + b.conjugate() * zf)
    zf = z * f
    return (1.0 + zf) / (1.0 - zf)


def _tail(seq, side, n):
    """(onset, period) of the Schur parameters at (side, n), None out of reach.

    Past ``onset`` the parameters repeat with ``period``; an onset beyond
    MAX_GROWN_SPAN / 2 leaves no room for one depth doubling.
    """
    tail = seq.tail(n + 1, 1) if side == "r" else seq.tail(n, -1)
    if tail is None or 2 * tail[0] > MAX_GROWN_SPAN:
        return None
    return tail


def _is_zero(tail_params):
    """A tail whose parameters all lie below NEGLIGIBLE: its Schur function is 0."""
    return all(abs(b) < NEGLIGIBLE for b in tail_params)


def has_zero_tails(seq, n):
    """Both half-lines of the cut at n end, within reach, in a zero tail.

    The recursion then gives m^l_{n-1} and m^r_n exactly on |z| = 1 as well
    (``circle_m_pairs``), since it starts from the Schur function 0.
    """
    for side, site in (("l", n - 1), ("r", n)):
        tail = _tail(seq, side, site)
        if tail is None:
            return False
        onset, period = tail
        if not _is_zero(_schur_parameters(seq, side, site, onset + period)[onset:]):
            return False
    return True


def _caratheodory(seq, side, n, z, wd_tol):
    """F(z) of the half-line measure at (side, n), 0 < |z| <= 1, depth-certified.

    Returns (F at the accepted depth 2D, F at depth D).  With an exact tail
    in reach the recursion starts past its onset; on |z| = 1 that tail must
    be zero (``has_zero_tails``).  Otherwise the seed is 0 and, as in
    ``_pregrow``, the first depth puts the far end GUARD / (1 - |z|) sites out.
    """
    tail = _tail(seq, side, n)
    if tail is not None:
        depth, period = max(MIN_SCHUR_DEPTH, tail[0]), tail[1]
    else:
        depth, period = max(MIN_SCHUR_DEPTH, math.ceil(GUARD / (1.0 - abs(z)))), 0
    prev = None
    while depth <= MAX_GROWN_SPAN:
        params = _schur_parameters(seq, side, n, depth + period).tolist()
        f = 0j if _is_zero(params[depth:]) else _tail_seed(params[depth:], z)
        val = _caratheodory_at(params[:depth], z, f)
        if prev is not None and abs(val - prev) <= wd_tol * max(1.0, abs(val)):
            return val, prev
        prev = val
        depth *= 2
    raise NotConvergedError(
        f"Schur recursion unstable under depth doubling to {MAX_GROWN_SPAN} at z={z}"
    )


def m_function(seq, side, n, z, *, wd_tol=DEFAULT_WD_TOL):
    """Half-line Weyl-Titchmarsh function -+ <delta_n, (C' + z)(C' - z)^{-1} delta_n>.

    The sign is - for side "l" and + for side "r"; equivalently
    ``-+ (1 + 2 z G'_{nn}(z))`` through the half-line Green's function.
    Computed by the Schur recursion (module docstring); at z = 0 this is
    exactly -+1 for every sequence, and |z| = 1 is rejected.
    """
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    z = complex(z)
    r = abs(z)
    if r == 0:
        F = 1.0 + 0j
    elif r < 1:
        F = _caratheodory(seq, side, n, z, wd_tol)[0]
    elif r > 1:
        F = -_caratheodory(seq, side, n, 1.0 / z.conjugate(), wd_tol)[0].conjugate()
    else:
        raise ValueError("|z| = 1 is not in the resolvent set")
    return -F if side == "l" else F


def m_pair(seq, n, z, *, wd_tol=DEFAULT_WD_TOL):
    """(m^l_{n-1}(z), m^r_n(z)): the two half-line m-functions of the cut at n."""
    m_l = m_function(seq, "l", n - 1, z, wd_tol=wd_tol)
    m_r = m_function(seq, "r", n, z, wd_tol=wd_tol)
    return m_l, m_r


# Relative round-off allowed to every boundary value.  A level-to-level
# change does not bound round-off by itself: past a zero tail the depth-D
# and depth-2D recursions do the same arithmetic, so their difference can
# read 0, and a radial extrapolant can settle below round-off (free s_ll at
# 2.4e-19 with a dropped-level change of 4.3e-28).
ROUNDOFF = 1e-13


def circle_m_pairs(seq, n, z, *, wd_tol=DEFAULT_WD_TOL):
    """The m-pair of the cut at n at z = e^{i theta}, at Schur depths D and 2D.

    Needs ``has_zero_tails(seq, n)``, which makes both values exact up to
    round-off; their difference is the depth-doubling certificate.  Returns
    [(m^l_{n-1}, m^r_n) at D, the same at 2D], coarse first like radial levels.
    """
    if not has_zero_tails(seq, n):
        raise ValueError(f"m-functions on |z| = 1 need zero tails on both sides of {n}")
    F_l, F_l_half = _caratheodory(seq, "l", n - 1, complex(z), wd_tol)
    F_r, F_r_half = _caratheodory(seq, "r", n, complex(z), wd_tol)
    return [(-F_l_half, F_r_half), (-F_l, F_r)]


def _neville_at_zero(xs, ys):
    p = [complex(y) for y in ys]
    n = len(p)
    for m in range(1, n):
        for i in range(n - m):
            p[i] = (xs[i + m] * p[i] - xs[i] * p[i + 1]) / (xs[i + m] - xs[i])
    return p[0]


def settled_value(value, prev):
    """BoundaryValue ``value`` with err_est |value - prev| + ROUNDOFF * max(1, |value|).

    ``prev`` is the value at the coarser level; the value counts as
    converged when err_est <= DEFAULT_BV_TOL.  A non-finite value gives
    NaN, not converged.
    """
    value, prev = complex(value), complex(prev)
    if not (cmath.isfinite(value) and cmath.isfinite(prev)):
        return BoundaryValue(value=complex("nan"), err_est=float("inf"), converged=False)
    err = abs(value - prev) + ROUNDOFF * max(1.0, abs(value))
    return BoundaryValue(value=value, err_est=err, converged=bool(err <= DEFAULT_BV_TOL))


def extrapolate_levels(eps, ys, extrapolation):
    """Boundary value lim_{eps->0} of values ``ys`` taken at distances ``eps``.

    With Richardson extrapolation the limit is the polynomial-in-eps
    extrapolant to eps = 0, otherwise the deepest level's value; err_est is
    the change from dropping the deepest level plus round-off
    (``settled_value``).  A
    non-finite level value gives NaN, not converged.
    """
    ys = [complex(y) for y in ys]
    if not all(cmath.isfinite(y) for y in ys):
        return settled_value(complex("nan"), 0j)
    if extrapolation == "richardson":
        return settled_value(_neville_at_zero(eps, ys), _neville_at_zero(eps[:-1], ys[:-1]))
    return settled_value(ys[-1], ys[-2])


def density_of_m(side, m):
    """-+ Re m (- for "l", + for "r"): the a.c. density of an m boundary value.

    Raises NegativeDensityError below -DEFAULT_NEG_TOL (the extrapolation
    failed); values in [-DEFAULT_NEG_TOL, 0) clamp to 0.
    """
    d = float(m.real if side == "r" else -m.real)
    if d < -DEFAULT_NEG_TOL:
        raise NegativeDensityError(
            f"density {d:.3e} < -{DEFAULT_NEG_TOL:.1e}; extrapolation failed")
    return max(0.0, d)
