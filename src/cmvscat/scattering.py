"""The 2x2 scattering matrix of the coupled/decoupled pair and the
reflectionless classification.

For a decoupling site n, the matrix s(theta) relating the incoming and
outgoing channels (left/right half-lines, density-normalized so that the
matrix is unitary in the standard C^2 inner product wherever both spectral
densities are positive) is assembled from boundary values of full-line
resolvent pairings against the defect columns of C - C_n, together with
the two half-line densities.  The entries use the even-n branch

    s_ll = 1 + (1 - conj(a_n) - <R D_{n-2}, D*_{n-1}> / rho_{n-1}) d_l
    s_lr = (rho_n - <R D_{n-2}, D*_n> / rho_{n-1}) sqrt(d_r d_l)
    s_rl = (-rho_n + <R D_{n+1}, D*_{n-1}> / rho_{n+1}) sqrt(d_r d_l)
    s_rr = 1 + (1 - a_n + <R D_{n+1}, D*_n> / rho_{n+1}) d_r

and the odd-n branch

    s_ll = 1 + (1 - conj(a_n) - <R D_{n-1}, D*_{n-2}> / rho_{n-1}) d_l
    s_lr = (-rho_n + <R D_{n-1}, D*_{n+1}> / rho_{n+1}) sqrt(d_r d_l)
    s_rl = (rho_n - <R D_n, D*_{n-2}> / rho_{n-1}) sqrt(d_r d_l)
    s_rr = 1 + (1 - a_n + <R D_n, D*_{n+1}> / rho_{n+1}) d_r

where R = (C - z)^{-1}, D_j is the j-th defect column, D*_j the adjoint
one, and d_l, d_r the a.c. densities of the half-line spectral measures at
sites n-1 and n.  At every z the pairings come from the local Green block
that the m-pair of the cut seeds (``weyl.green_block``), so no band is
factored.  s is evaluated on one of two routes:

* On the circle, when both half-lines of the cut at n end in a zero tail
  within reach (free, single_barrier, explicit with default 0, random_decay
  at rate > 0): the Schur recursion gives m^l_{n-1} and m^r_n exactly at
  z = e^{i theta}.  Each value is taken at Schur depths D and 2D; the 2D
  value is reported, with the change from D plus a round-off allowance as
  its error estimate.
* Radially otherwise: at z = r e^{i theta}, r -> 1 from inside, the
  m-functions are certified by Schur depth doubling at every level, and
  the boundary value is the radial extrapolation of the fully assembled
  entry.

An independent diagonal route goes through the Moebius-transformed
m-functions:

    s_ll = (conj(Mhat^r_{n-1}) + Mhat^l_{n-1}) / (conj(Mhat^r_{n-1}) - conj(Mhat^l_{n-1}))
    s_rr = (conj(M^l_n) + M^r_n) / (conj(M^l_n) - conj(M^r_n))

and the operator is reflectionless at theta exactly when
M^l_n = -conj(M^r_n) there, i.e. when both diagonals vanish.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import rho_of_alpha
from .errors import (
    MoebiusPoleError,
    NegativeDensityError,
    NotConvergedError,
    WronskianDegenerateError,
)
from .operator import defect
from .resolvent import (
    DEFAULT_WD_TOL,
    BoundaryValue,
    RadialSchedule,
    circle_m_pairs,
    density_of_m,
    extrapolate_levels,
    has_zero_tails,
    m_pair,
    settled_value,
)
# The benchmark's tracer test reads grown_pairings from this module.
from .resolvent import grown_pairings  # noqa: F401
from .weyl import BLOCK_RADIUS, M_of_m, Mhat_of_m, green_block

# Channel counts as active when its a.c. density exceeds this floor.
DENSITY_SUPPORT_THRESHOLD = 1e-3
M_DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True)
class ScatteringSample:
    """Everything computed for one (theta, n) scattering evaluation."""

    theta: float
    n: int
    s: np.ndarray                      # 2x2, [[ll, lr], [rl, rr]]; NaN when failed
    density_l: float
    density_r: float
    support_l: bool
    support_r: bool
    unitarity_defect: float
    refl_residual: float
    converged: bool
    err_entries: np.ndarray            # 2x2 boundary-extrapolation error estimates
    err_refl: float
    diag_moebius: tuple = (complex("nan"), complex("nan"))
    err_diag_moebius: tuple = (float("nan"), float("nan"))
    error: str = ""

    @property
    def s_ll(self):
        return complex(self.s[0, 0])

    @property
    def s_lr(self):
        return complex(self.s[0, 1])

    @property
    def s_rl(self):
        return complex(self.s[1, 0])

    @property
    def s_rr(self):
        return complex(self.s[1, 1])


@dataclass(frozen=True)
class WeylBoundary:
    """Weyl-side boundary values at one theta, each extrapolated once.

    m^r_n doubles as M^r_n; the densities are those of m^l_{n-1} and m^r_n.
    """

    m_l: BoundaryValue                 # m^(l)_{n-1}
    m_r: BoundaryValue                 # m^(r)_n = M^(r)_n
    M_l: BoundaryValue                 # M^(l)_n
    diag_ll: BoundaryValue             # Moebius-route s_ll
    diag_rr: BoundaryValue             # Moebius-route s_rr
    density_l: float
    density_r: float

    @classmethod
    def of(cls, m_l, m_r, M_l, diag_ll, diag_rr):
        """The record with both densities; NegativeDensityError when one fails."""
        return cls(m_l, m_r, M_l, diag_ll, diag_rr,
                   density_of_m("l", m_l.value), density_of_m("r", m_r.value))

    @property
    def converged(self):
        return self.m_l.converged and self.m_r.converged and self.M_l.converged

    @property
    def refl_residual(self):
        return float(abs(self.M_l.value + np.conj(self.m_r.value)))


def _unitarity_defect(s, support_l, support_r):
    if support_l and support_r:
        return float(np.max(np.abs(s.conj().T @ s - np.eye(2))))
    if support_l:
        return float(abs(abs(s[0, 0]) - 1.0))
    if support_r:
        return float(abs(abs(s[1, 1]) - 1.0))
    return 0.0


class ScatteringCalculator:
    """Shared machinery for per-theta scattering samples.

    One instance fixes (sequence, decoupling site, radial schedule,
    depth-doubling tolerance) and the route: ``on_circle`` when both tails
    of the cut are exact and zero (module docstring), radial otherwise.
    The route picks only where the levels come from (Schur depths D and 2D
    on the circle, the radial schedule otherwise) and how they reduce to
    one value.  ``sample(theta)`` then computes the resolvent-route
    entries, the Moebius-route diagonals, densities, support flags, the
    reflectionless residual, and error estimates in a single pass over the
    levels, sharing each level's m-pair between consumers; every level's
    defect pairings come from the local Green block of its m-pair.
    ``weyl_boundary(theta)`` runs the same per-level Weyl step without the
    defect pairings.
    """

    def __init__(self, seq, n, schedule=None, *, wd_tol=DEFAULT_WD_TOL):
        if seq.is_decoupled:
            raise ValueError("pass the coupled sequence; decoupling is applied internally")
        self.seq = seq
        self.n = int(n)
        self.schedule = schedule if schedule is not None else RadialSchedule()
        self.wd_tol = wd_tol
        self.on_circle = has_zero_tails(seq, self.n)
        cut = defect(seq, self.n)
        # alpha_k for |k - n| <= BLOCK_RADIUS: one read serves alpha_n, the
        # rhos of the entries and every local Green block.
        self._alphas = seq.alpha_array(self.n - BLOCK_RADIUS, self.n + BLOCK_RADIUS + 1)
        self._alpha_n = complex(self._alphas[BLOCK_RADIUS])
        rhos = rho_of_alpha(self._alphas[BLOCK_RADIUS - 1:BLOCK_RADIUS + 2])
        self._rho = tuple(float(r) for r in rhos)

        n_ = self.n
        if n_ % 2 == 0:
            self._rhs_sites = (n_ - 2, n_ + 1)
            self._probe_sites = (n_ - 1, n_)
        else:
            self._rhs_sites = (n_ - 1, n_)
            self._probe_sites = (n_ - 2, n_ + 1)
        self._rhs = [cut.column(j) for j in self._rhs_sites]
        self._probes = [cut.adjoint_column(j) for j in self._probe_sites]
        # The same pairings as dense columns over the sites they touch, for
        # the local Green block.
        self._block_sites = sorted(set().union(*self._rhs, *self._probes))
        self._rhs_block = self._columns(self._rhs)
        self._probe_block = self._columns(self._probes)

    def _columns(self, vectors):
        """{site: value} vectors as the columns of a matrix over _block_sites."""
        return np.array([[v.get(k, 0.0) for v in vectors] for k in self._block_sites],
                        dtype=np.complex128)

    # -- per-level computations -------------------------------------------

    def _m_levels(self, theta):
        """(z, m^l_{n-1}, m^r_n) per level: Schur depths D and 2D at e^{i theta}
        on the circle, else the radial schedule's points."""
        if self.on_circle:
            z = cmath.exp(1j * theta)
            return [(z, *m) for m in circle_m_pairs(self.seq, self.n, z, wd_tol=self.wd_tol)]
        return [(z, *m_pair(self.seq, self.n, z, wd_tol=self.wd_tol))
                for z in self.schedule.points(theta)]

    def _weyl_step(self, z, m_l, m_r):
        """(m^l_{n-1}, m^r_n, M^l_n, Moebius-route s_ll, s_rr) from one m-pair.

        Mhat^l_{n-1} and M^r_n are the two m's themselves, while
        Mhat^r_{n-1} and M^l_n are their Moebius transforms through alpha_n.
        """
        Ml = M_of_m(self._alpha_n, m_l)
        Mhat_r = Mhat_of_m(self._alpha_n, m_r)
        den_ll = np.conj(Mhat_r) - np.conj(m_l)
        den_rr = np.conj(Ml) - np.conj(m_r)
        if abs(den_ll) < M_DENOMINATOR_TOL or abs(den_rr) < M_DENOMINATOR_TOL:
            raise MoebiusPoleError(f"degenerate M-denominator at z={z}")
        return (m_l, m_r, Ml, (np.conj(Mhat_r) + m_l) / den_ll,
                (np.conj(Ml) + m_r) / den_rr)

    def _block_pairings(self, z, m_l, m_r):
        """Defect pairings P[a, b] = <(C - z)^{-1} u_a, v_b> against _rhs and
        _probes, from the local Green block of the m-pair; |z| <= 1."""
        G = green_block(self._alphas, self.n, z, m_l, m_r, self._block_sites)
        return (G @ self._rhs_block).conj().T @ self._probe_block

    def _entries(self, P, m_l, m_r):
        """The 2x2 s from the defect pairings P and the m-pair."""
        a_n = self._alpha_n
        rho_m, rho_n, rho_p = self._rho
        d_l = -m_l.real
        d_r = m_r.real
        cross = math.sqrt(max(d_l, 0.0) * max(d_r, 0.0))
        s_ll = 1.0 + (1.0 - np.conj(a_n) - P[0, 0] / rho_m) * d_l
        s_rr = 1.0 + (1.0 - a_n + P[1, 1] / rho_p) * d_r
        if self.n % 2 == 0:
            s_lr = (rho_n - P[0, 1] / rho_m) * cross
            s_rl = (-rho_n + P[1, 0] / rho_p) * cross
        else:
            s_lr = (-rho_n + P[0, 1] / rho_p) * cross
            s_rl = (rho_n - P[1, 0] / rho_m) * cross
        return np.array([[s_ll, s_lr], [s_rl, s_rr]], dtype=np.complex128)

    def _boundary_values(self, theta, with_entries):
        """One BoundaryValue per Weyl quantity (and per s entry if asked).

        On the circle each value is the 2D level's; its err_est is the change
        from the D level plus the round-off allowance of ``settled_value``.
        Inside the disc the levels are extrapolated.
        """
        levels = []
        for z, m_l, m_r in self._m_levels(theta):
            step = self._weyl_step(z, m_l, m_r)
            if with_entries:
                P = self._block_pairings(z, m_l, m_r)
                step += tuple(self._entries(P, m_l, m_r).ravel())
            levels.append(step)
        if self.on_circle:
            return [settled_value(value, prev) for prev, value in zip(*levels)]
        eps = self.schedule.distances()
        return [extrapolate_levels(eps, column, self.schedule.extrapolation)
                for column in zip(*levels)]

    # -- public sampling ----------------------------------------------------

    def weyl_boundary(self, theta):
        """WeylBoundary at e^{i theta}: the Weyl-side route alone.

        Runs no defect pairing; numerical failures raise.
        """
        return WeylBoundary.of(*self._boundary_values(theta, with_entries=False))

    def sample(self, theta):
        """One ScatteringSample; numerical failures are recorded, not raised."""
        try:
            bvs = self._boundary_values(theta, with_entries=True)
            weyl = WeylBoundary.of(*bvs[:5])
        except (NotConvergedError, MoebiusPoleError, NegativeDensityError,
                WronskianDegenerateError) as exc:
            return ScatteringSample(
                theta=float(theta), n=self.n, s=np.full((2, 2), np.nan + 1j * np.nan),
                density_l=float("nan"), density_r=float("nan"),
                support_l=False, support_r=False,
                unitarity_defect=float("nan"), refl_residual=float("nan"),
                converged=False, err_entries=np.full((2, 2), np.nan),
                err_refl=float("nan"), error=type(exc).__name__,
            )

        entries = bvs[5:]
        s = np.array([bv.value for bv in entries], dtype=np.complex128).reshape(2, 2)
        support_l = bool(weyl.density_l > DENSITY_SUPPORT_THRESHOLD)
        support_r = bool(weyl.density_r > DENSITY_SUPPORT_THRESHOLD)
        return ScatteringSample(
            theta=float(theta), n=self.n, s=s,
            density_l=weyl.density_l, density_r=weyl.density_r,
            support_l=support_l, support_r=support_r,
            unitarity_defect=_unitarity_defect(s, support_l, support_r),
            refl_residual=weyl.refl_residual,
            converged=weyl.converged and all(bv.converged for bv in entries),
            err_entries=np.array([bv.err_est for bv in entries]).reshape(2, 2),
            err_refl=weyl.M_l.err_est + weyl.m_r.err_est,
            diag_moebius=(weyl.diag_ll.value, weyl.diag_rr.value),
            err_diag_moebius=(weyl.diag_ll.err_est, weyl.diag_rr.err_est),
        )


# -- single-shot operations ----------------------------------------------------

def scattering_matrix(seq, n, theta, schedule=None, *, wd_tol=DEFAULT_WD_TOL):
    """ScatteringSample at one theta (see ScatteringCalculator)."""
    return ScatteringCalculator(seq, n, schedule, wd_tol=wd_tol).sample(theta)


def diagonal_via_M(seq, n, theta, schedule=None, *, wd_tol=DEFAULT_WD_TOL):
    """(s_ll, s_rr) through the Moebius-route formulas only."""
    weyl = ScatteringCalculator(seq, n, schedule, wd_tol=wd_tol).weyl_boundary(theta)
    if not weyl.converged:
        raise NotConvergedError(f"diagonal boundary values not converged at theta={theta}")
    return weyl.diag_ll.value, weyl.diag_rr.value


def reflectionless_residual(seq, n, theta, schedule=None, *, wd_tol=DEFAULT_WD_TOL):
    """|M^(l)_n + conj(M^(r)_n)| at the boundary point e^{i theta}.

    Vanishing (a.e. on an arc) is the defining reflectionless condition.
    """
    weyl = ScatteringCalculator(seq, n, schedule, wd_tol=wd_tol).weyl_boundary(theta)
    if not weyl.converged:
        raise NotConvergedError(f"M boundary values not converged at theta={theta}")
    return weyl.refl_residual


# -- sweeps and reports ---------------------------------------------------------

def theta_grid(count, offset=0.5):
    """Uniform grid theta_i = 2 pi (i + offset) / count.

    The half-step default offset dodges symmetry-pinned angles like
    theta = 0 where boundary behavior can be atypical.
    """
    return 2.0 * np.pi * (np.arange(count) + offset) / count


def sweep(seq, n, thetas, schedule=None, *, wd_tol=DEFAULT_WD_TOL):
    """ScatteringSamples over a theta grid, in theta order, in this process.

    One calculator serves the whole grid, so the coefficients near n are
    read once.
    """
    calc = ScatteringCalculator(seq, n, schedule, wd_tol=wd_tol)
    return [calc.sample(t) for t in thetas]


@dataclass(frozen=True)
class OffDiagonalReport:
    """Per-theta off-diagonality classification with a residual cross-check."""

    samples: list
    tol: float
    offdiag: list            # per theta: True/False/None (None = not converged)
    refl_ok: list            # residual test per theta, same convention
    straddle: list           # error bar overlaps the tolerance line
    summary: dict = field(default_factory=dict)


def classify_offdiagonal(sample, tol):
    """Off-diagonal iff every active channel's diagonal is below tol."""
    ok = True
    if sample.support_l:
        ok &= abs(sample.s_ll) <= tol
    if sample.support_r:
        ok &= abs(sample.s_rr) <= tol
    return bool(ok)


def _straddles(sample, tol):
    vals = []
    if sample.support_l:
        vals.append((abs(sample.s_ll), sample.err_entries[0, 0]))
    if sample.support_r:
        vals.append((abs(sample.s_rr), sample.err_entries[1, 1]))
    vals.append((sample.refl_residual, sample.err_refl))
    return any(abs(v - tol) <= e for v, e in vals)


def off_diagonality_report(seq, n, thetas, tol=1e-3, schedule=None, *,
                           wd_tol=DEFAULT_WD_TOL):
    """Classify each grid point and cross-report against the residual test.

    Non-converged points are reported separately and never counted toward
    either classification; agreement between the matrix test and the
    residual test is tallied on converged, non-straddling points only.
    """
    samples = sweep(seq, n, thetas, schedule, wd_tol=wd_tol)
    offdiag = [classify_offdiagonal(s, tol) if s.converged else None for s in samples]
    refl_ok = [s.refl_residual <= tol if s.converged else None for s in samples]
    straddle = [s.converged and _straddles(s, tol) for s in samples]
    n_conv = sum(s.converged for s in samples)
    n_off = sum(od is True for od in offdiag)
    n_strad = sum(straddle)
    agree = [od == rk for od, rk, st in zip(offdiag, refl_ok, straddle)
             if od is not None and not st]
    total = len(samples)
    summary = {
        "points": total,
        "converged": n_conv,
        "converged_fraction": n_conv / total if total else 0.0,
        "offdiagonal": n_off,
        "offdiagonal_fraction": n_off / n_conv if n_conv else 0.0,
        "straddling": n_strad,
        "agreement_fraction": sum(agree) / len(agree) if agree else 1.0,
    }
    return OffDiagonalReport(samples=samples, tol=tol, offdiag=offdiag,
                             refl_ok=refl_ok, straddle=straddle, summary=summary)
