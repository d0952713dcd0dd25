"""Transfer matrices, Moebius-transformed m-functions, two-sided solutions.

The transfer matrix propagates pairs (u_k, v_k) of solutions of the
five-diagonal eigenvalue equation site by site,

    T(z, k) = (1/rho_k) [[conj(a_k), 1], [1, a_k]]        k even,
    T(z, k) = (1/rho_k) [[a_k, z], [1/z, conj(a_k)]]      k odd,

with det T = -1 on both branches.  Seeding at a site n with the
half-line-matched value M (or its hat variant) produces the unique pair
that is square-summable on the corresponding half-line; the two-sided
Green's function is then a ratio of products of such solutions evaluated
around a freely chosen anchor site k0.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .coefficients import rho_of_alpha
from .errors import MoebiusPoleError, PropagationOverflowError, WronskianDegenerateError
from .operator import Window
from .resolvent import m_function

MOEBIUS_POLE_TOL = 1e-12
WRONSKIAN_TOL = 1e-12
OVERFLOW_LIMIT = 1e150
# green_block covers the sites within BLOCK_RADIUS of the cut.
BLOCK_RADIUS = 5


def _transfer(a, rho, z, k):
    if k % 2 == 0:
        mat = np.array([[np.conj(a), 1.0], [1.0, a]], dtype=np.complex128)
    else:
        if z == 0:
            raise ValueError("transfer matrix has a 1/z entry for odd k; z = 0 rejected")
        mat = np.array([[a, z], [1.0 / z, np.conj(a)]], dtype=np.complex128)
    return mat / rho


def _inverse(t):
    # det T = -1, so inv([[p, q], [r, s]]) = [[-s, q], [r, -p]]
    return np.array([[-t[1, 1], t[0, 1]], [t[1, 0], -t[0, 0]]], dtype=np.complex128)


def transfer(seq, z, k):
    """Transfer matrix T(z, k); z = 0 is rejected on the odd branch."""
    return _transfer(seq.alpha(k), seq.rho(k), z, k)


def transfer_inverse(seq, z, k):
    return _inverse(transfer(seq, z, k))


def M_of_m(alpha, m):
    """M^(l)_n from m = m^(l)_{n-1} through alpha = alpha_n:

        M_n^(l) = [Re(1 + a_n) + i Im(1 - a_n) m^(l)_{n-1}]
                  / [i Im(1 + a_n) + Re(1 - a_n) m^(l)_{n-1}].
    """
    num = (1 + alpha).real + 1j * (1 - alpha).imag * m
    den = 1j * (1 + alpha).imag + (1 - alpha).real * m
    if abs(den) < MOEBIUS_POLE_TOL:
        raise MoebiusPoleError(f"M^(l) denominator {abs(den):.3e} at m={m}")
    return complex(num / den)


def Mhat_of_m(alpha, m):
    """Mhat^(r)_n from m = m^(r)_{n+1} through alpha = alpha_{n+1}:

        Mhat_n^(r) = [Re(1 + a_{n+1}) - i Im(1 + a_{n+1}) m^(r)_{n+1}]
                     / [-i Im(1 - a_{n+1}) + Re(1 - a_{n+1}) m^(r)_{n+1}].
    """
    num = (1 + alpha).real - 1j * (1 + alpha).imag * m
    den = -1j * (1 - alpha).imag + (1 - alpha).real * m
    if abs(den) < MOEBIUS_POLE_TOL:
        raise MoebiusPoleError(f"Mhat^(r) denominator {abs(den):.3e} at m={m}")
    return complex(num / den)


def M_cap(seq, side, n, z):
    """Weyl solution coefficient M_n: the plain variant.

    Side "r" is the right m-function at n itself; side "l" is ``M_of_m`` of
    the left m-function one site down.
    """
    if side == "r":
        return complex(m_function(seq, "r", n, z))
    if side != "l":
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    return M_of_m(seq.alpha(n), m_function(seq, "l", n - 1, z))


def Mhat_cap(seq, side, n, z):
    """The hat variant: side "l" is m^(l)_n itself; side "r" is ``Mhat_of_m``
    of the right m-function one site up.
    """
    if side == "l":
        return complex(m_function(seq, "l", n, z))
    if side != "r":
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    return Mhat_of_m(seq.alpha(n + 1), m_function(seq, "r", n + 1, z))


def _seed(z, M, n, variant):
    if variant == "plain":
        if n % 2 == 0:
            return np.array([-1.0 + M, 1.0 + M], dtype=np.complex128)
        return np.array([z + z * M, -1.0 + M], dtype=np.complex128)
    if variant == "hat":
        if n % 2 == 0:
            return np.array([z - z * M, 1.0 + M], dtype=np.complex128)
        return np.array([1.0 + M, 1.0 - M], dtype=np.complex128)
    raise ValueError(f"variant must be 'plain' or 'hat', got {variant!r}")


@dataclass(frozen=True)
class WeylPair:
    """Solution pair (u, v) of the transfer recursion over a window."""

    window: Window
    u: np.ndarray
    v: np.ndarray
    seed_site: int
    side: str
    variant: str
    M: complex

    def at(self, k):
        i = k - self.window.a
        if not 0 <= i < len(self.u):
            raise IndexError(f"site {k} outside window [{self.window.a}, {self.window.b}]")
        return complex(self.u[i]), complex(self.v[i])

    def recursion_residual(self, seq, z):
        """max_k |(u_k, v_k) - T(z, k) (u_{k-1}, v_{k-1})| over interior sites."""
        worst = 0.0
        for k in range(self.window.a + 1, self.window.b + 1):
            t = transfer(seq, z, k)
            pred = t @ np.array(self.at(k - 1))
            got = np.array(self.at(k))
            worst = max(worst, float(np.max(np.abs(got - pred))))
        return worst


def weyl_solutions(seq, side, n, z, window, variant="plain"):
    """Solution pair seeded at site n and propagated across ``window``.

    The recursion is exponentially unstable away from the decaying
    half-line of the chosen side, so keep the window a bounded overlap zone
    around the seed; propagation aborts with PropagationOverflowError once
    components exceed 1e150.
    """
    if not isinstance(window, Window):
        window = Window(*window)
    if not window.contains(n):
        raise ValueError(f"seed site {n} outside window [{window.a}, {window.b}]")
    cap = M_cap if variant == "plain" else Mhat_cap
    M = cap(seq, side, n, z)
    # One coefficient read for the window; T(z, k) for k in (a, b].
    alphas = seq.alpha_array(window.a, window.b + 1)
    u, v = _propagate(alphas.tolist(), rho_of_alpha(alphas).tolist(), n, z,
                      window.a, window.b, variant, M)
    return WeylPair(window=window, u=np.array(u), v=np.array(v), seed_site=n, side=side,
                    variant=variant, M=complex(M))


def _propagate(alist, rlist, n, z, a0, b0, variant, M):
    """Components (u, v) over the sites a0 .. b0 of the solution seeded at n
    with M, from ``alist`` = alpha_a0 .. alpha_b0 and ``rlist`` their rhos.

    The one propagation route: ``weyl_solutions``, ``green_weyl`` and
    ``LocalBlock`` all come here.  The range is two ints, not a Window, so
    the local Green block can propagate over fewer than MIN_WINDOW_SPAN
    sites.  The coefficients are lists of Python scalars, and u and v come
    back as lists of Python complex numbers indexed by the offset from a0;
    each step is the 2x2 product ``_transfer(...) @ cur`` going up and
    ``_inverse(_transfer(...)) @ cur`` going down.
    """
    vec = _seed(z, M, n, variant)
    u = [0j] * (b0 - a0 + 1)
    v = [0j] * (b0 - a0 + 1)
    u[n - a0], v[n - a0] = vec.tolist()

    cur = vec
    for k in range(n + 1, b0 + 1):
        i = k - a0
        cur = _transfer(alist[i], rlist[i], z, k) @ cur
        if _overflows(cur):
            raise PropagationOverflowError(f"overflow propagating up at site {k}", site=k)
        u[i], v[i] = cur.tolist()
    cur = vec
    for k in range(n - 1, a0 - 1, -1):
        i = k - a0
        cur = _inverse(_transfer(alist[i + 1], rlist[i + 1], z, k + 1)) @ cur
        if _overflows(cur):
            raise PropagationOverflowError(f"overflow propagating down at site {k}", site=k)
        u[i], v[i] = cur.tolist()
    return u, v


def _overflows(cur):
    """max(|cur_0|, |cur_1|) > OVERFLOW_LIMIT, false when either is NaN (as
    ``np.max`` decides: its NaN is never greater)."""
    x, y = abs(cur[0]), abs(cur[1])
    return (x > OVERFLOW_LIMIT or y > OVERFLOW_LIMIT) and x == x and y == y


def _wronskian(at_l, at_r, z, k0):
    """z (u^r v^l - u^l v^r) at k0: the denominator of every Green's entry.

    ``at_l`` and ``at_r`` read a site's (u_k, v_k) of the left and right
    pairs as Python complex numbers, as ``WeylPair.at`` does.
    """
    ur0, vr0 = at_r(k0)
    ul0, vl0 = at_l(k0)
    den = z * (ur0 * vl0 - ul0 * vr0)
    if abs(den) < WRONSKIAN_TOL:
        raise WronskianDegenerateError(f"|Wronskian| = {abs(den):.3e} at k0={k0}, z={z}")
    return den


def _green_entry(at_l, at_r, k, k_prime, k0, den):
    """G_{k,k'} from pairs anchored at k0 with Wronskian ``den``.

    Case split: the (l, r) product order follows k < k' versus k > k', with
    the diagonal joining the k < k' branch when k is odd and the k > k'
    branch when k is even.
    """
    if k < k_prime or (k == k_prime and k % 2 == 1):
        num = at_l(k)[0] * at_r(k_prime)[1]
    else:
        num = at_r(k)[0] * at_l(k_prime)[1]
    sign = -1.0 if k0 % 2 == 0 else 1.0  # (-1)^(k0 + 1)
    return complex(sign * num / den)


def green_weyl(seq, k, k_prime, z, k0, variant="plain"):
    """G_{k,k'}(z) assembled from left/right solution pairs anchored at k0.

    The numerator is a product of the two pairs' components at k and k'
    (``_green_entry``); the denominator is the Wronskian-type combination
    z (u^r v^l - u^l v^r) evaluated exactly at k0.
    """
    lo = min(k, k_prime, k0)
    hi = max(k, k_prime, k0)
    pad = max(0, 9 - (hi - lo))
    window = Window(lo - (pad // 2 + 1), hi + (pad // 2 + 1))
    at_r = weyl_solutions(seq, "r", k0, z, window, variant).at
    at_l = weyl_solutions(seq, "l", k0, z, window, variant).at
    return _green_entry(at_l, at_r, k, k_prime, k0, _wronskian(at_l, at_r, z, k0))


def green_block(alphas, n, z, m_l, m_r, sites):
    """[G_{k,k'}(z)] for k, k' in ``sites`` (within BLOCK_RADIUS of n) from the
    m-pair at n: ``LocalBlock(alphas, n, sites).green(z, m_l, m_r)``."""
    return LocalBlock(alphas, n, sites).green(z, m_l, m_r)


class LocalBlock:
    """The local Green block over ``sites`` around the cut n, with its
    z-independent part built once from ``alphas`` = alpha_{n-5} .. alpha_{n+5}:
    alpha_n and the alphas and rhos of min(sites, n) .. max(sites, n), the
    only sites it propagates over, as Python scalars.  A site farther than
    BLOCK_RADIUS from n is a ValueError.
    """

    def __init__(self, alphas, n, sites):
        self.n = n
        self.sites = list(sites)
        self.lo, self.hi = min(n, *self.sites), max(n, *self.sites)
        for k in (self.lo, self.hi):
            if abs(k - n) > BLOCK_RADIUS:
                raise ValueError(f"site {k} is farther than BLOCK_RADIUS = {BLOCK_RADIUS} "
                                 f"from the cut n = {n}")
        part = alphas[self.lo - n + BLOCK_RADIUS:self.hi - n + BLOCK_RADIUS + 1]
        self.alist = part.tolist()
        self.rlist = rho_of_alpha(part).tolist()
        self.alpha_n = complex(alphas[BLOCK_RADIUS])

    def green(self, z, m_l, m_r):
        """The block at z from m_l = m^l_{n-1}(z) and m_r = m^r_n(z), given
        rather than computed, so z may lie on the unit circle.

        The Weyl solutions are seeded at n with M^r_n = m^r_n and M^l_n =
        ``M_of_m(alpha_n, m^l_{n-1})``; the entries are ``green_weyl``'s with
        k0 = n.  A non-finite m gives an all-NaN block before any division.
        """
        if not (cmath.isfinite(m_l) and cmath.isfinite(m_r)):
            return np.full((len(self.sites),) * 2, np.nan + 1j * np.nan)
        n, lo, hi = self.n, self.lo, self.hi
        at_r = _reader(lo, *_propagate(self.alist, self.rlist, n, z, lo, hi, "plain", m_r))
        at_l = _reader(lo, *_propagate(self.alist, self.rlist, n, z, lo, hi, "plain",
                                       M_of_m(self.alpha_n, m_l)))
        den = _wronskian(at_l, at_r, z, n)
        return np.array([[_green_entry(at_l, at_r, k, kp, n, den) for kp in self.sites]
                         for k in self.sites], dtype=np.complex128)


def _reader(a0, u, v):
    """site k -> (u_k, v_k) as Python complex numbers, as ``WeylPair.at``
    reads them; the lists u and v hold the sites a0, a0 + 1, ..."""
    return lambda k: (u[k - a0], v[k - a0])
