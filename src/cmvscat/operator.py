"""Full-line CMV operators: unitary truncations, entries, and defects.

The operator is five-diagonal in the canonical basis; row ``i`` reads

* ``i`` even:  ``rho_{i-1} rho_i,  conj(a_{i-1}) rho_i,  -conj(a_i) a_{i+1},
  conj(a_i) rho_{i+1}`` at columns ``i-2 .. i+1``;
* ``i`` odd:   ``-a_{i+1} rho_i,  -conj(a_i) a_{i+1},  -a_{i+2} rho_{i+1},
  rho_{i+1} rho_{i+2}`` at columns ``i-1 .. i+2``.

``truncate`` is the one encoding of this table, which ``entry`` and
``defect`` read (``oracle.closed_form_entry`` is the scalar reference).
Setting ``alpha_n = 1`` kills every band entry containing ``rho_n`` and the
matrix splits into two half-line blocks; truncations therefore decouple at
both window edges (``alpha_a = alpha_{b+1} = 1``) so that every finite
block is an exact direct summand of a unitary, and itself unitary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import rho_of_alpha
from .errors import WindowError

MIN_WINDOW_SPAN = 8


@dataclass(frozen=True)
class Window:
    """Closed index range [a, b] of lattice sites; site labels are absolute."""

    a: int
    b: int

    def __post_init__(self):
        if self.b - self.a < MIN_WINDOW_SPAN:
            raise WindowError(
                f"window [{self.a}, {self.b}] too short; need b - a >= {MIN_WINDOW_SPAN}"
            )

    @property
    def size(self):
        return self.b - self.a + 1

    def contains(self, k):
        return self.a <= k <= self.b

    def index(self, k):
        if not self.contains(k):
            raise IndexError(f"site {k} outside window [{self.a}, {self.b}]")
        return k - self.a

    def doubled(self, direction="both"):
        """Window grown to twice the span, about the center or one-sided."""
        span = self.b - self.a
        if direction == "both":
            half = (span + 1) // 2
            return Window(self.a - half, self.b + half)
        if direction == "right":
            return Window(self.a, self.b + span)
        if direction == "left":
            return Window(self.a - span, self.b)
        raise ValueError(f"unknown grow direction {direction!r}")


class BandedUnitary:
    """Finite unitary truncation of a (possibly decoupled) CMV operator.

    Immutable after assembly.  ``diags`` is the band-of-rows layout of shape
    ``(5, n)``: ``diags[d, r]`` stores the element at row ``a + r``, column
    ``a + r + d - 2``, and is zero where that column leaves the window.
    The matvecs read this layout; the banded factorization reads the LAPACK
    layout built by ``lapack_band``.
    """

    def __init__(self, window, diags, decoupling_sites):
        self.window = window
        self.diags = diags
        self.diags.setflags(write=False)
        self.decoupling_sites = tuple(decoupling_sites)

    @property
    def size(self):
        return self.window.size

    def entry(self, i, j):
        d = j - i + 2
        if 0 <= d <= 4 and self.window.contains(i) and self.window.contains(j):
            return complex(self.diags[d, i - self.window.a])
        return 0.0 + 0.0j

    def matvec(self, x):
        """U x, one shifted slice product per band of ``diags``."""
        x = np.asarray(x, dtype=np.complex128)
        n = x.shape[0]
        y = np.zeros(n, dtype=np.complex128)
        for o in range(-2, 3):
            lo = max(0, -o)
            hi = n - max(0, o)
            if hi > lo:
                y[lo:hi] += self.diags[o + 2, lo:hi] * x[lo + o:hi + o]
        return y

    def matvec_adjoint(self, x):
        """U* x as conj(U^T conj(x)): row r of U^T is column r of U."""
        xc = np.conj(np.asarray(x, dtype=np.complex128))
        n = xc.shape[0]
        y = np.zeros(n, dtype=np.complex128)
        for o in range(-2, 3):
            lo = max(0, -o)
            hi = n - max(0, o)
            if hi > lo:
                y[lo:hi] += self.diags[2 - o, lo + o:hi + o] * xc[lo + o:hi + o]
        return np.conj(y, out=y)

    def to_dense(self):
        n = self.size
        M = np.zeros((n, n), dtype=np.complex128)
        for d in range(5):
            o = d - 2
            lo = max(0, -o)
            hi = n - max(0, o)
            if hi > lo:
                rows = np.arange(lo, hi)
                M[rows, rows + o] = self.diags[d, lo:hi]
        return M

    def lapack_band(self, z=0.0):
        """(C - z) in LAPACK-banded layout (7, n) with kl = ku = 2.

        Layout: ``ab[4 + i - j, j] = A[i, j]``; rows 0..1 are fill-in space
        for the pivoted factorization.
        """
        n = self.size
        ab = np.zeros((7, n), dtype=np.complex128)
        for d in range(5):
            o = d - 2
            lo = max(0, -o)
            hi = n - max(0, o)
            if hi > lo:
                # row index i = lo..hi-1, column j = i + o
                ab[4 - o, lo + o:hi + o] = self.diags[d, lo:hi]
        if z != 0.0:
            ab[4, :] -= z
        return ab

    def unitarity_defect(self):
        """max |(U* U - I)_{ij}| by dense multiplication (test scale only)."""
        M = self.to_dense()
        return float(np.max(np.abs(M.conj().T @ M - np.eye(self.size))))


def truncate(seq, window):
    """Edge-decoupled block [a, b]: exactly unitary by construction.

    Half-line operators are the special case where one window edge is the
    decoupling site of interest; the far edge is an artificial cut whose
    effect must be controlled by the caller (window-doubling checks).
    """
    if not isinstance(window, Window):
        window = Window(*window)
    cut = seq.decouple(window.a).decouple(window.b + 1)
    a, b = window.a, window.b
    n = window.size
    # alpha_k, rho_k for k = a-1 .. b+2 (offset o maps k -> k - (a - 1))
    al = cut.alpha_array(a - 1, b + 3)
    rho = rho_of_alpha(al)

    def A(shift):
        # alpha_{i+shift} over rows i = a..b
        return al[1 + shift:1 + shift + n]

    def R(shift):
        return rho[1 + shift:1 + shift + n]

    i = np.arange(a, b + 1)
    even = (i % 2 == 0)
    diags = np.zeros((5, n), dtype=np.complex128)
    diags[0] = np.where(even, R(-1) * R(0), 0.0)
    diags[1] = np.where(even, np.conj(A(-1)) * R(0), -A(1) * R(0))
    diags[2] = -np.conj(A(0)) * A(1)
    diags[3] = np.where(even, np.conj(A(0)) * R(1), -A(2) * R(1))
    diags[4] = np.where(even, 0.0, R(1) * R(2))
    # zero band slots whose column leaves the window (all are exact zeros
    # already thanks to the edge decoupling; enforced for safety)
    diags[0, :2] = 0.0
    diags[1, :1] = 0.0
    diags[3, n - 1:] = 0.0
    diags[4, n - 2:] = 0.0
    sites = tuple(sorted(set(seq.decoupling_sites()) | {a, b + 1}))
    return BandedUnitary(window, diags, sites)


class DefectOperator:
    """The finite-rank difference C - C_n as a sparse column map."""

    def __init__(self, n, columns):
        self.n = n
        self.columns = columns  # {column site j: {row site i: value}}

    @property
    def domain_sites(self):
        """Sites j with a nonzero column."""
        return tuple(sorted(self.columns))

    @property
    def range_sites(self):
        """Sites i appearing in some column."""
        rows = set()
        for col in self.columns.values():
            rows.update(col)
        return tuple(sorted(rows))

    def column(self, j):
        """(C - C_n) delta_j as {site: value}."""
        return dict(self.columns.get(j, {}))

    def adjoint_column(self, j):
        """(C - C_n)* delta_j as {site: value} (conjugated j-th row)."""
        out = {}
        for col_site, col in self.columns.items():
            if j in col:
                out[col_site] = np.conj(col[j])
        return out

    def as_dense(self, window):
        M = np.zeros((window.size, window.size), dtype=np.complex128)
        for j, col in self.columns.items():
            for i, v in col.items():
                M[window.index(i), window.index(j)] = v
        return M


def entry(seq, i, j):
    """Matrix element <delta_i, C delta_j>; zero for |i - j| > 2.

    Read from the truncation to [i-4, i+4], whose edge cuts row i never sees.
    """
    if abs(i - j) > 2:
        return 0.0 + 0.0j
    return truncate(seq, Window(i - 4, i + 4)).entry(i, j)


def defect(seq, n):
    """C - C_n as the nonzero entries of the difference of two truncations.

    Both truncations cover [n-4, n+4], the smallest window with columns
    n-3 .. n+3 inside; its edge cuts leave alpha_{n-3} .. alpha_{n+3}, which
    rows n-2 .. n+1 (all that involve alpha_n) read, as they are.  An entry
    not involving alpha_n is the same arithmetic on the same inputs at the
    same band position in both, so it cancels exactly and the sparse support
    comes out exact: for n even the columns n-2..n+1 hit rows {n-1, n}; for
    n odd the columns {n-1, n} hit rows n-2..n+1.
    """
    n = int(n)
    window = Window(n - 4, n + 4)
    band = truncate(seq, window).diags - truncate(seq.decouple(n), window).diags
    d, r = np.nonzero(band)
    rows = window.a + r
    cols = rows + d - 2
    columns = {}
    for k in np.lexsort((rows, cols)):  # column by column, rows ascending
        columns.setdefault(int(cols[k]), {})[int(rows[k])] = complex(band[d[k], r[k]])
    return DefectOperator(n, columns)
