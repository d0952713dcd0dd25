"""Two-sided Verblunsky coefficient sequences.

A sequence assigns to every integer site ``k`` a complex number ``alpha_k``
in the open unit disc, together with ``rho_k = sqrt(1 - |alpha_k|^2)``.
A small closed set of deterministic generator families is provided so that
experiments are reproducible; sites can additionally be marked as decoupled,
which pins ``alpha_k = 1`` (and hence ``rho_k = 0``) at those sites.  A
decoupled sequence intentionally violates the open-disc constraint and is
only meant as input to operator construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM = 0xD1342543DE82EF95
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Amplitude head-room keeping random draws strictly inside the disc.
_DISC_AMPLITUDE = 0.95
# random_decay coefficients below this modulus count as zero in ``tail``.
NEGLIGIBLE = 2.0 ** -56

KINDS = ("free", "constant", "single_barrier", "random_decay", "periodic", "explicit")


def _mix64_array(seed, counters):
    """SplitMix64-style counter hash: two multiply-xorshift finalizer rounds.

    Fixed-width 64-bit arithmetic throughout, so the stream is identical on
    every platform and never depends on library RNG versioning.
    """
    with np.errstate(over="ignore"):
        x = (np.uint64(seed & _MASK64) * np.uint64(_GOLDEN)
             + counters * np.uint64(_STREAM))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        return x ^ (x >> np.uint64(31))


def _disc_draw_array(seed, ks):
    """Uniform draws from the disc of radius _DISC_AMPLITUDE, one per site.

    Uniformity in [0, 1) uses the top 53 hash bits; radius sqrt(u) makes the
    disc distribution uniform in area.
    """
    with np.errstate(over="ignore"):
        c = ks.astype(np.int64).view(np.uint64) * np.uint64(2)
        u1 = (_mix64_array(seed, c) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        u2 = (_mix64_array(seed, c + np.uint64(1)) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return _DISC_AMPLITUDE * np.sqrt(u1) * np.exp(2j * np.pi * u2)


def rho_of_alpha(alpha):
    """rho = sqrt(1 - |alpha|^2) elementwise, 0 where |alpha| >= 1."""
    return np.sqrt(np.clip(1.0 - np.abs(alpha) ** 2, 0.0, None))


def _check_in_disc(value, label):
    value = complex(value)
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        raise ConstructionError(f"{label} is not finite: {value!r}")
    if abs(value) >= 1.0:
        raise ConstructionError(
            f"{label} has modulus {abs(value):.6g} >= 1; coefficients must lie "
            "in the open unit disc"
        )
    return value


@dataclass(frozen=True)
class CoefficientSequence:
    """A deterministic rule ``k -> alpha_k`` over all integer sites.

    Instances are immutable, so any number of readers may share one.  Use
    the module factories (:func:`free`, :func:`constant`, ...) rather than
    constructing directly.
    """

    kind: str
    params: tuple = ()
    decoupled: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionError(f"unknown generator kind {self.kind!r}")

    # -- scalar access ----------------------------------------------------
    # Scalar values are read off the vectorized path so that per-site and
    # per-window computations agree bit for bit.

    def alpha(self, k):
        """alpha_k; exactly 1.0 at decoupled sites."""
        if k in self.decoupled:
            return 1.0 + 0.0j
        return complex(self.alpha_array(k, k + 1)[0])

    def rho(self, k):
        """rho_k = sqrt(1 - |alpha_k|^2); exactly 0.0 at decoupled sites."""
        if k in self.decoupled:
            return 0.0
        return float(self.rho_array(k, k + 1)[0])

    # -- vectorized access -------------------------------------------------

    def alpha_array(self, start, stop):
        """alpha_k for k in range(start, stop), as a complex array."""
        ks = np.arange(start, stop, dtype=np.int64)
        kind = self.kind
        if kind == "free":
            out = np.zeros(len(ks), dtype=np.complex128)
        elif kind == "constant":
            out = np.full(len(ks), self.params[0], dtype=np.complex128)
        elif kind == "single_barrier":
            site, value = self.params
            out = np.zeros(len(ks), dtype=np.complex128)
            if start <= site < stop:
                out[site - start] = value
        elif kind == "random_decay":
            seed, rate = self.params
            # rate * |k| may overflow to inf for a huge finite rate; exp(-inf)
            # = 0 is then the exact factor, so the overflow is not an error
            with np.errstate(over="ignore"):
                decay = np.exp(-rate * np.abs(ks))
            out = _disc_draw_array(seed, ks) * decay
        elif kind == "periodic":
            values = np.asarray(self.params[0], dtype=np.complex128)
            out = values[ks % len(values)]
        else:
            table, default = self.params
            out = np.full(len(ks), default, dtype=np.complex128)
            for site, value in table.items():
                if start <= site < stop:
                    out[site - start] = value
        for site in self.decoupled:
            if start <= site < stop:
                out[site - start] = 1.0
        return out

    def rho_array(self, start, stop):
        return rho_of_alpha(self.alpha_array(start, stop))

    def tail(self, k, step):
        """(j0, period): alpha_{k + step * j} for j >= j0 repeats with ``period``.

        ``step`` is +1 (rightward) or -1 (leftward).  random_decay counts
        draws below NEGLIGIBLE as zero; with rate 0 it has no such tail and
        the result is None.
        """
        period = 1
        cover = set(self.decoupled)
        if self.kind == "single_barrier":
            cover.add(self.params[0])
        elif self.kind == "explicit":
            cover.update(self.params[0])
        elif self.kind == "periodic":
            period = len(self.params[0])
        elif self.kind == "random_decay":
            rate = self.params[1]
            if rate == 0:
                return None
            cut = math.ceil(math.log(_DISC_AMPLITUDE / NEGLIGIBLE) / rate)
            cover.update((-cut, cut))
        return max([0, *(step * (site - k) + 1 for site in cover)]), period

    # -- derived sequences ---------------------------------------------------

    def decouple(self, n):
        """Return the sequence with alpha_n pinned to 1 (site n decoupled)."""
        return CoefficientSequence(
            kind=self.kind,
            params=self.params,
            decoupled=self.decoupled | {int(n)},
        )

    @property
    def is_decoupled(self):
        return bool(self.decoupled)

    def decoupling_sites(self):
        return tuple(sorted(self.decoupled))


# -- generator factories -----------------------------------------------------

def free():
    """alpha identically 0."""
    return CoefficientSequence("free")


def constant(value):
    """alpha_k = value at every site, |value| < 1."""
    return CoefficientSequence("constant", (_check_in_disc(value, "constant value"),))


def single_barrier(site, value):
    """alpha equal to value at one site and 0 elsewhere."""
    return CoefficientSequence(
        "single_barrier", (int(site), _check_in_disc(value, f"barrier value at site {site}"))
    )


def random_decay(seed, rate):
    """Seeded random sequence with |alpha_k| <= exp(-rate * |k|).

    Site draws come from a counter-based SplitMix64 hash of ``(seed, k)``
    (:func:`_mix64_array`), uniform on the disc of radius 0.95, then damped
    by ``exp(-rate * |k|)``.  The stream is platform- and version-independent.
    """
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0):
        raise ConstructionError(f"decay rate must be finite and >= 0, got {rate}")
    return CoefficientSequence("random_decay", (int(seed), rate))


def periodic(values):
    """alpha_k = values[k mod len(values)]."""
    vals = tuple(
        _check_in_disc(v, f"periodic value at position {i}") for i, v in enumerate(values)
    )
    if not vals:
        raise ConstructionError("periodic sequence needs at least one value")
    return CoefficientSequence("periodic", (vals,))


def explicit(values, default=0.0):
    """alpha_k from a site table, with a constant default tail.

    ``values`` maps integer sites to complex numbers.  Every entry and the
    default are rejected at construction if they leave the open disc; the
    error names the offending site.
    """
    table = {}
    for site, value in values.items():
        table[int(site)] = _check_in_disc(value, f"explicit value at index {site}")
    default = _check_in_disc(default, "explicit default value")
    frozen = tuple(sorted(table.items()))
    return CoefficientSequence("explicit", (_FrozenTable(frozen), default))


class _FrozenTable(dict):
    """Hashable site table so CoefficientSequence stays usable as a dict key."""

    def __init__(self, items):
        super().__init__(items)
        self._items = items

    def __hash__(self):
        return hash(self._items)

    def __reduce__(self):
        return (_FrozenTable, (self._items,))

