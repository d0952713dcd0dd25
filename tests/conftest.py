import os

import numpy as np
import pytest

import cmvscat as cs


# Zero tails on both sides: samples of these take the on-circle route, and
# the transfer-matrix oracle covers them.
ZERO_TAIL_FAMILIES = {
    "free": cs.free(),
    "single_barrier": cs.single_barrier(0, 0.9),
    "explicit2": cs.explicit({0: 0.9, 3: 0.5j}),
    "explicit5": cs.explicit({-2: 0.3 + 0.4j, -1: -0.6, 1: 0.2j, 2: 0.7, 4: -0.1 - 0.5j}),
    "random_decay1": cs.random_decay(1, 0.5),
    "random_decay4": cs.random_decay(4, 0.5),
    "random_decay7": cs.random_decay(7, 0.3),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def package_env():
    """Build the environment for a child interpreter that imports ``cmvscat``.

    Returns a function of keyword overrides. It copies ``os.environ``,
    applies the overrides and puts the directory holding the ``cmvscat``
    this process imported first on ``PYTHONPATH``, so the child runs the
    package under test whether it came from ``PYTHONPATH=src`` or an install.
    """
    package_parent = os.path.dirname(os.path.dirname(cs.__file__))

    def build(**overrides):
        env = dict(os.environ, **overrides)
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_parent + (os.pathsep + rest if rest else "")
        return env

    return build


def force_m_pair(monkeypatch, m_l, m_r):
    """Make every ScatteringCalculator see the m-pair (m_l, m_r).

    Patches both places it reads m-pairs: the radial levels and the two
    Schur depths on the unit circle.
    """
    import cmvscat.scattering as scattering

    pair = (complex(m_l), complex(m_r))
    monkeypatch.setattr(scattering, "m_pair", lambda seq, n, z, **kw: pair)
    monkeypatch.setattr(scattering, "circle_m_pairs", lambda seq, n, z, **kw: [pair, pair])


def random_disc(rng, radius=0.8):
    """One draw from the disc of the given radius."""
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def random_sequence(rng, kind="decay"):
    """A random coefficient sequence for property sweeps."""
    if kind == "decay":
        return cs.random_decay(seed=int(rng.integers(0, 2**31)), rate=float(rng.uniform(0.2, 0.8)))
    if kind == "explicit":
        sites = rng.integers(-6, 7, size=5)
        return cs.explicit({int(k): random_disc(rng) for k in sites})
    raise ValueError(kind)
