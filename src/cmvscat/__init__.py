"""Full-line CMV operators, m-functions, and coupled/decoupled scattering."""

from . import coefficients, dynamics, operator, oracle, resolvent, scattering, weyl
from .coefficients import (
    CoefficientSequence,
    constant,
    explicit,
    free,
    periodic,
    random_decay,
    single_barrier,
)
from .operator import BandedUnitary, DefectOperator, Window, defect, entry, truncate
from .resolvent import BoundaryValue, RadialSchedule, m_function
from .scattering import (
    ScatteringCalculator,
    ScatteringSample,
    diagonal_via_M,
    off_diagonality_report,
    reflectionless_residual,
    scattering_matrix,
    sweep,
    theta_grid,
)
from .weyl import WeylPair, green_weyl, transfer, weyl_solutions

__version__ = "0.1.0"
