"""diffreg: a symbolic-numeric workbench for regularizing singular radial
functions by differential operators, transforming them by formal
integration by parts, and accounting exactly for the dropped epsilon-ball
surface terms."""

__version__ = "0.1.0"

from .algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    add,
    delta_term,
    eval_momentum,
    eval_position,
    momentum_term,
    mul,
    normalize,
    position_term,
    scale,
    sub,
)
from .coeffs import GAMMA_E, LN2, ONE, PI, ZERO, ZETA3, Coefficient, sphere_area
from .errors import DiffRegError
from .fourier import (
    cs_derivative,
    cs_derivative_position,
    fourier_base,
    fourier_formal,
    fourier_safe,
    inverse_fourier_base,
)
from .numeric import (
    finite_diff_lnM,
    gauss_flux_numeric,
    hankel_numeric,
    truncated_ft_numeric,
)
from .operators import (
    DiffOperator,
    apply_laplacian,
    apply_operator,
    operator_symbol,
)
from .parser import parse_momentum, parse_operator, parse_position
from .printer import format_momentum, format_operator, format_position
from .quotient import Character, IdealElement, character_eval, diagram_audit
from .regulate import Representation, find_representation, mass_shift
from .surface import SurfaceExpansion, leading_divergence, surface_expansion
