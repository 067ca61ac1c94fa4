"""Exact workbench for modules of differentials over Q[x_1..x_s]/I.

The package builds finite presentations of the higher differential
modules Omega^(q), jet modules J_q(M) and symmetric squares, the
canonical maps between them, and certifies exactness, splittings,
ranks and projective dimensions with an exact Groebner/syzygy engine.
"""

from .poly import Polynomial, format_polynomial, partial_derivative
from .parser import (
    RingParseError,
    RingSpec,
    make_ringspec,
    parse_poly,
    parse_ringspec,
)
from .groebner import (
    NoSolution,
    Solution,
    krull_dimension,
    nf_poly,
    solve_linear,
    submodule_over_ring,
    syzygies_over_ring,
)
from .presentations import (
    ModuleMap,
    Presentation,
    check_exact,
    check_well_defined,
    cokernel,
    kernel,
    rank,
    ring_as_module,
    symmetric_square,
    verify_splitting,
)
from .diffmod import (
    SymmetricDerivation,
    apply_derivation,
    delta_expand,
    delta_monomials,
    iota_sym_to_omega2,
    jet_expand,
    jets_of_ring,
    jq_presentation,
    omega_presentation,
    splitting_t,
    symmetric_derivation_oracle,
    symmetric_derivation_solve,
    theta_to_first,
    theta_to_jets,
    validate_symmetric_derivation,
)
from .resolution import (
    AtLeast,
    Finite,
    ResolutionReport,
    free_resolution,
    jacobian_regular,
    minimal_resolution,
    projective_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
