"""Exact workbench for modules of differentials over Q[x_1..x_s]/I.

The package builds finite presentations of the higher differential
modules Omega^(q), jet modules J_q(M) and symmetric squares, the
canonical maps between them, and certifies exactness, splittings,
ranks and projective dimensions with an exact Groebner/syzygy engine.

Importing the package registers every layer module in sys.modules
through importlib.util.LazyLoader: a layer is compiled and run when one
of its names is first read, so a cold `python -m kahlerlab.cli` request
compiles only the layers it runs (`rank` compiles neither `maps` nor
`derivations`).  The public names in __all__ are read from their home
modules on access (PEP 562).  `cli` is not registered: under `-m` it
runs as __main__, and runpy would compile a registered `kahlerlab.cli` a
second time.
"""

import importlib.util
import sys

_EXPORTS = {
    "poly": ("Polynomial", "format_polynomial", "partial_derivative"),
    "parser": ("RingParseError", "RingSpec", "make_ringspec", "parse_poly",
               "parse_ringspec"),
    "groebner": ("NoSolution", "Solution", "krull_dimension", "nf_poly",
                 "solve_linear", "submodule_over_ring", "syzygies_over_ring"),
    "presentations": ("Presentation", "rank", "ring_as_module",
                      "symmetric_square"),
    "maps": ("ModuleMap", "check_exact", "check_well_defined", "cokernel",
             "kernel", "verify_splitting"),
    "diffmod": ("delta_expand", "delta_monomials", "jet_expand",
                "jq_presentation", "omega_presentation"),
    "derivations": ("SymmetricDerivation", "apply_derivation",
                    "iota_sym_to_omega2", "jets_of_ring", "splitting_t",
                    "symmetric_derivation_oracle",
                    "symmetric_derivation_solve", "theta_to_first",
                    "theta_to_jets", "validate_symmetric_derivation"),
    "resolution": ("AtLeast", "Finite", "ResolutionReport", "free_resolution",
                   "jacobian_regular", "minimal_resolution",
                   "projective_dimension"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}


def _lazy(name):
    """kahlerlab.<name>, registered in sys.modules; it runs on first use."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in (*_EXPORTS, "properties", "verify"):
    globals()[_name] = _lazy(_name)
del _name

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
