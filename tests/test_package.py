"""The package surface: its public names, served from their home modules,
and the layers `import kahlerlab.cli` registers for perfbench's tracer."""

import os
import subprocess
import sys
import types
from pathlib import Path

import kahlerlab

REPO = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AtLeast", "Finite", "ModuleMap", "NoSolution", "Polynomial",
    "Presentation", "ResolutionReport", "RingParseError", "RingSpec",
    "Solution", "SymmetricDerivation", "apply_derivation", "check_exact",
    "check_well_defined", "cokernel", "delta_expand", "delta_monomials",
    "diffmod", "format_polynomial", "free_resolution", "groebner",
    "iota_sym_to_omega2", "jacobian_regular", "jet_expand", "jets_of_ring",
    "jq_presentation", "kernel", "krull_dimension", "make_ringspec",
    "minimal_resolution", "nf_poly", "omega_presentation", "parse_poly",
    "parse_ringspec", "parser", "partial_derivative", "poly",
    "presentations", "projective_dimension", "rank", "resolution",
    "ring_as_module", "solve_linear", "splitting_t", "submodule_over_ring",
    "symmetric_derivation_oracle", "symmetric_derivation_solve",
    "symmetric_square", "syzygies_over_ring", "theta_to_first",
    "theta_to_jets", "validate_symmetric_derivation", "verify_splitting",
]


def test_public_names_come_from_their_home_modules():
    assert kahlerlab.__all__ == PUBLIC_NAMES
    starred: dict = {}
    exec("from kahlerlab import *", starred)
    for name in PUBLIC_NAMES:
        obj = getattr(kahlerlab, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules["kahlerlab." + name]
        else:
            assert obj.__module__.startswith("kahlerlab."), name
            assert getattr(sys.modules[obj.__module__], name) is obj
        assert starred[name] is obj, name
    assert set(PUBLIC_NAMES) <= set(dir(kahlerlab))


def test_cli_import_registers_every_traced_layer():
    # perfbench's tracer imports kahlerlab.cli and patches the layers it
    # then finds in sys.modules
    script = ("import sys, kahlerlab.cli\nfrom spans import LAYERS\n"
              "print(*[name for name in LAYERS + ('verify',)\n"
              "        if 'kahlerlab.' + name not in sys.modules])\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), str(REPO / "perfbench")])))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"
