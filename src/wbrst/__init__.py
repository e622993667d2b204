"""Exact symbolic toolkit for quantum Lie algebra differentials and
chiral operator product algebra, with BRST nilpotency certification.

Layers, bottom up:

* ``scalars`` -- exact rational functions in named parameters;
* ``tensors`` / ``omega`` -- quantum Lie algebra axioms and the
  ghost-extended smash product with its differential;
* ``fields`` / ``engine`` -- normal-ordered field monomials and the
  operator product rewriting engine;
* ``analysis`` / ``algebras`` -- structural checks and the bundled
  W-algebra and ghost tables;
* ``brst`` -- BRST currents, nilpotency, critical charges, and the
  nilpotency-driven current solver;
* ``modes`` -- independent fermionic Fock-space oracle;
* ``parsing`` / ``cli`` -- textual formats and the command line.
"""

from .errors import WbrstError
from .scalars import (PoleError, RationalFunction, RF_ONE,
                      RF_ZERO, format_rational, rf)
from .fields import FieldExpr, GeneratorDecl, Monomial, OpeAlgebra, UNIT
from .engine import EngineError, OpeContext
from .analysis import (apply_map, central_charge, check_homomorphism,
                       is_total_derivative, jacobi_check, primary_check,
                       validate_table, weight_basis)
from .algebras import (bundle, ghost_stress, w3, w32, w3_ghosts, w32_ghosts,
                       verify_ghost_transform_w3, verify_ghost_transform_w32)
from .brst import (BrstCurrent, CurrentFile, NilpotencyReport, brst_w3,
                   brst_w32, critical_charge, derive_brst, nilpotency,
                   solve_conventional, unconventional_terms)
from .tensors import (Mat, QlaData, check_proof_identities,
                      check_qla_axioms, check_twist_axioms, lie_super_twist,
                      super_permutation)
from .omega import OmegaAlgebra, OmegaElement, build_q, verify_nilpotent
from .modes import (BcSystem, FockSlice, ModeMatrix, crosscheck,
                    crosscheck_bundle, field_modes, ope_poles_from_modes,
                    systems_from_algebra)
from .parsing import (ParseError, format_algebra_file, format_field_expr,
                      parse_algebra_file, parse_field_expr, parse_qla_file)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "1.0.0"
