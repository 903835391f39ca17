"""Multivalued linear algebra over superrings and superfields.

Finite set-valued structures (hyperfields, multirings, superfields), the
polynomial superring, box-valued matrices and determinants, linear systems
with weak solutions, the quotient superfield construction, and multivalued
vector spaces, all with exhaustive desk-scale verification.
"""

from .axioms import (AxiomReport, MorphismSpec, check_morphism, is_full,
                     is_proto_full, recheck_witness, structure_is,
                     verify_axioms, verify_multigroup)
from .errors import (BlowupError, CongruenceError, MvlaError, ParseError,
                     ReducibleError, StructureError, WindowRequired, search_budget)
from .extensions import (AlgebraicityCertificate, ExtensionPair,
                         certify_algebraic_extension, classify_extension,
                         eval_closure, find_irreducible,
                         find_quotient_superfield, is_almost_full,
                         make_quotient_superfield, minimal_polynomial,
                         quotient_pair)
from .fileformat import (parse_matrix, parse_structure, parse_system,
                         poly_from_text, poly_to_text, serialize_matrix,
                         serialize_structure)
from .ideals import (Ideal, all_ideals, characteristic, classify_ideal,
                     is_ideal, principal_ideal, quotient)
from .linsys import (LinearSystem, SolutionVerdict, SolveOutcome, TypeIError,
                     apply_elementary, find_nontrivial_kernel, homogeneous,
                     is_linearly_closed, is_solution, is_weak_solution,
                     iter_scaled_systems, solve_weak)
from .matrices import (ElementaryOp, Matrix, MatrixSet, all_matrices, det,
                       elementary, find_inverse, is_inverse_pair, madd, mmul,
                       mneg, mscale)
from .polys import (NEG_INF, Poly, PolySet, all_polys, divmod_holds, evaluate,
                    is_effective_root, is_irreducible, is_root, padd,
                    padd_sets, pdeg_laws_check, pdivmod, pmul, pmul_fold)
from .structures import (INF, Structure, TropicalStructure, builtin, mprod,
                         mprod_sets, msum, msum_sets, strict_ring)
from .vspaces import (VectorSpace, dimension, extension_space, find_basis,
                      fn_space, is_linearly_independent, is_subspace,
                      linear_combinations, matrix_space, poly_space,
                      solution_subspace, span, verify_vspace)

__version__ = "0.1.0"
