"""Exact-arithmetic punctured q-Steiner systems S_q(t,k,n;m).

Construction, exact solving of the covering equation systems, and
brute-force verification of every claim reachable at desk scale.
"""

from .counting import (count_C, count_D, count_N, gaussian,
                       necessary_conditions, oracle_C, oracle_D, oracle_N)
from .designs import (DesignMultiset, DesignParams, ExtensionFamilies,
                      Parallelism, Spread, SteinerSystem, VerificationReport,
                      apply_transform, build_parallelism, build_spread,
                      construct_uniform_design, distinctness_check,
                      fano_m5_families, puncture_design, puncture_steiner,
                      recursive_families, s3485_families, trivial_steiner,
                      uniform_families, verify, verify_families,
                      verify_steiner)
from .equations import (EquationSystem, NonIntegralSolution, SolveOutcome,
                        build_full, build_uniform, solve,
                        uniform_family_solution)
from .field import GF, make_field
from .files import (parse_design, parse_design_file, parse_parallelism,
                    parse_parallelism_file, serialize_design,
                    serialize_parallelism, write_design, write_parallelism)
from .subspaces import (Subspace, VirtualExpansion, contains,
                        enumerate_subspaces, enumerate_extensions, expand,
                        extension_raise_dim, extensions_same_dim, puncture,
                        rref, subspaces_within)

__version__ = "0.1.0"
