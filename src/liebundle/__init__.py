"""Exact universal Lie bracket extensions on n-fold sums.

Construction, validation, classification and deformation of bracket tensors
W^{ij}_s defining ([x, y]_W)_s = sum W^{ij}_s [x_i, y_j] on G^n, plus the
companion sandwich-matrix and Lie-Poisson viewpoints.  All algebraic
decisions are made in exact rational arithmetic.
"""

from __future__ import annotations

from .algebra_core import (CompatibilityReport, JacobiReport,
                           StructureConstants, ad_matrix, basis_vector,
                           bracket_eval, builtin_algebra, center_basis,
                           coboundary_of_one_cochain, compatibility_check,
                           make_structure_constants, mixed_jacobi_check,
                           pencil_bracket, structure_constants_from_json,
                           structure_constants_to_json, sum_bracket_table,
                           validate_structure_constants)
from .errors import InternalCheckError, SizeCapError
from .matrix_bundle import (SandwichSuiteReport, beta_map, bracket_sandwich,
                            coboundary_identity_check, component_bracket,
                            embed_circulant, extract_blocks,
                            has_circulant_pattern, sandwich_product,
                            sandwich_suite, so_sym_bundle)
from .poisson import (PolyFunction, casimir_linear_basis, coordinate_poly,
                      involution_check, lie_poisson_bracket,
                      make_poisson_tensor, make_poly, poisson_jacobi_check,
                      poly_add, poly_diff, poly_from_json, poly_mul,
                      poly_scale, poly_to_json, poly_to_text)
from .spectral import (CirculantClass, MuSpectrum, circulant_rank_exact,
                       classify_circulant, dft_matrix, dft_inverse,
                       diagonal_pattern_deviation, mu_spectrum,
                       spectrum_report_json, transform_w)
from .wtensor import (DEFAULT_CAP, WTensor, WValidationReport, circulant_w,
                      direct_sum_w, extension_bracket,
                      filtration_support_check, gn_basis,
                      induced_structure_constants, invalid_witness_w,
                      jacobi_certify, leibnitz_deform, leibnitz_w,
                      make_wtensor, max_abelian_filtration_ideal,
                      semisimple_form_check, slice_matrix,
                      truncate_to_solvable, wtensor_from_json, wtensor_to_json,
                      wtensor_validate)

__version__ = "0.1.0"
