"""Exact WKB toolkit: Airy Borel summation and the Pearcey system.

Exact series engines (Riccati recurrence, Borel transforms, algebraic branch
expansions), numeric branch continuation and Borel summation with connection
formula verification, and the Pearcey quotient-ring recursion with its
holonomic annihilation witnesses.
"""

from .airy_borel import BorelSeries, borel_series, borel_transform, hypergeometric_oracle
from .airy_wkb import (RiccatiSolution, WkbCoefficientStream,
                       closed_form_coefficients, integrate_s_odd,
                       riccati_recurrence, split_odd_even, wkb_coefficient_stream)
from .branches import BranchLabel, branch_series, solve_cubic_x, verify_branch_identities
from .errors import ExactWkbError, NumericError, PreconditionError, VerificationError
from .pearcey import (CubicFieldElement, PearceyBranch, annihilation_residuals,
                      check_closedness, check_primitives, pearcey_recursion,
                      quartic_g_roots)
from .resummation import (AiryValues, BorelSum, StokesContext, airy_reference,
                          classify_stokes, laplace_sum, verify_airy_connection,
                          verify_voros)
from .series import ExactScalar, PuiseuxSeries
from .weyl import WeylElement, pearcey_operators, verify_operator_identities

__version__ = "0.1.0"
