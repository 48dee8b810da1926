"""Exact Hecke operators on q-expansions, divisors on X_0(N), and the
divisor-sum identities connecting them.

The three representations of the Hecke algebra R_0(N) live in:

* :mod:`heckediv.algebra`   -- double cosets T(a, d) and their products;
* :mod:`heckediv.operators` -- the additive weight-k operator and the
  multiplicative operator on meromorphic forms;
* :mod:`heckediv.curve`     -- the action on divisors of X_0(N).

:mod:`heckediv.pairing` ties them together through divisor sums, and
:mod:`heckediv.verify` packages the identity checks behind the CLI.
"""

from .algebra import AlgebraElement, algebra_multiply, left_coset_reps, t_ad, \
    t_n
from .curve import CanonicalPoint, CuspClass, Divisor, HeegnerPoint, \
    act_matrix, canonical_cusp, cusps, divisor_of_form, hecke_divisor, \
    period, point_divisor, reduce_point, weight0_to_j_polynomial
from .forms import DeltaShift, Eisenstein, EtaQuotient, EtaQuotientSpec, \
    FormExpression, JMinus, OpaqueSeries, delta, eisenstein, \
    eta_quotient_qexp, expression_by_name, j_function, j_shifted, jn
from .niebur import EvalParams, PointValue, harmonic_slice, jn_value, \
    niebur_value
from .operators import apply_element, hecke_additive_cosets, \
    hecke_additive_formula, hecke_multiplicative, hecke_multiplicative_cosets
from .pairing import EvalReport, PairingResult, PointEvaluator, bko_pairing, \
    pair, r_at_s1, r_numeric, verify_equivariance, verify_prop_divisor_sums
from .series import PuiseuxSeries

__all__ = [
    "AlgebraElement", "algebra_multiply", "left_coset_reps", "t_ad", "t_n",
    "CanonicalPoint", "CuspClass", "Divisor", "HeegnerPoint", "act_matrix",
    "canonical_cusp", "cusps", "divisor_of_form", "hecke_divisor", "period",
    "point_divisor", "reduce_point", "weight0_to_j_polynomial",
    "DeltaShift", "Eisenstein", "EtaQuotient", "EtaQuotientSpec",
    "FormExpression", "JMinus", "OpaqueSeries", "delta", "eisenstein",
    "eta_quotient_qexp", "expression_by_name", "j_function", "j_shifted",
    "jn",
    "EvalParams", "PointValue", "harmonic_slice", "jn_value", "niebur_value",
    "apply_element", "hecke_additive_cosets", "hecke_additive_formula",
    "hecke_multiplicative", "hecke_multiplicative_cosets",
    "EvalReport", "PairingResult", "PointEvaluator", "bko_pairing", "pair",
    "r_at_s1", "r_numeric", "verify_equivariance",
    "verify_prop_divisor_sums",
    "PuiseuxSeries",
]
