"""kinterp: numerical verification of two-sided K-functional estimates.

The package evaluates Peetre K-functionals on concrete couples, weighted
Lq(dt/t) interpolation parameters with slowly varying weights, the canonical
weight relating two parameters, the separation conditions between them, and
the two-sided estimates that express the K-functional of a couple of
K-interpolation spaces through the base couple's K-profile.
"""

from .conditions import (CONDITION_IDS, DEFAULT_BUDGET, ConditionReport,
                         check_C1, check_C2, check_C3, check_C4,
                         check_sv_sufficient)
from .couples import (KProfile, StepFn, ValidationReport, WeightedSeq,
                      element_from_json, k_step_l1_linf, k_weighted_l1,
                      validate_kprofile)
from .errors import (DivergentIntegralError, EmptyCandidateError,
                     InvariantViolation, KinterpError, MembershipError,
                     RangeError, ScenarioError)
from .estimates import (DecompositionSearch, EquivalenceReport, VariantResult,
                        classical_rhs, equivalence_report)
from .params import (PhiParam, full_norm_profile, membership_min1,
                     norm_head_u, norm_tail_char, norm_trunc_profile,
                     phi_from_json, phi_norm)
from .quadrature import LogGrid, QuadResult, integral_log, sup_log
from .runner import (ScenarioResult, bundled_scenario, bundled_scenario_dir,
                     run_scenario, run_suite)
from .scenario import Scenario, load_scenario, scenario_from_json
from .sv import (BrokenLog, Constant, EnvelopeReport, ExpLogPow, Power,
                 PrimitiveB, PrimitiveBTilde, Product, SVDescriptor,
                 check_sv_envelope, sv_from_json)

__version__ = "0.1.0"

__all__ = [
    "BrokenLog", "CONDITION_IDS", "Constant", "ConditionReport",
    "DEFAULT_BUDGET", "DecompositionSearch", "DivergentIntegralError",
    "EmptyCandidateError", "EnvelopeReport", "EquivalenceReport",
    "ExpLogPow", "InvariantViolation", "KProfile", "KinterpError",
    "LogGrid", "MembershipError", "PhiParam", "Power", "PrimitiveB",
    "PrimitiveBTilde", "Product", "QuadResult", "RangeError",
    "SVDescriptor", "Scenario", "ScenarioError", "ScenarioResult",
    "StepFn", "ValidationReport", "VariantResult", "WeightedSeq",
    "bundled_scenario", "bundled_scenario_dir", "check_C1", "check_C2",
    "check_C3", "check_C4", "check_sv_envelope", "check_sv_sufficient",
    "classical_rhs", "element_from_json", "equivalence_report",
    "full_norm_profile", "integral_log", "k_step_l1_linf", "k_weighted_l1",
    "load_scenario", "membership_min1", "norm_head_u", "norm_tail_char",
    "norm_trunc_profile", "phi_from_json", "phi_norm", "run_scenario",
    "run_suite", "scenario_from_json", "sup_log", "sv_from_json",
    "validate_kprofile",
]
