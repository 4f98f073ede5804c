"""Exact arithmetic for Weierstrass semigroups at one and two points."""

from .checks import VerificationReport
from .errors import (
    ArityMismatch,
    AxiomViolation,
    InputError,
    InvalidSemigroup,
    NotSymmetric,
    UnknownCheck,
    WindowTooSmall,
)
from .onepoint import (
    DeltaSequence,
    NumericalSemigroup,
    OnePointSemigroup,
    apery_series,
    direct_series,
    functional_equation_signs,
    l_polynomial,
    poincare_delta_product,
    poincare_direct,
    poincare_onepoint,
    series_first_difference,
)
from .oracle import Fixture, d_oracle, ell, semigroup_from_fixture
from .series import LaurentPoly, RationalGF, Window
from .twopoint import CHECKS, TwoPointSemigroup

__all__ = [
    "ArityMismatch",
    "AxiomViolation",
    "InputError",
    "InvalidSemigroup",
    "NotSymmetric",
    "UnknownCheck",
    "WindowTooSmall",
    "LaurentPoly",
    "RationalGF",
    "Window",
    "NumericalSemigroup",
    "DeltaSequence",
    "OnePointSemigroup",
    "apery_series",
    "direct_series",
    "poincare_direct",
    "poincare_delta_product",
    "poincare_onepoint",
    "series_first_difference",
    "l_polynomial",
    "functional_equation_signs",
    "TwoPointSemigroup",
    "VerificationReport",
    "CHECKS",
    "Fixture",
    "ell",
    "d_oracle",
    "semigroup_from_fixture",
]
