"""The verification report, the one table of every input kind's checks,
in the order `--check all` runs them, that each semigroup class's CHECKS
and the CLI's check choices read, and the one check dispatcher, `verify`,
every semigroup class's method: it runs `_check_<name>(window)`, which
returns that check's own report."""

from dataclasses import dataclass, field

from .errors import ArityMismatch, InputError, UnknownCheck

_TWO_POINT = ("closure", "c_prop", "c_identity", "corner_translates",
              "lemma4", "d_agreement", "symmetry", "funceq")
KIND_CHECKS = {"two-point": _TWO_POINT, "fixture": _TWO_POINT + ("oracle",),
               "one-point": ("indicator", "l_identity", "symmetry", "funceq"),
               "delta": ("indicator", "l_identity", "delta_product",
                         "symmetry", "funceq")}


def refuse_check(check, checks):
    """InputError naming the first input kind that has `check`, else
    UnknownCheck."""
    for kind, names in KIND_CHECKS.items():
        if check in names:
            return InputError(f"check {check!r} needs a {kind} input")
    return UnknownCheck(f"unknown check {check!r}; pick one of {checks}")


def verify(semigroup, check, window=None):
    """Run one named check of semigroup.CHECKS on window, which defaults
    to semigroup.default_window() and must have its number of variables."""
    if check not in semigroup.CHECKS:
        raise refuse_check(check, semigroup.CHECKS)
    default = semigroup.default_window()
    if window is None:
        window = default
    if window.arity != default.arity:
        raise ArityMismatch(
            f"verification windows must be {default.arity}-dimensional")
    return getattr(semigroup, f"_check_{check}")(window)


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    witnesses: tuple
    window: tuple | None
    details: dict = field(default_factory=dict)
    series: object = None

    def to_json(self):
        out = {
            "check": self.check,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }
        if self.window is not None:
            out["window"] = self.window
        if self.series is not None:
            out["series"] = self.series.to_json()
        if self.details:
            out["details"] = self.details
        return out
