"""Exception hierarchy for the loewner package.

Every raisable condition named in a module contract gets its own class so
callers (and the CLI) can distinguish caller mistakes from mathematical
verdicts.  All inherit from :class:`LoewnerError`.
"""


class LoewnerError(Exception):
    """Base class for all package errors."""


# --- expression / interval errors -----------------------------------------

class DomainError(LoewnerError):
    """Evaluation point lies outside the function's domain."""


class UnsupportedNode(LoewnerError):
    """An unknown function kind or catalog function name."""


class EmptyDomain(LoewnerError):
    """Domain derivation produced a degenerate or empty interval."""


# --- matrix kernel errors ---------------------------------------------------

class SpectrumOutsideDomain(LoewnerError):
    """A matrix eigenvalue falls outside the function's domain."""

    def __init__(self, eigenvalue, domain):
        self.eigenvalue = eigenvalue
        self.domain = domain
        super().__init__(f"eigenvalue {eigenvalue!r} outside domain {domain}")


class SingularBlock(LoewnerError):
    """Complementary block of a Schur complement is not positive invertible."""


# --- certification errors ---------------------------------------------------

class DuplicateNodes(LoewnerError):
    """Divided-difference node list contains repeated points."""


class NonFiniteValue(LoewnerError):
    """A check met a NaN or infinite value, so no verdict can be drawn."""


# --- transform errors -------------------------------------------------------

class NoFiniteLimit(LoewnerError):
    """Function has no finite limit at the requested excluded endpoint."""


class OutsideClosure(LoewnerError):
    """A point is not in the closure of the function's domain."""


class NotPositive(LoewnerError):
    """Positivity scan found a non-positive value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"function is not positive at x={point!r} (value {value!r})")


class NotNegative(LoewnerError):
    """Negativity scan found a non-negative value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"function is not negative at x={point!r} (value {value!r})")


class ZeroFunction(LoewnerError):
    """The function is identically zero where a sign is required."""


class Unbounded(LoewnerError):
    """Grid supremum diverged across refinements."""


class HypothesisViolated(LoewnerError):
    """A composition hypothesis failed; ``clause`` names which one."""

    def __init__(self, clause, detail=""):
        self.clause = clause
        msg = f"hypothesis violated: {clause}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# --- process errors ----------------------------------------------------------

class NotRational(LoewnerError):
    """Expression is not reducible to a rational function."""


class StageCertificationFailed(LoewnerError):
    """A pipeline stage failed its class certifier (internal inconsistency)."""

    def __init__(self, stage_index, certificate):
        self.stage_index = stage_index
        self.certificate = certificate
        super().__init__(f"stage {stage_index} failed certification")


# --- measure errors ----------------------------------------------------------

class BadMeasureInput(LoewnerError, ValueError):
    """A measure, a representation or a measure-operation argument is
    malformed or out of range."""


class AtomAtX0(LoewnerError):
    """An atom coincides with the difference-quotient center."""


class NotEndpoint(LoewnerError):
    """Requested point is not a finite excluded endpoint of the interval."""


class NegativeAtom(LoewnerError):
    """Square substitution requires all atom locations positive."""


class NonzeroMuMinus(LoewnerError):
    """Square substitution requires an empty left measure."""


class QuadratureFailure(LoewnerError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class WindowContainsPole(LoewnerError):
    """Atom location is too close to the recovery-window boundary."""
