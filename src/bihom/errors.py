"""Exception hierarchy shared by every layer of the library.

Construction functions raise; axiom *checks* never raise on a failed
axiom (they return a report entry with a witness instead), so anything
below signals a violated precondition, not a falsified theorem.
"""


class BiHomError(Exception):
    """Base class for all library errors."""


class MixedFields(BiHomError):
    """Operands belong to different ground fields."""


class DivisionByZero(BiHomError):
    pass


class ZeroDenominator(BiHomError):
    pass


class ZeroParameter(BiHomError):
    """A parameter that must be nonzero (twisting scalars) is zero."""


class ShapeMismatch(BiHomError):
    pass


class Singular(BiHomError):
    """A matrix that must be invertible is not.  Carries the rank."""

    def __init__(self, msg, rank=None):
        super().__init__(msg)
        self.rank = rank


class Inconsistent(BiHomError):
    """A linear system required to have a solution has none."""


class NonUnique(BiHomError):
    """A linear system required to have a unique solution has many."""


class DegenerateParameter(BiHomError):
    """Parameter value excluded by the example family (b=1, a=0)."""


class _Witnessed(BiHomError):
    """An error that carries the witness of what failed."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class _Reported(BiHomError):
    """An error that carries the failing check report."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class NotMultiplicative(_Witnessed):
    """A candidate twisting map fails multiplicativity."""


class NotComultiplicative(_Witnessed):
    pass


class NotBialgebraMap(_Witnessed):
    pass


class NotAutomorphism(_Witnessed):
    pass


class MapsDoNotCommute(_Witnessed):
    pass


class NotClosed(_Witnessed):
    """A fixed subspace is not closed under the product; the witness is the pair."""


class MissingUnit(BiHomError):
    pass


class NotPrimitive(BiHomError):
    pass


class HypothesisFailure(_Witnessed):
    """A stated hypothesis of a construction fails."""


class ConditionFailure(HypothesisFailure):
    pass


class ModuleAxiomFailure(_Reported):
    """A module action fails its axioms."""


class PseudotwistorInvalid(_Reported):
    pass


class TwistingMapInvalid(_Reported):
    pass


class ParseError(BiHomError):
    """Malformed structure file; carries the JSON path of the offender."""

    def __init__(self, msg, path=""):
        super().__init__(f"{path}: {msg}" if path else msg)
        self.path = path


class DimensionMismatch(ParseError):
    pass


class BadScalar(ParseError):
    pass
