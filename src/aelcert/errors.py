"""Exception hierarchy shared by all aelcert modules."""


class AelcertError(Exception):
    """Base class for every error raised by this package."""


class NonPrimeCharacteristic(AelcertError):
    pass


class FieldTooLarge(AelcertError):
    pass


class FieldMismatch(AelcertError):
    pass


class DivisionByZero(AelcertError):
    pass


class DimensionMismatch(AelcertError):
    pass


class LengthMismatch(AelcertError):
    pass


class EnumerationTooLarge(AelcertError):
    pass


class SubsetEnumerationTooLarge(AelcertError):
    pass


class SubsetSizeTooLarge(AelcertError):
    pass


class EmptyResidual(AelcertError):
    pass


class EmptySet(AelcertError):
    pass


class RankFailure(AelcertError):
    pass


class SearchExhausted(AelcertError):
    pass


class NotAppropriate(AelcertError):
    pass


class FieldTooSmall(AelcertError):
    pass


class TargetUnreachable(AelcertError):
    pass


class ParallelEdgeExhaustion(AelcertError):
    pass


class GraphMismatch(AelcertError):
    pass


class NotAnOuterCodeword(AelcertError):
    pass


class AmplificationViolation(AelcertError):
    pass


class DuplicateCodewords(AelcertError):
    pass


class SubsetTooSmall(AelcertError):
    pass


class PrerequisiteNotVerified(AelcertError):
    pass


class ConfigInvalid(AelcertError):
    pass
