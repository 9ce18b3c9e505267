"""Exception hierarchy shared by all aelcert modules: one class per
decision a caller makes (README, "Errors")."""


class AelcertError(Exception):
    """Base class for every error raised by this package."""


class ConfigInvalid(AelcertError):
    """A config or artifact file that cannot be used as written."""


class FieldMismatch(AelcertError, ValueError):
    """A value that is not a vector over the field: a bad input value."""


class FieldRefused(AelcertError, ValueError):
    """GF(p^m) is refused: p is not prime, or p^m exceeds the order cap."""


class DivisionByZero(AelcertError, ZeroDivisionError):
    """Division by the zero field element or the zero polynomial."""


class Mismatch(AelcertError):
    """Arguments that do not fit together: lengths, shapes, a field too
    small, a word outside the code, a set too small or an unmet premise."""


class TooLarge(AelcertError):
    """A cap refused the work before it started: it fails closed."""


class SearchExhausted(AelcertError):
    """A randomized search or sampler used up its tries."""


class AmplificationViolation(AelcertError):
    """A pair of AEL codewords is closer than the amplified distance allows."""
