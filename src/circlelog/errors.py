"""Exception hierarchy for the circlelog package."""


class CircleLogError(Exception):
    """Base class for all domain errors raised by circlelog."""


class UsageError(CircleLogError, ValueError):
    """Request of impossible shape, such as no trials or an empty range (CLI exit 2)."""


class InvalidOrder(CircleLogError):
    """Group order is out of range for the requested operation."""


class NotPrimitive(CircleLogError):
    """Generator exponent does not generate the whole group (gcd(g, n) != 1)."""


class ParamsMismatch(CircleLogError):
    """Two elements belong to groups with different parameters."""


class AmbiguousAngle(CircleLogError):
    """Angle sits too close to a decision boundary to identify the exponent."""


class CompositeOrder(CircleLogError):
    """Signature mode requires a prime group order."""


class OrderTooLarge(CircleLogError):
    """Exhaustive search refused above the runtime guard."""


class MessageTooLarge(CircleLogError):
    """Message integer does not fit in the plaintext space [0, n)."""


class ParseError(CircleLogError):
    """Malformed key file; message names the offending line or field."""


class ConsistencyError(CircleLogError):
    """Stored public element disagrees with the private exponent."""


class ProtocolError(CircleLogError):
    """Wire protocol violation; message names the expected step."""
