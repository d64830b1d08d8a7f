"""Exception types shared across the zone.

Everything raised on purpose by this package derives from ZoneError, so
callers (and the gateway's error mapper) can distinguish deliberate
failures from bugs. Each class carries the HTTP status the gateway
answers it with as ``http_status``; subclasses inherit their base's.
"""

from __future__ import annotations


class ZoneError(Exception):
    """Base class for all errors raised by this package."""

    http_status = 500


# --- naming / lookup -------------------------------------------------------

class DuplicateName(ZoneError):
    http_status = 409


class NoSuchPath(ZoneError):
    http_status = 404


class NoParent(ZoneError):
    http_status = 404


class NoSuchUser(ZoneError):
    http_status = 404


class NoSuchResource(ZoneError):
    http_status = 404


class NoSuchObject(ZoneError):
    http_status = 404


class UnknownDriver(ZoneError):
    http_status = 404


# --- authorization ---------------------------------------------------------

class Denied(ZoneError):
    """An operation was refused, either by a rule verdict or by an ACL."""

    http_status = 403

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


class PermissionDenied(Denied):
    """ACL or role check failed (a Denied whose reason is access control)."""


class BadCredentials(ZoneError):
    """Login failed; deliberately uniform for unknown user vs wrong secret."""

    http_status = 401


# --- catalog / journal -----------------------------------------------------

class MalformedPredicate(ZoneError):
    http_status = 400


class CorruptJournal(ZoneError):
    pass


# --- rule DSL --------------------------------------------------------------

class ParseError(ZoneError):
    """Source text does not conform to the rule/procedure grammar."""

    http_status = 400

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 expected: tuple[str, ...] = ()):
        loc = f" at {line}:{column}" if line else ""
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message}{loc}{exp}")
        self.line = line
        self.column = column
        self.expected = expected


class EvalError(ZoneError):
    """Base for expression-evaluation failures."""

    http_status = 400


class UnboundVariable(EvalError):
    pass


class TypeMismatch(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


# --- engine ----------------------------------------------------------------

class UnknownPep(ZoneError):
    http_status = 404


class DuplicateRuleName(ZoneError):
    http_status = 409


class NoSuchRule(ZoneError):
    http_status = 404


class EngineError(ZoneError):
    """A rule chain or micro-service failed while handling an operation."""


class AllReplicasSuspect(ZoneError):
    pass


class ChecksumMismatch(ZoneError):
    pass


class DuplicateReplica(ZoneError):
    http_status = 409


class NoSuchReplica(ZoneError):
    http_status = 404


class KindMismatch(ZoneError):
    """Resource kind does not fit the operation (e.g. staging to archive)."""

    http_status = 400


class FetchFailed(ZoneError):
    http_status = 502

    def __init__(self, detail: str, status: int | None = None):
        super().__init__(detail)
        self.status = status


# --- drivers ---------------------------------------------------------------

class DriverError(ZoneError):
    pass


class NoSuchRef(DriverError):
    pass


class Unsupported(DriverError):
    """The driver never performs this operation (the archive's unlink)."""


# --- streams ---------------------------------------------------------------

class BadFraming(ZoneError):
    http_status = 400


class TimestampsDecreasing(ZoneError):
    http_status = 400


class BadInterval(ZoneError):
    http_status = 400


class NotAStreamCollection(ZoneError):
    http_status = 400


# --- provenance ------------------------------------------------------------

class NotAWorkflowCollection(ZoneError):
    http_status = 400


class NoSuchWorkflow(ZoneError):
    http_status = 404


class NoSuchRun(ZoneError):
    http_status = 404


class BadBindings(ZoneError):
    http_status = 400


class StaleInputs(ZoneError):
    """Recorded inputs no longer match the catalog; lists offending paths."""

    http_status = 409

    def __init__(self, paths: list[str]):
        super().__init__("stale inputs: " + ", ".join(paths))
        self.paths = list(paths)
