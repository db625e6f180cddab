"""Exception hierarchy for the memory engine. Each class's ``exit_code`` is
the CLI's exit status for it: 1 usage, 3 backend/transport, else 2 (data)."""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class TriMemError(Exception):
    """Base class for all engine errors."""
    exit_code = EXIT_DATA


# -- corpus --------------------------------------------------------------

class MissingFile(TriMemError):
    pass


class MalformedDocument(TriMemError):
    pass


class DuplicateTurnId(TriMemError):
    pass


class EmptyCorpus(TriMemError):
    pass


# -- backend -------------------------------------------------------------

class TransportError(TriMemError):
    exit_code = EXIT_BACKEND


class AuthError(TriMemError):
    exit_code = EXIT_BACKEND


class BudgetExceeded(TriMemError):
    exit_code = EXIT_BACKEND


class FixtureExhausted(TransportError):
    """Scripted backend ran out of matching canned responses."""


class DimensionMismatch(TriMemError):
    pass


# -- extraction / parsing ------------------------------------------------

class ParseFailure(TriMemError):
    pass


# -- store ---------------------------------------------------------------

class StoreClosed(TriMemError):
    pass


class EmptyIndex(TriMemError):
    pass


class UnknownEntry(TriMemError):
    pass


class DanglingAnchor(TriMemError):
    pass


class StoreIOError(TriMemError):
    pass


class SchemaVersionMismatch(TriMemError):
    pass


# -- evolution / metrics -------------------------------------------------

class EmptyRecordSet(TriMemError):
    pass


class KeyMismatch(TriMemError):
    pass


class EmptyRequiredSet(TriMemError):
    pass


# -- cli -----------------------------------------------------------------

class UnknownKnob(TriMemError):
    exit_code = EXIT_USAGE


class UsageError(TriMemError):
    exit_code = EXIT_USAGE
