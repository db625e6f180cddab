"""Exception hierarchy for the memory engine."""


class TriMemError(Exception):
    """Base class for all engine errors."""


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
    pass


class AuthError(TriMemError):
    pass


class BudgetExceeded(TriMemError):
    pass


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
    pass


class UsageError(TriMemError):
    pass
