"""Exception types shared across the library."""


class GameError(Exception):
    """Base class for all library errors."""


class CrossSpaceError(GameError):
    """A set expression was queried with a point from a different space model."""


class IntegrityError(GameError):
    """A stored coverage witness failed its membership check.

    This signals a broken cover transformation, not bad user input.
    """


class LegalityError(GameError):
    """An illegal move was produced or recorded."""

    def __init__(self, message: str, inning: int | None = None):
        super().__init__(message)
        self.inning = inning


class BudgetError(GameError):
    """A bounded scan or enumeration ran out of budget; raise the budget to retry."""


class StripExhaustedError(BudgetError):
    """Removing chosen sets left no member of a cover within the scan budget."""


class PreconditionError(GameError):
    """A construction's input fails a hypothesis it needs; raised before any search."""


class ResourceLimitError(GameError):
    """A combinatorial enumeration exceeded the configured node limit."""


class ConfigError(GameError):
    """A scenario config document is malformed."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
