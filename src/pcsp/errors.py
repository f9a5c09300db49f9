"""Shared exception types."""


class PcspError(Exception):
    pass


class BudgetExceededError(PcspError):
    """A configured search/size budget was exceeded."""


class PromiseViolationError(PcspError):
    """An input violated a promise an algorithm relies on (e.g. 3-colorability)."""


class StructureParseError(PcspError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class InternalError(PcspError):
    """A self-check of pcsp failed: a bug, never a verdict about the input."""

    def __init__(self, message):
        super().__init__("internal error: " + message)
