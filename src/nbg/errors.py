"""Exception types shared across the package."""


class NbgError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(NbgError, ValueError):
    """A vector or matrix has the wrong length for the game."""


class MassMismatchError(NbgError, ValueError):
    """Masses are negative, not finite, or do not sum to the stated total."""


class UnsupportedGameError(NbgError, TypeError):
    """The operation needs a structure this game does not have."""


class InputFormatError(NbgError, ValueError):
    """A file or string could not be parsed into a game object."""
