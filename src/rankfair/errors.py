"""Exception hierarchy shared by all modules."""


class RankfairError(Exception):
    """Base class for all rankfair errors."""


class DimensionError(RankfairError, ValueError):
    """Objects defined over different alternative sets were combined."""


class GuardError(RankfairError, RuntimeError):
    """A desk-scale capacity guard was exceeded; no option raises a guard."""


class DataError(RankfairError, ValueError):
    """Malformed input data (profile files, PrefLib files, ...)."""
