"""Exception hierarchy shared by all malthus modules."""


class MalthusError(Exception):
    """Base class for all library errors."""


class InvalidModel(MalthusError):
    """A structural model assumption is violated (message names the first one)."""


class ConfigError(MalthusError):
    """A configuration key is unknown or missing, or its value is rejected."""


class NoConvergence(MalthusError):
    """An iterative solver exhausted its iteration budget."""


class BracketFailure(MalthusError):
    """No sign change could be bracketed for the Malthus root find."""


class PopulationCapExceeded(MalthusError):
    """The simulated population hit the configured hard cap."""


class DegenerateData(MalthusError):
    """Trajectory data is unusable for estimation (e.g. all counts zero)."""


class GridMismatch(MalthusError):
    """Two gridded densities do not share a common grid."""


class InsufficientData(MalthusError):
    """Not enough snapshots or replicates for the requested report."""


class EmptyMinorant(MalthusError):
    """The Doeblin minorant has mass 0 on its evaluation domain."""
