"""Exception hierarchy shared by all epsreg modules."""


class EpsregError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EpsregError, ValueError):
    """Invalid argument: bad dimensions, out-of-domain points, malformed
    configuration, or values outside a supported range.

    ``key`` names the parameter at fault when one does (``'gamma_end'``,
    ``'n_r'``, ...), so a config parser can cite that parameter's line.
    """

    def __init__(self, message: str = "", key=None):
        super().__init__(message)
        self.key = key


class NumericError(EpsregError, RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""
