"""Exception taxonomy.

Numerical failures (no phase match, fit divergence, unresolved bins) are
kept distinct from plain argument errors so the CLI can map them to exit
code 1 vs 2. The errors that are also ValueErrors (range, physicality,
basis, tomography data) describe bad input: exit code 2.
"""


class FreqbinError(Exception):
    """Base class for all library errors."""


class WavelengthRangeError(FreqbinError, ValueError):
    """Wavelength outside a Sellmeier set's validity range."""


class TemperatureRangeError(FreqbinError, ValueError):
    """Temperature outside a Sellmeier set's validity range."""


class NoPhaseMatchError(FreqbinError):
    """No sign change of the phase mismatch inside the search bracket.

    Attributes
    ----------
    dk_min, dk_max : float
        Extreme mismatch values (rad/m) seen while scanning the bracket.
    """

    def __init__(self, msg, dk_min=None, dk_max=None):
        super().__init__(msg)
        self.dk_min = dk_min
        self.dk_max = dk_max


class BranchAmbiguityError(FreqbinError):
    """More than one phase-matching root on the selected branch, or in
    the whole bracket when no branch was selected.

    ``roots`` holds the approximate signal wavelengths (m) of those roots.
    """

    def __init__(self, msg, roots=()):
        super().__init__(msg)
        self.roots = tuple(roots)


class GridResolutionError(FreqbinError):
    """Frequency grid too coarse to resolve the sinc main lobes."""


class BinReductionError(FreqbinError):
    """Spectrum cannot be reduced to two bins (peaks unresolved/asymmetric)."""


class FitConvergenceError(FreqbinError):
    """Iterative fit failed to converge; carries the last iterate."""

    def __init__(self, msg, last_iterate=None, residual=None):
        super().__init__(msg)
        self.last_iterate = last_iterate
        self.residual = residual


class PhysicalityError(FreqbinError, ValueError):
    """Matrix violates Hermiticity / unit-trace / positivity requirements."""


class BasisMismatchError(FreqbinError, ValueError):
    """Operands are expressed in different two-qubit bases."""


class TomographyDataError(FreqbinError, ValueError):
    """Tomography dataset unusable (incomplete settings, all-zero counts...)."""
