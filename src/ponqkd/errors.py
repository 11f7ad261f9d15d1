"""Exception types shared across the package."""


class WavelengthRangeError(ValueError):
    """Wavelength falls outside the hull of a tabulated quantity."""


class ShiftRangeError(ValueError):
    """Frequency shift falls outside the tabulated scattering profile."""


class PathElementError(KeyError):
    """A loss path references an element the topology does not define."""


class ConfigError(ValueError):
    """Scenario configuration is invalid.

    ``errors`` lists every failing field, not just the first one found.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class CalibrationError(RuntimeError):
    """Root finding for a calibration anchor failed; message carries bracket diagnostics."""
