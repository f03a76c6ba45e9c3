"""Efimov trimers, elastic n+dimer scattering, and Fano lineshape fits
for two-neutron halo systems (n + n + core)."""

from .errors import (
    ConfigurationError,
    DomainError,
    FlatDataError,
    NumericalError,
    PoleProximityError,
)
from .fanofit import (
    BreitWignerParameters,
    FanoParameters,
    FitResult,
    breit_wigner_profile,
    fano_profile,
    fit,
    q_consistency,
    resonance_window,
)
from .model import (
    HBAR_C,
    NUCLEON_MASS,
    ChannelLabel,
    PairChannel,
    PoleKind,
    SystemConfig,
    boron19_config,
    default_c20_config,
    parse_system_config,
    reduced_mass,
    resolve_config,
    scattering_length_from_pole,
    two_body_propagator,
    unitary_boson_config,
)
from .quadrature import MomentumGrid, build_grid
from .scattering import (
    CrossSectionCurve,
    ScatteringPoint,
    cross_section_curve,
)

# The spectrum names load trihalo.spectrum, and with it scipy.linalg, at
# their first use (PEP 562).  Each access reads the module's current binding,
# so a name rebound on trihalo.spectrum is rebound here too.
_SPECTRUM_NAMES = frozenset({
    "KernelMatrix",
    "ResonantPairs",
    "ScaleFactor",
    "ThreeBodySpectrum",
    "ThresholdScan",
    "build_kernel",
    "calibrate_range_parameter",
    "efimov_scale_factor",
    "find_trimers",
    "threshold_scan",
})


def __getattr__(name):
    if name in _SPECTRUM_NAMES:
        from . import spectrum

        return getattr(spectrum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _SPECTRUM_NAMES)


__version__ = "0.1.0"
