"""Efimov trimers, elastic n+dimer scattering, and Fano lineshape fits
for two-neutron halo systems (n + n + core)."""

import importlib

from .errors import (
    ConfigurationError,
    DomainError,
    FlatDataError,
    NumericalError,
    PoleProximityError,
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

# errors, model and quadrature, which every command uses, load with the
# package.  The layer names below load their module (spectrum with
# scipy.linalg, scattering with the kernel engine) at their first use
# (PEP 562).  Each access reads the module's current binding, so a name
# rebound on the module is rebound here too.  cli and pipeline call the
# layers through these names, so this table alone decides what loads when.
_LAZY_EXPORTS = {
    "fanofit": (
        "BreitWignerParameters",
        "FanoParameters",
        "FitResult",
        "breit_wigner_profile",
        "fano_profile",
        "fit",
        "q_consistency",
        "resonance_window",
    ),
    "scattering": (
        "CrossSectionCurve", "ScatteringPoint", "cross_section_curve", "elastic_window",
    ),
    "spectrum": (
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
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())


__version__ = "0.1.0"
