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
    default_c20_config,
    parse_system_config,
    reduced_mass,
    resolve_config,
    scattering_length_from_pole,
    two_body_propagator,
)
from .quadrature import MomentumGrid, build_grid
from .scattering import (
    CrossSectionCurve,
    ScatteringPoint,
    cross_section_curve,
)
from .spectrum import (
    KernelMatrix,
    ResonantPairs,
    ScaleFactor,
    ThreeBodySpectrum,
    ThresholdScan,
    boron19_config,
    build_kernel,
    calibrate_range_parameter,
    efimov_scale_factor,
    find_trimers,
    threshold_scan,
    unitary_boson_config,
)

__version__ = "0.1.0"
