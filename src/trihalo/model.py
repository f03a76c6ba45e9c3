"""System configuration and two-body (dimer) relations.

Everything downstream consumes the objects defined here: physical
constants, the two separable s-wave pair channels (n-core and n-n), and
the two-body t-matrix denominator tau(z) built from the rational form
factor g(p) = 1/(p^2 + beta^2).

Unit convention: configuration objects carry external units (keV, fm,
fm^-1); all functions that do arithmetic convert to natural units
internally (energies and momenta in MeV, hbar*c = 1) and convert back at
the boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, PoleProximityError

KEV_PER_MEV = 1000.0


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar*c in MeV*fm and the nucleon mass in MeV/c^2."""

    hbar_c: float = 197.327
    nucleon_mass: float = 939.565

    def __post_init__(self):
        if self.hbar_c <= 0 or self.nucleon_mass <= 0:
            raise ConfigurationError("physical constants must be positive")


class ChannelLabel(enum.Enum):
    neutron_core = "neutron_core"
    neutron_neutron = "neutron_neutron"


class PoleKind(enum.Enum):
    bound = "bound"
    virtual = "virtual"


class UnitaryLimit:
    """Marker for a divergent scattering length (epsilon2 -> 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNITARY_LIMIT"


UNITARY_LIMIT = UnitaryLimit()


@dataclass(frozen=True)
class PairChannel:
    """One separable s-wave pair interaction.

    Either epsilon2_keV (pole position relative to the pair threshold,
    magnitude) or scattering_length_fm may be supplied; resolve_channel
    fills in the missing one through the zero-range relation
    |a| = hbar_c / sqrt(2 mu eps2).
    """

    label: ChannelLabel
    pole_kind: PoleKind
    beta_inv_fm: float
    epsilon2_keV: float | None = None
    scattering_length_fm: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 < self.beta_inv_fm < math.inf):
            raise ConfigurationError(
                f"{self.label.value}: range_parameter_beta must be finite and > 0"
            )
        if self.epsilon2_keV is not None and not (0 <= self.epsilon2_keV < math.inf):
            raise ConfigurationError(f"{self.label.value}: epsilon2 must be in [0, inf)")
        a = self.scattering_length_fm
        if a is not None:
            if self.pole_kind is PoleKind.bound and not (0 < a < math.inf):
                raise ConfigurationError(
                    f"{self.label.value}: bound pole requires 0 < scattering_length < inf"
                )
            if self.pole_kind is PoleKind.virtual and not (-math.inf < a < 0):
                raise ConfigurationError(
                    f"{self.label.value}: virtual pole requires -inf < scattering_length < 0"
                )


@dataclass(frozen=True)
class SystemConfig:
    """n + n + core system: mass number of the core plus both pair channels."""

    core_mass_number: int
    nc_channel: PairChannel
    nn_channel: PairChannel
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not (1 <= self.core_mass_number < math.inf):
            raise ConfigurationError("core_mass_number must be finite and >= 1")
        if self.nc_channel.label is not ChannelLabel.neutron_core:
            raise ConfigurationError("nc_channel must carry the neutron_core label")
        if self.nn_channel.label is not ChannelLabel.neutron_neutron:
            raise ConfigurationError("nn_channel must carry the neutron_neutron label")

    def channel(self, label: ChannelLabel) -> PairChannel:
        return (
            self.nc_channel if label is ChannelLabel.neutron_core else self.nn_channel
        )


def reduced_mass(config: SystemConfig, pair: ChannelLabel) -> float:
    """Reduced mass of the pair in MeV/c^2 (core mass = A * m_n)."""
    m_n = config.constants.nucleon_mass
    if pair is ChannelLabel.neutron_neutron:
        return m_n / 2.0
    A = config.core_mass_number
    return m_n * A / (A + 1.0)


def scattering_length_from_pole(
    channel: PairChannel, mu: float, constants: PhysicalConstants | None = None
) -> float | UnitaryLimit:
    """Zero-range |a| = hbar_c / sqrt(2 mu eps2), signed by pole_kind (fm).

    Returns the UNITARY_LIMIT marker when epsilon2 = 0.
    """
    constants = constants or PhysicalConstants()
    if channel.epsilon2_keV is None:
        raise ConfigurationError(f"{channel.label.value}: epsilon2 not set")
    if channel.epsilon2_keV == 0.0:
        return UNITARY_LIMIT
    eps2_mev = channel.epsilon2_keV / KEV_PER_MEV
    a = constants.hbar_c / math.sqrt(2.0 * mu * eps2_mev)
    return a if channel.pole_kind is PoleKind.bound else -a


def epsilon2_from_scattering_length(
    a_fm: float, mu: float, constants: PhysicalConstants | None = None
) -> float:
    """Inverse of scattering_length_from_pole: eps2 in keV from a in fm."""
    constants = constants or PhysicalConstants()
    if a_fm == 0:
        raise ConfigurationError("scattering length must be nonzero")
    return constants.hbar_c**2 / (2.0 * mu * a_fm**2) * KEV_PER_MEV


def resolve_channel(
    channel: PairChannel, mu: float, constants: PhysicalConstants | None = None
) -> PairChannel:
    """Fill in whichever of (epsilon2, a) is missing; cross-check if both given.

    Both given and inconsistent beyond 1e-6 relative is an error.
    """
    constants = constants or PhysicalConstants()
    e2, a = channel.epsilon2_keV, channel.scattering_length_fm
    if e2 is None and a is None:
        raise ConfigurationError(
            f"{channel.label.value}: need epsilon2_keV or scattering_length_fm"
        )
    if e2 is not None and a is not None:
        e2_from_a = epsilon2_from_scattering_length(a, mu, constants)
        if abs(e2_from_a - e2) > 1e-6 * max(abs(e2), abs(e2_from_a)):
            raise ConfigurationError(
                f"{channel.label.value}: epsilon2_keV={e2} inconsistent with "
                f"scattering_length_fm={a} (implies {e2_from_a:.6g} keV)"
            )
        return channel
    if e2 is None:
        e2 = epsilon2_from_scattering_length(a, mu, constants)
        return replace(channel, epsilon2_keV=e2)
    a_or_marker = scattering_length_from_pole(channel, mu, constants)
    if a_or_marker is UNITARY_LIMIT:
        return channel  # a stays None; downstream must use kappa = 0
    return replace(channel, scattering_length_fm=a_or_marker)


def resolve_config(config: SystemConfig) -> SystemConfig:
    """Resolve both channels of a SystemConfig."""
    mu_nc = reduced_mass(config, ChannelLabel.neutron_core)
    mu_nn = reduced_mass(config, ChannelLabel.neutron_neutron)
    return replace(
        config,
        nc_channel=resolve_channel(config.nc_channel, mu_nc, config.constants),
        nn_channel=resolve_channel(config.nn_channel, mu_nn, config.constants),
    )


def pole_momentum(
    channel: PairChannel, mu: float, constants: PhysicalConstants | None = None
) -> float:
    """Signed pole momentum kappa_B in MeV: +sqrt(2 mu eps2) bound, - virtual."""
    constants = constants or PhysicalConstants()
    if channel.epsilon2_keV is None:
        raise ConfigurationError(f"{channel.label.value}: epsilon2 not set")
    kappa = math.sqrt(2.0 * mu * channel.epsilon2_keV / KEV_PER_MEV)
    return kappa if channel.pole_kind is PoleKind.bound else -kappa


def two_body_propagator(
    channel: PairChannel,
    mu: float,
    z,
    constants: PhysicalConstants | None = None,
):
    """t-matrix denominator tau(z) for the separable channel, z in MeV.

    Pole at z = -eps2 on the physical sheet for bound channels only;
    above threshold the principal branch of kappa = sqrt(-2 mu z)
    supplies the unitarity cut. Accepts scalar or ndarray z (complex ok).

    Closed factored form (no cancellation near the pole is hidden;
    evaluation *at* the pole raises PoleProximityError):

        tau(z) = -beta (beta+kB)^2 (beta+kappa)^2
                 / [2 pi^2 mu (kappa - kB)(kappa + kB + 2 beta)]
    """
    constants = constants or PhysicalConstants()
    beta = channel.beta_inv_fm * constants.hbar_c
    kB = pole_momentum(channel, mu, constants)
    z = np.asarray(z, dtype=complex)
    kappa = np.sqrt(-2.0 * mu * z)
    if channel.pole_kind is PoleKind.bound and kB > 0.0:
        # pole part split off analytically: stable arbitrarily close to
        # the pole (the factored direct form loses precision there to
        # kappa - kB cancellation)
        eps2 = channel.epsilon2_keV / KEV_PER_MEV
        dist = float(np.min(np.abs(z + eps2)))
        if dist < 1e-13 * eps2:
            raise PoleProximityError(
                f"tau evaluated {dist:.3e} MeV from its pole at z = -{eps2:.6g} MeV",
                dist,
            )
        residue = propagator_residue(channel, mu, constants)
        out = two_body_propagator_subtracted(channel, mu, z, constants)
        out = np.asarray(out) + residue / (z + eps2)
        return out if out.ndim else complex(out)
    num = -beta * (beta + kB) ** 2 * (beta + kappa) ** 2
    den = 2.0 * math.pi**2 * mu * (kappa - kB) * (kappa + kB + 2.0 * beta)
    out = num / den
    return out if out.ndim else complex(out)


def propagator_residue(
    channel: PairChannel, mu: float, constants: PhysicalConstants | None = None
) -> float:
    """Residue R of tau(z) at the bound-state pole: tau ~ R/(z + eps2)."""
    constants = constants or PhysicalConstants()
    if channel.pole_kind is not PoleKind.bound:
        raise ConfigurationError("residue defined only for bound channels")
    beta = channel.beta_inv_fm * constants.hbar_c
    kB = pole_momentum(channel, mu, constants)
    return beta * kB * (beta + kB) ** 3 / (4.0 * math.pi**2 * mu**2)


def two_body_propagator_subtracted(
    channel: PairChannel,
    mu: float,
    z,
    constants: PhysicalConstants | None = None,
):
    """tau(z) - R/(z + eps2), analytically regular at the bound pole.

    Used by the scattering solver's principal-value subtraction; the
    factored form below has no numerical cancellation even when z sits
    on top of the pole:

        tau_reg = -beta (beta+kB)^2 P(kappa)
                  / [2 pi^2 mu (kappa + kB + 2 beta)(kappa + kB)],
        P(kappa) = kappa^2 + 2(kB+beta) kappa + kB^2 + 3 beta kB + beta^2.
    """
    constants = constants or PhysicalConstants()
    if channel.pole_kind is not PoleKind.bound:
        return two_body_propagator(channel, mu, z, constants)
    beta = channel.beta_inv_fm * constants.hbar_c
    kB = pole_momentum(channel, mu, constants)
    z = np.asarray(z, dtype=complex)
    kappa = np.sqrt(-2.0 * mu * z)
    P = kappa**2 + 2.0 * (kB + beta) * kappa + kB**2 + 3.0 * beta * kB + beta**2
    num = -beta * (beta + kB) ** 2 * P
    den = 2.0 * math.pi**2 * mu * (kappa + kB + 2.0 * beta) * (kappa + kB)
    out = num / den
    return out if out.ndim else complex(out)


# --- JSON configuration fragment -------------------------------------------

_CHANNEL_KEYS = {"pole", "epsilon2_keV", "scattering_length_fm", "beta_inv_fm"}
_SYSTEM_KEYS = {"core_mass_number", "nc", "nn"}


def config_number(value, name: str, integer: bool = False):
    """A configuration value as a finite float, or as an int if integer.

    Bools, strings, null, non-finite and (for integer) non-integral
    values raise ConfigurationError naming the key: nothing is cast or
    truncated silently.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigurationError(f"{name}: {value!r} is out of range") from None
    if not math.isfinite(x):
        raise ConfigurationError(f"{name}: must be finite, got {value!r}")
    if not integer:
        return x
    if not x.is_integer():
        raise ConfigurationError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _parse_channel(label: ChannelLabel, frag: dict) -> PairChannel:
    if not isinstance(frag, dict):
        raise ConfigurationError(f"{label.value}: channel fragment must be an object")
    unknown = set(frag) - _CHANNEL_KEYS
    if unknown:
        raise ConfigurationError(
            f"{label.value}: unknown key(s) {sorted(unknown)}"
        )
    try:
        kind = PoleKind(frag["pole"])
    except KeyError:
        raise ConfigurationError(f"{label.value}: missing 'pole'") from None
    except ValueError:
        raise ConfigurationError(
            f"{label.value}: pole must be 'bound' or 'virtual', got {frag['pole']!r}"
        ) from None
    if "beta_inv_fm" not in frag:
        raise ConfigurationError(f"{label.value}: missing 'beta_inv_fm'")

    def number(key):
        return config_number(frag[key], f"{label.value}.{key}") if key in frag else None

    return PairChannel(
        label=label,
        pole_kind=kind,
        beta_inv_fm=number("beta_inv_fm"),
        epsilon2_keV=number("epsilon2_keV"),
        scattering_length_fm=number("scattering_length_fm"),
    )


def parse_system_config(frag: dict) -> SystemConfig:
    """Build and resolve a SystemConfig from its JSON fragment.

    Unknown keys are rejected by name; a channel given both epsilon2_keV
    and scattering_length_fm must be consistent to 1e-6 relative.
    """
    if not isinstance(frag, dict):
        raise ConfigurationError("system fragment must be an object")
    unknown = set(frag) - _SYSTEM_KEYS
    if unknown:
        raise ConfigurationError(f"system: unknown key(s) {sorted(unknown)}")
    for key in _SYSTEM_KEYS:
        if key not in frag:
            raise ConfigurationError(f"system: missing '{key}'")
    config = SystemConfig(
        core_mass_number=config_number(
            frag["core_mass_number"], "system.core_mass_number", integer=True
        ),
        nc_channel=_parse_channel(ChannelLabel.neutron_core, frag["nc"]),
        nn_channel=_parse_channel(ChannelLabel.neutron_neutron, frag["nn"]),
    )
    return resolve_config(config)


def default_c20_config(epsilon2_keV: float = 250.0, beta_nc: float = 1.0) -> SystemConfig:
    """n+n+18C with a bound n-core channel and the standard virtual nn channel."""
    return resolve_config(
        SystemConfig(
            core_mass_number=18,
            nc_channel=PairChannel(
                ChannelLabel.neutron_core,
                PoleKind.bound,
                beta_inv_fm=beta_nc,
                epsilon2_keV=epsilon2_keV,
            ),
            nn_channel=PairChannel(
                ChannelLabel.neutron_neutron,
                PoleKind.virtual,
                beta_inv_fm=1.0,
                scattering_length_fm=-18.5,
            ),
        )
    )
