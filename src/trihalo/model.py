"""System configuration and two-body (dimer) relations.

Everything downstream consumes the objects defined here: the physical
constants HBAR_C and NUCLEON_MASS, the two separable s-wave pair
channels (n-core and n-n), the two-body t-matrix denominator tau(z)
built from the rational form factor g(p) = 1/(p^2 + beta^2), and the
system presets (18C, 19B, near-unitary bosons).

Unit convention: configuration objects carry external units (keV, fm,
fm^-1); all functions that do arithmetic convert to natural units
internally (energies and momenta in MeV, hbar*c = 1) and convert back at
the boundary.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, PoleProximityError

KEV_PER_MEV = 1000.0
HBAR_C = 197.327  # MeV fm
NUCLEON_MASS = 939.565  # MeV/c^2
# The propagator raises beta*hbar_c (MeV) to the fifth power, which
# overflows beyond about 1e58 fm^-1; nuclear values are 0.1 to 10.
BETA_MAX_INV_FM = 1e50


class ChannelLabel(enum.Enum):
    neutron_core = "neutron_core"
    neutron_neutron = "neutron_neutron"


class PoleKind(enum.Enum):
    bound = "bound"
    virtual = "virtual"


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
        if not (0 < self.beta_inv_fm <= BETA_MAX_INV_FM):
            raise ConfigurationError(
                f"{self.label.value}: range_parameter_beta must be in "
                f"(0, {BETA_MAX_INV_FM:g}] fm^-1, got {self.beta_inv_fm!r}"
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
    if pair is ChannelLabel.neutron_neutron:
        return NUCLEON_MASS / 2.0
    A = config.core_mass_number
    return NUCLEON_MASS * A / (A + 1.0)


def scattering_length_from_pole(channel: PairChannel, mu: float) -> float | None:
    """Zero-range |a| = hbar_c / sqrt(2 mu eps2), signed by pole_kind (fm).

    Returns None at epsilon2 = 0, the unitary limit, as a resolved
    PairChannel stores it.
    """
    if channel.epsilon2_keV is None:
        raise ConfigurationError(f"{channel.label.value}: epsilon2 not set")
    if channel.epsilon2_keV == 0.0:
        return None
    eps2_mev = channel.epsilon2_keV / KEV_PER_MEV
    a = HBAR_C / math.sqrt(2.0 * mu * eps2_mev)
    return a if channel.pole_kind is PoleKind.bound else -a


def epsilon2_from_scattering_length(a_fm: float, mu: float) -> float:
    """Inverse of scattering_length_from_pole: eps2 in keV from a in fm."""
    if a_fm == 0:
        raise ConfigurationError("scattering length must be nonzero")
    return HBAR_C**2 / (2.0 * mu * a_fm**2) * KEV_PER_MEV


def resolve_channel(channel: PairChannel, mu: float) -> PairChannel:
    """Fill in whichever of (epsilon2, a) is missing; cross-check if both given.

    Both given and inconsistent beyond 1e-6 relative is an error, and so
    is a value whose conversion leaves the float range (|a| = 1e300 fm).
    """
    e2, a = channel.epsilon2_keV, channel.scattering_length_fm
    if e2 is None and a is None:
        raise ConfigurationError(
            f"{channel.label.value}: need epsilon2_keV or scattering_length_fm"
        )
    try:
        if e2 is not None and a is not None:
            e2_from_a = epsilon2_from_scattering_length(a, mu)
            if abs(e2_from_a - e2) > 1e-6 * max(abs(e2), abs(e2_from_a)):
                raise ConfigurationError(
                    f"{channel.label.value}: epsilon2_keV={e2} inconsistent with "
                    f"scattering_length_fm={a} (implies {e2_from_a:.6g} keV)"
                )
            return channel
        if e2 is None:
            e2 = epsilon2_from_scattering_length(a, mu)
            return replace(channel, epsilon2_keV=e2)
        a = scattering_length_from_pole(channel, mu)  # None: unitary, kappa = 0
    except (OverflowError, ZeroDivisionError):
        msg = f"{channel.label.value}: epsilon2 <-> scattering length leaves the float range"
        raise ConfigurationError(msg) from None
    return replace(channel, scattering_length_fm=a)


def resolve_config(config: SystemConfig) -> SystemConfig:
    """Resolve both channels of a SystemConfig."""
    mu_nc = reduced_mass(config, ChannelLabel.neutron_core)
    mu_nn = reduced_mass(config, ChannelLabel.neutron_neutron)
    return replace(
        config,
        nc_channel=resolve_channel(config.nc_channel, mu_nc),
        nn_channel=resolve_channel(config.nn_channel, mu_nn),
    )


def pole_momentum(channel: PairChannel, mu: float) -> float:
    """Signed pole momentum kappa_B in MeV: +sqrt(2 mu eps2) bound, - virtual."""
    if channel.epsilon2_keV is None:
        raise ConfigurationError(f"{channel.label.value}: epsilon2 not set")
    kappa = math.sqrt(2.0 * mu * channel.epsilon2_keV / KEV_PER_MEV)
    return kappa if channel.pole_kind is PoleKind.bound else -kappa


def two_body_propagator(channel: PairChannel, mu: float, z):
    """t-matrix denominator tau(z) for the separable channel, z in MeV.

    Pole at z = -eps2 on the physical sheet for bound channels only;
    above threshold the principal branch of kappa = sqrt(-2 mu z)
    supplies the unitarity cut. Accepts scalar or ndarray z (complex ok).

    tau is its regular part (two_body_propagator_subtracted) plus, for a
    bound channel, the dimer pole R/(z + eps2), which keeps it stable
    arbitrarily close to the pole; evaluation *at* the pole raises
    PoleProximityError.
    """
    out = np.asarray(two_body_propagator_subtracted(channel, mu, z))
    if channel.pole_kind is PoleKind.bound and pole_momentum(channel, mu) > 0.0:
        eps2 = channel.epsilon2_keV / KEV_PER_MEV
        z = np.asarray(z, dtype=complex)
        dist = float(np.min(np.abs(z + eps2)))
        if dist < 1e-13 * eps2:
            raise PoleProximityError(
                f"tau evaluated {dist:.3e} MeV from its pole at z = -{eps2:.6g} MeV",
                dist,
            )
        out = out + propagator_residue(channel, mu) / (z + eps2)
    return out if out.ndim else complex(out)


def propagator_residue(channel: PairChannel, mu: float) -> float:
    """Residue R of tau(z) at the bound-state pole: tau ~ R/(z + eps2)."""
    if channel.pole_kind is not PoleKind.bound:
        raise ConfigurationError("residue defined only for bound channels")
    beta = channel.beta_inv_fm * HBAR_C
    kB = pole_momentum(channel, mu)
    try:
        cube = (beta + kB) ** 3
    except OverflowError:  # kB past about 5e102 MeV: R leaves the float range
        cube = math.inf
    return beta * kB * cube / (4.0 * math.pi**2 * mu**2)


def two_body_propagator_subtracted(channel: PairChannel, mu: float, z):
    """tau(z) - R/(z + eps2), analytically regular at the bound pole.

    With no pole on the physical sheet (virtual, or bound at kB = 0,
    where R = 0) this is tau itself, in its direct factored form

        tau = -beta (beta+kB)^2 (beta+kappa)^2
              / [2 pi^2 mu (kappa - kB)(kappa + kB + 2 beta)];

    for a bound channel the factored form below has no cancellation even
    on top of the pole, where the direct form loses kappa - kB:

        tau_reg = -beta (beta+kB)^2 P(kappa)
                  / [2 pi^2 mu (kappa + kB + 2 beta)(kappa + kB)],
        P(kappa) = kappa^2 + 2(kB+beta) kappa + kB^2 + 3 beta kB + beta^2.
    """
    beta = channel.beta_inv_fm * HBAR_C
    kB = pole_momentum(channel, mu)
    z = np.asarray(z, dtype=complex)
    kappa = np.sqrt(-2.0 * mu * z)
    if channel.pole_kind is PoleKind.bound and kB > 0.0:
        P = kappa**2 + 2.0 * (kB + beta) * kappa + kB**2 + 3.0 * beta * kB + beta**2
        num = -beta * (beta + kB) ** 2 * P
        den = 2.0 * math.pi**2 * mu * (kappa + kB + 2.0 * beta) * (kappa + kB)
    else:
        num = -beta * (beta + kB) ** 2 * (beta + kappa) ** 2
        den = 2.0 * math.pi**2 * mu * (kappa - kB) * (kappa + kB + 2.0 * beta)
    out = num / den
    return out if out.ndim else complex(out)


# --- JSON configuration fragments ------------------------------------------

REQUIRED = object()  # schema default of a key that must be present


def number(lo=-math.inf, hi=math.inf, integer: bool = False):
    """Schema reader: a finite number in [lo, hi], as an int if integer.

    Bools, strings, null, non-finite and (for integer) non-integral
    values raise ConfigurationError naming the key: nothing is cast or
    truncated silently.
    """
    def read(value, name):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{name}: expected a number, got {value!r}")
        try:
            x = float(value)
        except OverflowError:
            raise ConfigurationError(f"{name}: {value!r} is out of range") from None
        if not math.isfinite(x):
            raise ConfigurationError(f"{name}: must be finite, got {value!r}")
        if integer:
            if not x.is_integer():
                raise ConfigurationError(f"{name}: expected an integer, got {value!r}")
            x = int(value)
        if not lo <= x <= hi:
            raise ConfigurationError(f"{name}: must be in [{lo:g}, {hi:g}], got {value!r}")
        return x
    return read


def choice(*options):
    """Schema reader: one of the given strings."""
    def read(value, name):
        if value not in options:
            raise ConfigurationError(f"{name}: must be one of {options}, got {value!r}")
        return value
    return read


def read_fragment(frag, schema: dict, where: str) -> dict:
    """A JSON object checked against schema, as a dict of read values.

    schema maps each key to (reader, default), reader(value, name) giving
    the checked value, or to a nested schema for a sub-object (absent
    means {}).  Unknown keys and absent REQUIRED keys are errors.
    """
    if not isinstance(frag, dict):
        raise ConfigurationError(f"{where}: must be an object")
    unknown = set(frag) - set(schema)
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    out = {}
    for key, rule in schema.items():
        name = f"{where}.{key}"
        if isinstance(rule, dict):
            out[key] = read_fragment(frag.get(key, {}), rule, name)
        elif key in frag:
            out[key] = rule[0](frag[key], name)
        elif rule[1] is REQUIRED:
            raise ConfigurationError(f"{where}: missing '{key}'")
        else:
            out[key] = rule[1]
    return out


# Physical ranges (beta > 0, sign of a, A >= 1) are checked by PairChannel
# and SystemConfig, for library callers too; the schemas give only types.
_CHANNEL_SCHEMA = {
    "pole": (choice("bound", "virtual"), REQUIRED),
    "beta_inv_fm": (number(), REQUIRED),
    "epsilon2_keV": (number(), None),
    "scattering_length_fm": (number(), None),
}


def _channel(label: ChannelLabel):
    """Schema reader of one pair channel's fragment."""
    def read(frag, where):
        c = read_fragment(frag, _CHANNEL_SCHEMA, where)
        return PairChannel(label, PoleKind(c.pop("pole")), **c)
    return read


_SYSTEM_SCHEMA = {
    "core_mass_number": (number(integer=True), REQUIRED),
    "nc": (_channel(ChannelLabel.neutron_core), REQUIRED),
    "nn": (_channel(ChannelLabel.neutron_neutron), REQUIRED),
}


def parse_system_config(frag: dict, where: str = "system") -> SystemConfig:
    """Build and resolve a SystemConfig from its JSON fragment.

    Unknown keys are rejected by name; a channel given both epsilon2_keV
    and scattering_length_fm must be consistent to 1e-6 relative.  Also a
    schema reader, so where names the fragment in error messages.
    """
    s = read_fragment(frag, _SYSTEM_SCHEMA, where)
    return resolve_config(SystemConfig(s["core_mass_number"], s["nc"], s["nn"]))


def default_c20_config(epsilon2_keV: float = 250.0, beta_nc: float = 1.0) -> SystemConfig:
    """n+n+18C with a bound n-core channel and the standard virtual nn channel."""
    return parse_system_config({
        "core_mass_number": 18,
        "nc": {"pole": "bound", "beta_inv_fm": beta_nc, "epsilon2_keV": epsilon2_keV},
        "nn": {"pole": "virtual", "beta_inv_fm": 1.0, "scattering_length_fm": -18.5},
    })


def boron19_config(a_nc_fm: float = -179.0, beta_inv_fm: float = 40.0) -> SystemConfig:
    """n+n+17B with a near-threshold virtual n-core channel.

    Large beta plays the role of a zero-range regulator; the physics is
    controlled by the scattering lengths.
    """
    # the reader rejects a non-number by name; it must get that far
    pole = "virtual" if isinstance(a_nc_fm, numbers.Real) and a_nc_fm < 0 else "bound"
    return parse_system_config({
        "core_mass_number": 17,
        "nc": {"pole": pole, "beta_inv_fm": beta_inv_fm, "scattering_length_fm": a_nc_fm},
        "nn": {"pole": "virtual", "beta_inv_fm": beta_inv_fm, "scattering_length_fm": -18.5},
    })


def unitary_boson_config(a_fm: float = -1.0e4, beta_inv_fm: float = 16.0) -> SystemConfig:
    """A=1 with all three pairs identical and |a| near the unitary limit."""
    pair = {"pole": "virtual", "beta_inv_fm": beta_inv_fm, "scattering_length_fm": a_fm}
    return parse_system_config({"core_mass_number": 1, "nc": pair, "nn": pair})
