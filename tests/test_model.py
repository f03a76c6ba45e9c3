import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihalo.errors import ConfigurationError, PoleProximityError
from trihalo.model import (
    NUCLEON_MASS,
    ChannelLabel,
    PairChannel,
    PoleKind,
    SystemConfig,
    boron19_config,
    default_c20_config,
    epsilon2_from_scattering_length,
    parse_system_config,
    pole_momentum,
    propagator_residue,
    reduced_mass,
    resolve_channel,
    resolve_config,
    scattering_length_from_pole,
    two_body_propagator,
    two_body_propagator_subtracted,
    unitary_boson_config,
)

def nc(eps2=250.0, beta=1.0, a=None, kind=PoleKind.bound):
    return PairChannel(
        ChannelLabel.neutron_core, kind, beta_inv_fm=beta,
        epsilon2_keV=eps2, scattering_length_fm=a,
    )


def test_reduced_mass_examples():
    cfg = default_c20_config()
    assert reduced_mass(cfg, ChannelLabel.neutron_core) == pytest.approx(
        939.565 * 18 / 19, rel=1e-12
    )
    assert abs(reduced_mass(cfg, ChannelLabel.neutron_core) - 890.11) < 0.01
    assert reduced_mass(cfg, ChannelLabel.neutron_neutron) == 939.565 / 2


def test_reduced_mass_a1_symmetry():
    cfg = replace(default_c20_config(), core_mass_number=1)
    assert reduced_mass(cfg, ChannelLabel.neutron_core) == pytest.approx(
        reduced_mass(cfg, ChannelLabel.neutron_neutron), rel=1e-14
    )


@given(st.integers(min_value=1, max_value=500))
def test_reduced_mass_below_lighter_mass(A):
    cfg = replace(default_c20_config(), core_mass_number=A)
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    assert 0 < mu < NUCLEON_MASS


def test_scattering_length_examples():
    mu = reduced_mass(default_c20_config(), ChannelLabel.neutron_core)
    a = scattering_length_from_pole(nc(250.0), mu)
    assert abs(a - 9.354) < 0.001
    a150 = scattering_length_from_pole(nc(150.0), mu)
    assert abs(a150 - 12.075) < 0.001
    assert scattering_length_from_pole(nc(0.0), mu) is None


@given(
    eps2=st.floats(min_value=1e-3, max_value=1e4),
    A=st.integers(min_value=1, max_value=50),
    kind=st.sampled_from([PoleKind.bound, PoleKind.virtual]),
)
@settings(max_examples=200)
def test_round_trip_a_eps2(eps2, A, kind):
    cfg = replace(default_c20_config(), core_mass_number=A)
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    a = scattering_length_from_pole(nc(eps2, kind=kind), mu)
    assert (a > 0) == (kind is PoleKind.bound)
    back = epsilon2_from_scattering_length(a, mu)
    assert abs(back - eps2) <= 1e-12 * eps2


def test_resolve_channel_consistency():
    mu = reduced_mass(default_c20_config(), ChannelLabel.neutron_core)
    good = resolve_channel(nc(250.0), mu)
    assert good.scattering_length_fm == pytest.approx(9.3536, abs=1e-3)
    # both supplied, inconsistent -> rejected, channel named
    with pytest.raises(ConfigurationError, match="neutron_core"):
        resolve_channel(nc(250.0, a=12.0), mu)
    # both supplied and consistent to 1e-6 -> accepted
    resolve_channel(nc(250.0, a=good.scattering_length_fm), mu)
    with pytest.raises(ConfigurationError):
        resolve_channel(nc(None), mu)


def test_pair_channel_rejects_a_string_pole_kind():
    # a string compares unequal to every PoleKind: "bound" was taken as a
    # virtual pole (a = -9.3536 fm, threshold 0) without an error
    with pytest.raises(ConfigurationError, match="neutron_core: pole_kind .*'bound'"):
        PairChannel(ChannelLabel.neutron_core, "bound", 1.0, epsilon2_keV=250.0)


def test_pair_channel_rejects_a_string_label():
    # the label check comes first: the range check's message reads label.value
    with pytest.raises(ConfigurationError, match="label .*'neutron_core'"):
        PairChannel("neutron_core", PoleKind.bound, -1.0)


def test_pair_channel_sign_validation():
    with pytest.raises(ConfigurationError):
        nc(a=-5.0, kind=PoleKind.bound)
    with pytest.raises(ConfigurationError):
        nc(a=+5.0, kind=PoleKind.virtual)
    with pytest.raises(ConfigurationError):
        nc(beta=-1.0)


_BUILDS = {
    "beta_inv_fm": lambda v: nc(beta=v),
    "epsilon2_keV": lambda v: resolve_channel(nc(eps2=v), 500.0),
    "scattering_length_fm": lambda v: resolve_channel(nc(eps2=None, a=v), 500.0),
    "core_mass_number": lambda v: SystemConfig(
        core_mass_number=v, nc_channel=nc(),
        nn_channel=replace(nc(), label=ChannelLabel.neutron_neutron),
    ),
}


@pytest.mark.parametrize(
    "key, value",
    [(key, v) for key in _BUILDS for v in (math.nan, math.inf, -math.inf)]
    # finite but beyond what the model's float arithmetic can carry
    + [
        ("beta_inv_fm", 1e300),
        ("epsilon2_keV", 5e-324),
        ("scattering_length_fm", 1e-300),
        ("scattering_length_fm", 1e300),
    ],
)
def test_non_finite_values_are_config_errors(key, value):
    # NaN fails every comparison, so a check written as "x <= 0 is bad"
    # would let it through
    with pytest.raises(ConfigurationError):
        _BUILDS[key](value)


def test_propagator_residue_limit():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    ch = cfg.nc_channel
    R = propagator_residue(ch, mu)
    eps2 = ch.epsilon2_keV / 1000.0
    for dz in [1e-5, 1e-7, 1e-9]:
        z = -eps2 + dz
        val = two_body_propagator(ch, mu, z) * (z + eps2)
        assert val.real == pytest.approx(R, rel=1e-3 + dz / eps2 * 10)
    assert R > 0


def test_propagator_real_below_pole():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    z = np.linspace(-5.0, -0.3, 40)
    tau = two_body_propagator(cfg.nc_channel, mu, z)
    assert np.allclose(tau.imag, 0.0, atol=1e-20)


def test_virtual_channel_has_no_physical_pole():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_neutron)
    z = np.linspace(-5.0, -1e-6, 5000)
    tau = two_body_propagator(cfg.nn_channel, mu, z).real
    assert np.all(np.isfinite(tau))
    assert np.all(np.sign(tau) == np.sign(tau[0]))  # no pole crossed


def test_propagator_unitarity_above_threshold():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    tau = two_body_propagator(cfg.nc_channel, mu, 0.5)
    assert abs(tau.imag) > 0


@given(
    x=st.floats(min_value=-4.0, max_value=4.0),
    y=st.floats(min_value=1e-3, max_value=4.0),
)
@settings(max_examples=100)
def test_propagator_schwarz_reflection(x, y):
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    z = complex(x, y)
    up = two_body_propagator(cfg.nc_channel, mu, z)
    dn = two_body_propagator(cfg.nc_channel, mu, z.conjugate())
    assert dn == pytest.approx(up.conjugate(), rel=1e-12)


def test_propagator_pole_proximity_error():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    with pytest.raises(PoleProximityError) as err:
        two_body_propagator(cfg.nc_channel, mu, -0.25)
    assert err.value.distance < 1e-13


def test_subtracted_propagator_matches_direct_difference():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    ch = cfg.nc_channel
    R = propagator_residue(ch, mu)
    eps2 = ch.epsilon2_keV / 1000.0
    for z in [-3.0, -0.8, -0.26]:
        direct = two_body_propagator(ch, mu, z) - R / (z + eps2)
        reg = two_body_propagator_subtracted(ch, mu, z)
        assert reg.real == pytest.approx(direct.real, rel=1e-8)
    # regular at the pole itself
    at_pole = two_body_propagator_subtracted(ch, mu, -eps2)
    assert np.isfinite(at_pole.real) and abs(at_pole.imag) < 1e-12


def test_parse_system_config_roundtrip_and_unknown_keys():
    frag = {
        "core_mass_number": 18,
        "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
        "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
    }
    cfg = parse_system_config(frag)
    assert cfg.nc_channel.scattering_length_fm == pytest.approx(9.3536, abs=1e-3)
    assert cfg.nn_channel.epsilon2_keV is not None
    bad = dict(frag)
    bad["typo_key"] = 1
    with pytest.raises(ConfigurationError, match="typo_key"):
        parse_system_config(bad)
    bad_ch = dict(frag)
    bad_ch["nc"] = {**frag["nc"], "oops": 2}
    with pytest.raises(ConfigurationError, match="oops"):
        parse_system_config(bad_ch)


def test_parse_system_config_inconsistent_pair():
    frag = {
        "core_mass_number": 18,
        "nc": {
            "pole": "bound",
            "epsilon2_keV": 250.0,
            "scattering_length_fm": 12.0,
            "beta_inv_fm": 1.0,
        },
        "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
    }
    with pytest.raises(ConfigurationError, match="neutron_core"):
        parse_system_config(frag)


def test_system_config_validation():
    ch = nc()
    with pytest.raises(ConfigurationError):
        SystemConfig(core_mass_number=0, nc_channel=ch, nn_channel=ch)
    with pytest.raises(ConfigurationError):
        # nn slot must carry the nn label
        SystemConfig(core_mass_number=18, nc_channel=ch, nn_channel=ch)


def test_pole_momentum_sign():
    cfg = default_c20_config()
    mu_nc = reduced_mass(cfg, ChannelLabel.neutron_core)
    mu_nn = reduced_mass(cfg, ChannelLabel.neutron_neutron)
    assert pole_momentum(cfg.nc_channel, mu_nc) > 0
    assert pole_momentum(cfg.nn_channel, mu_nn) < 0


def _hand_built(A, nc_kind, nc_beta, nn_beta, nc_eps2=None, nc_a=None, nn_a=-18.5):
    """A preset written out as the PairChannel/SystemConfig construction."""
    return resolve_config(
        SystemConfig(
            core_mass_number=A,
            nc_channel=PairChannel(
                ChannelLabel.neutron_core, nc_kind, beta_inv_fm=nc_beta,
                epsilon2_keV=nc_eps2, scattering_length_fm=nc_a,
            ),
            nn_channel=PairChannel(
                ChannelLabel.neutron_neutron, PoleKind.virtual, beta_inv_fm=nn_beta,
                scattering_length_fm=nn_a,
            ),
        )
    )


@pytest.mark.parametrize(
    "preset, expected",
    [
        (lambda: default_c20_config(), lambda: _hand_built(18, PoleKind.bound, 1.0, 1.0, 250.0)),
        (lambda: default_c20_config(150.0, 1.23),
         lambda: _hand_built(18, PoleKind.bound, 1.23, 1.0, 150.0)),
        (lambda: default_c20_config(np.int64(150), np.float64(1.23)),
         lambda: _hand_built(18, PoleKind.bound, 1.23, 1.0, 150.0)),
        (lambda: boron19_config(),
         lambda: _hand_built(17, PoleKind.virtual, 40.0, 40.0, nc_a=-179.0)),
        (lambda: boron19_config(-10.0),
         lambda: _hand_built(17, PoleKind.virtual, 40.0, 40.0, nc_a=-10.0)),
        (lambda: boron19_config(5.0),
         lambda: _hand_built(17, PoleKind.bound, 40.0, 40.0, nc_a=5.0)),
        (lambda: unitary_boson_config(),
         lambda: _hand_built(1, PoleKind.virtual, 16.0, 16.0, nc_a=-1.0e4, nn_a=-1.0e4)),
        (lambda: unitary_boson_config(-50.0, 8.0),
         lambda: _hand_built(1, PoleKind.virtual, 8.0, 8.0, nc_a=-50.0, nn_a=-50.0)),
    ],
    ids=[
        "c20", "c20-150-1.23", "c20-numpy-scalars", "boron19", "boron19-a-10",
        "boron19-bound", "boson", "boson-a-50-beta-8",
    ],
)
def test_preset_equals_hand_built_config(preset, expected):
    assert preset() == expected()


@pytest.mark.parametrize(
    "preset, match",
    [
        (lambda: default_c20_config(math.nan), "system.nc.epsilon2_keV"),
        (lambda: default_c20_config(250.0, None), "system.nc.beta_inv_fm"),
        (lambda: boron19_config(math.nan), "system.nc.scattering_length_fm"),
        (lambda: boron19_config(None), "system.nc.scattering_length_fm"),
        (lambda: boron19_config(True), "system.nc.scattering_length_fm"),
        (lambda: boron19_config("-179"), "system.nc.scattering_length_fm"),
        (lambda: unitary_boson_config(-50.0, math.nan), "system.nc.beta_inv_fm"),
        (lambda: unitary_boson_config(None), "system.nc.scattering_length_fm"),
        (lambda: unitary_boson_config(50.0), "virtual pole requires"),
    ],
)
def test_preset_rejects_bad_arguments(preset, match):
    with pytest.raises(ConfigurationError, match=match):
        preset()
