import numpy as np
import pytest

from trihalo.model import default_c20_config, unitary_boson_config
from trihalo.pipeline import DEFAULT_GRID_COUNT, DEFAULT_MAP_SCALE
from trihalo.quadrature import build_grid
from trihalo.spectrum import calibrate_range_parameter, find_trimers


@pytest.fixture(scope="session")
def grid():
    return build_grid(DEFAULT_GRID_COUNT, DEFAULT_MAP_SCALE)


@pytest.fixture(scope="session")
def calibrated_c20(grid):
    """20C template with beta_nc tuned so eps2*(1) = 220 keV."""
    return calibrate_range_parameter(
        default_c20_config(), grid, target_epsilon2_star_keV=220.0
    )


@pytest.fixture(scope="session")
def unitary_boson_spectrum():
    """Converged ladder of the near-unitary identical-boson system."""
    g = build_grid(160, 0.03)
    return find_trimers(
        unitary_boson_config(), g, search_window=(1e-6, 1e9), max_states=6
    )
