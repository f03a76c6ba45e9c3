import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihalo.errors import ConfigurationError
from trihalo.quadrature import MomentumGrid, build_grid


def lorentzian_sq_error(count, scale=1.0):
    g = build_grid(count, scale)
    val = float(np.dot(g.weights, g.nodes**2 / (g.nodes**2 + 1.0) ** 2))
    return abs(val - math.pi / 4.0) / (math.pi / 4.0)


def test_nodes_increasing_positive():
    g = build_grid(64, 1.0)
    assert len(g.nodes) == 64
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.nodes > 0)
    assert np.all(g.weights > 0)


def test_closed_form_quarter_pi():
    assert lorentzian_sq_error(64) <= 1e-8


def test_refinement_monotone():
    # strictly decreasing until the error bottoms out at machine precision
    errors = [lorentzian_sq_error(n) for n in (8, 16, 32, 64, 128)]
    for e1, e2 in zip(errors, errors[1:]):
        if e1 < 1e-13:
            break
        assert e1 > e2
    assert errors[-1] < 1e-13


def test_count_validation():
    with pytest.raises(ConfigurationError):
        build_grid(7, 1.0)
    with pytest.raises(ConfigurationError):
        build_grid(16, 0.0)
    g = build_grid(16, 0.1)
    with pytest.raises(ConfigurationError):
        MomentumGrid(g.nodes, g.weights[:8])


@given(
    count=st.integers(min_value=8, max_value=200),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=60)
def test_construction_invariants(count, scale):
    g = build_grid(count, scale)
    assert g.count == count
    assert np.all(np.isfinite(g.nodes)) and np.all(g.nodes > 0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)


def test_determinism():
    a = build_grid(48, 0.7)
    b = build_grid(48, 0.7)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
