import numpy as np
import pytest

from casimir2d.quadrature import build_grid


@pytest.fixture(scope="session")
def edge_grid():
    """Workhorse grid for 2.5D (edge) scenes at unit separations."""
    return build_grid(96, 48, p_scale=0.5)


@pytest.fixture(scope="session")
def kappa_grid():
    """Pure-2D grid; wider alpha map (see quadrature module notes)."""
    return build_grid(96, 48, p_scale=0.5, map_scale=6.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
