import numpy as np
import pytest

from hyperpolate import Dataset, search_hyperpolation


@pytest.fixture(scope="session")
def ripple_1d_dataset():
    x = np.arange(-40.0, 41.0)
    return Dataset(x[:, None], np.cos(np.sqrt(x**2 + 400.0)))


@pytest.fixture(scope="session")
def cone_1d_dataset():
    x = np.arange(-20.0, 21.0)
    return Dataset(x[:, None], np.sqrt(x**2 + 1.0))


@pytest.fixture(scope="session")
def jittered_line():
    """The line (t, 0), t = -1000..1000, with the sample at t = 0 moved to
    (0, 5e-6): off the fitted line, but below the fit's relative cut-off."""
    t = np.arange(-1000.0, 1001.0)
    locations = np.column_stack([t, np.zeros_like(t)])
    locations[1000] = (0.0, 5e-6)
    return Dataset(locations, locations[:, 0])


@pytest.fixture(scope="session")
def ripple_search(ripple_1d_dataset):
    """Full ripple search with timing; shared across tests (it is the slow one)."""
    import time

    t0 = time.perf_counter()
    candidates = search_hyperpolation(ripple_1d_dataset)
    return candidates, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cone_search(cone_1d_dataset):
    import time

    t0 = time.perf_counter()
    candidates = search_hyperpolation(cone_1d_dataset)
    return candidates, time.perf_counter() - t0
