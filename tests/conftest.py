import numpy as np
import pytest
from hypothesis import settings

# generated-input tests run the same bounded examples every time
settings.register_profile("bezmortar", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("bezmortar")

from bezmortar import InterfaceSpec, MultiPatchModel
from bezmortar.benchmarks import gen_demo_two_patch, rect_patch


@pytest.fixture(scope="session")
def demo_model():
    """Stacked two-patch model (3x2 slave below a 2x2 master), refined once."""
    return gen_demo_two_patch(dual_refine=1)


@pytest.fixture(scope="session")
def side_by_side():
    """Unit square split at x = 1/2 (master 2x2, slave 3x3), refined once."""
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 3, 3, (0.5, 1.0), (0.0, 1.0))
    return MultiPatchModel(
        [master, slave], [InterfaceSpec(master=(0, "east"), slave=(1, "west"))], 1
    )


def random_open_knots(rng, p, n_interior=3, multiplicity_ok=False):
    interior = np.sort(rng.uniform(0.05, 0.95, n_interior))
    vals = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return vals
