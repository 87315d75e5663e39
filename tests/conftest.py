import numpy as np
import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers


class SourceFreeProvider(providers.HypothesisProvider):
    """Hypothesis's own provider without the literals of loaded local modules.

    The default provider draws some integers and floats from a pool of the
    literals in every loaded module outside site-packages and the test
    directories: the library's source, and whatever else the run has
    imported.  An edit to a number in ``src/``, or another set of loaded
    modules, then changes which examples every generated test draws.  This
    provider draws its constants from hypothesis's fixed global pool only,
    and never reads the shared cache that also holds the local pool, so a
    test's examples are a function of the test alone.  It overrides the
    private ``_maybe_draw_constant`` of hypothesis 6.155.
    """

    def _maybe_draw_constant(self, choice_type, constraints, *, p=0.05):
        if self._random.random() > p:
            return None
        pool = [c for c in providers.GLOBAL_CONSTANTS.set_for_type(choice_type)
                if providers.choice_permitted(c, constraints)]
        return self._random.choice(pool) if pool else None


providers.AVAILABLE_PROVIDERS["source-free"] = SourceFreeProvider

# generated-input tests run the same bounded examples every time, whatever
# the library's source; pytest --hypothesis-profile=bezmortar-200 runs 200
settings.register_profile("bezmortar", derandomize=True, max_examples=30, deadline=None,
                          database=None, backend="source-free")
settings.register_profile("bezmortar-200", settings.get_profile("bezmortar"), max_examples=200)
settings.load_profile("bezmortar")

from bezmortar import InterfaceSpec, MultiPatchModel
from bezmortar.benchmarks import rect_patch
from cases import case_model


@pytest.fixture(scope="session")
def demo_model():
    """Stacked two-patch model (3x2 slave below a 2x2 master), refined once."""
    return case_model("square-demo", 0)


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
