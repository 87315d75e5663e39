"""Models the tests share: a benchmark model built the way the library
builds it, from its case, and generated two-patch models."""

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from bezmortar import InterfaceSpec, MultiPatchModel
from bezmortar.benchmarks import BenchmarkCase, build_case, rect_patch
from bezmortar.coupling import InterfaceGeometryError
from bezmortar.splines import SIDES, Patch2D


def case_model(case_id: str, level: int, **settings):
    """``build_case`` of the case with these settings at a refinement level."""
    return build_case(BenchmarkCase(case_id, **settings), level)


# the master sits across the slave side; ``reversed`` turns it by 180
# degrees, so its interface side is the opposite one and runs backwards
_OFFSET = {"west": (-1, 0), "east": (1, 0), "south": (0, -1), "north": (0, 1)}
_OPPOSITE = {"west": "east", "east": "west", "south": "north", "north": "south"}


@st.composite
def two_patch_models(draw, unit_weights: bool = False):
    """A unit-square slave (patch 0) and a unit-square master (patch 1) across
    one of its sides, each of degree 1-3 with 1-3 elements per direction, the
    master possibly turned, at dual refinement 0-2.  Without ``unit_weights``
    every control point takes a weight in [0.5, 2]."""
    side = draw(st.sampled_from(sorted(SIDES)))
    turned = draw(st.booleans())
    ps = [draw(st.integers(1, 3)) for _ in range(2)]
    ns = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(2)]
    dx, dy = _OFFSET[side]
    slave = rect_patch(ps[0], *ns[0])
    master = rect_patch(ps[1], *ns[1], (dx, dx + 1.0), (dy, dy + 1.0))
    patches = []
    for patch, turn in ((slave, False), (master, turned)):
        w = patch.weights if unit_weights else np.reshape(
            draw(st.lists(st.floats(0.5, 2.0), min_size=patch.weights.size,
                          max_size=patch.weights.size)), patch.weights.shape)
        patches.append(Patch2D(patch.kvs, patch.points[::-1, ::-1] if turn else patch.points, w))
    master_side = side if turned else _OPPOSITE[side]
    spec = InterfaceSpec(master=(1, master_side), slave=(0, side), reversed=turned)
    try:
        return MultiPatchModel(patches, [spec], draw(st.integers(0, 2)))
    except InterfaceGeometryError:
        # the phi projection may stop at a speed jump of a rational C0 edge;
        # that model has no cell stream (test_coupling covers the failure)
        reject()
