"""Models the tests share: a benchmark model built the way the library
builds it, from its case, and generated two- and three-patch models."""

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



def corner_chain(slave: str, master: str, degrees, counts, dual_refine: int):
    """Three unit squares with unit weights.  Patch 1 is slave on side
    ``slave``, to patch 0 across it, and master on the adjacent side
    ``master``, to patch 2 across that, so its master edge runs through the
    first interface's slave corner.  Patch k has degree ``degrees[k]`` and
    ``counts[k]`` elements per direction."""
    patches = [rect_patch(p, n1, n2, (dx, dx + 1.0), (dy, dy + 1.0))
               for p, (n1, n2), (dx, dy) in zip(degrees, counts,
                                                (_OFFSET[slave], (0, 0), _OFFSET[master]))]
    specs = [InterfaceSpec(master=(0, _OPPOSITE[slave]), slave=(1, slave)),
             InterfaceSpec(master=(1, master), slave=(2, _OPPOSITE[master]))]
    return MultiPatchModel(patches, specs, dual_refine)


@st.composite
def corner_chain_models(draw):
    """A :func:`corner_chain` of drawn sides, with degrees 1-3, a master's at
    most its slave's, 1-3 elements per direction and dual refinement 0-2."""
    slave = draw(st.sampled_from(sorted(SIDES)))
    master = draw(st.sampled_from([s for s in sorted(SIDES) if SIDES[s][0] != SIDES[slave][0]]))
    degrees = sorted(draw(st.integers(1, 3)) for _ in range(3))
    counts = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(3)]
    return corner_chain(slave, master, degrees, counts, draw(st.integers(0, 2)))
