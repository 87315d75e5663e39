"""Multi-patch isogeometric analysis with locally condensed interface coupling.

The package couples nonconforming tensor-product NURBS patches through a
local dual basis built from element extraction and projection.  Interface
constraints can be condensed out of an assembled system or compiled directly
into weakly continuous element extraction operators; both routes produce
identical linear systems.
"""

from .coupling import (
    CompositionalMap,
    InterfaceCoupling,
    InterfaceGeometryError,
    InterfaceSpec,
    assemble_coupling,
    assemble_saddle,
    build_interface_coupling,
    build_phi,
    condense,
    project_master_knots,
    refine_dual_space,
)
from .dualbasis import (
    DualBasis,
    bernstein_gramian,
    dual_extraction,
    projection_weights,
    reconstruction_operator,
)
from .fem import (
    MaterialModel,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neo_hookean,
    assemble_neumann,
    assemble_poisson,
    boundary_projection,
    dirichlet_rows,
    l2_error,
    newton_load_stepping,
)
from .linsys import AssembledSystem, NumericalError, linear_solve
from .model import Cell, CellGroup, ExtractedMesh, MultiPatchModel
from .splines import (
    KnotVector,
    OutOfDomainError,
    Patch2D,
    bernstein_derivatives,
    bezier_extraction,
    greville_abscissae,
    refinement_operator,
    uniform_open_knots,
)

__version__ = "0.1.0"
