import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given

from bezmortar import (
    InterfaceSpec,
    MultiPatchModel,
    assemble_linear_elasticity,
    assemble_neumann,
    assemble_poisson,
    condense,
    dirichlet_rows,
    linear_solve,
)
from bezmortar.benchmarks import (
    CASES,
    PLATE_MATERIAL,
    BenchmarkCase,
    build_case,
    rect_patch,
    solve_case,
)
from bezmortar.linsys import AssembledSystem
from bezmortar.mesh_io import dump_mesh, load_mesh, mesh_document
from bezmortar.fem import evaluate_cell
from bezmortar.splines import SIDES, _element_tables, side_index
from cases import case_model, two_patch_models
from reference import bernstein_change, bspline_basis, find_span, weak_document_system
from test_splines import bernstein_on

# ------------------------------------------------- the weak-operator report
#
# MultiPatchModel.weak_mesh compiles interface continuity into the slave
# elements' extraction operators; the report reads one emitted cell back in
# the factored form of the paper, next to the operators it was built from.


def interface_operator_report(model: MultiPatchModel) -> dict[str, np.ndarray]:
    """Named operators of one refined subelement of the first interface.

    Collects, for the first slave element crossed by a refined-interface
    knot (the first element when no refinement crossed any) and its first
    subcell, the coupling matrix, its localized block, the refined and parent
    extraction operators in both directions and the Bernstein transformation
    matrix, all read from the knot vectors' stacked extraction tables.
    The tensor weak operator is the cell ``weak_mesh()`` emits there, pulled
    back to parent Bernstein coordinates along the interface, with rows in
    transverse-major order (the slave functions by transverse, then
    interface index, then the master functions along the master edge) and
    columns transverse-major; ``weak_1d`` is its master rows on the edge's
    transverse Bernstein column group; ``coupling`` is the interface's
    ``G``.  The regression tests pin these matrices to exact rationals.
    """
    coup = model.couplings[0]
    pi, side = coup.spec.slave
    mp, ms = coup.spec.master
    patch = model.patches[pi]
    axis_f, at_end = SIDES[side]
    kv_i, kv_f = patch.kvs[1 - axis_f], patch.kvs[axis_f]
    p_i = kv_i.degree
    bp_i, _, C_i = _element_tables(kv_i)
    bp_r, first_r, C_r = _element_tables(coup.trace.kv)
    # the first refined breakpoint inside a slave element ends its first subcell
    cuts = np.setdiff1d(bp_r, bp_i)
    element = int(np.searchsorted(bp_i, cuts[0])) - 1 if cuts.size else 0
    lo, hi = bp_i[element], bp_i[element + 1]
    a, b = lo, (cuts[0] if cuts.size else hi)
    M = bernstein_change(p_i, (lo, hi), (a, b))
    e_r = np.searchsorted(bp_r, 0.5 * (a + b)) - 1
    mkv = coup.phi.master.kv
    m_first = coup.phi.master.table(np.array([coup.phi(0.5 * (a + b))]), 0)[0][0, 0]
    G = coup.G
    G_local = G[first_r[e_r] : first_r[e_r] + p_i + 1, m_first : m_first + mkv.degree + 1]
    # transverse factor: the element layer adjacent to the interface
    bp_f, _, C_f = _element_tables(kv_f)
    e_f = len(bp_f) - 2 if at_end else 0
    xi = [0.0, 0.0]
    xi[axis_f], xi[1 - axis_f] = 0.5 * (bp_f[e_f] + bp_f[e_f + 1]), 0.5 * (a + b)
    mesh = model.weak_mesh()
    pos = mesh.cell_index(np.array([pi]), np.array([xi[0]]), np.array([xi[1]]))[0]
    g = next(g for g in mesh.groups if pos in g.index)
    c = np.searchsorted(g.index, pos)
    grid = model.grids[pi]
    order = np.concatenate([(grid.T if axis_f else grid).reshape(-1),
                            model.grids[mp][side_index(ms)]])
    rank = {dof: k for k, dof in enumerate(order.tolist()) if dof >= 0}
    rows = np.argsort([rank[dof] for dof in g.rows[c].tolist()], kind="stable")
    op = g.ophom[c][rows].reshape(len(rows), patch.degrees[0] + 1, patch.degrees[1] + 1)
    if axis_f:
        op = op.transpose(0, 2, 1)
    op = op @ np.linalg.inv(M).T
    tensor = op.reshape(len(rows), -1)
    edge = kv_f.degree if at_end else 0
    n_int = kv_f.degree * (p_i + 1)
    return {
        "coupling": G,
        "coupling_local": G_local,
        "refined_extraction": C_r[e_r],
        "transform": M,
        "weak_1d": op[n_int:, edge],
        "parent_extraction": C_i[element],
        "transverse_extraction": C_f[e_f],
        "tensor_operator": tensor,
    }


# ------------------------------------------------- reference formulas
#
# The weakly continuous element operators spelled out factor by factor for
# one element; interface_operator_report reads the emitted cell, which must
# equal them.


def weak_interface_operator(G_local: np.ndarray, extraction: np.ndarray) -> np.ndarray:
    """Element operator expressing master functions in slave Bernstein form.

    ``G_local`` is the coupling matrix restricted to the interface functions
    active on the element (rows) and the master functions active on its image
    (columns); ``extraction`` is the slave element extraction operator.  The
    result maps element Bernstein values to master basis values, so a
    conforming interface (identity coupling block) returns the extraction
    operator unchanged.
    """
    return np.asarray(G_local).T @ np.asarray(extraction)


def refined_weak_interface_operator(G_local: np.ndarray, refined_extraction: np.ndarray,
                                    transform: np.ndarray) -> np.ndarray:
    """Weak operator of a refined subelement in parent Bernstein coordinates.

    ``transform`` is the Bernstein transformation matrix from the parent
    element interval to the subelement interval; with no refinement it is the
    identity and the plain interface operator is recovered.
    """
    M = np.asarray(transform)
    return np.asarray(G_local).T @ np.asarray(refined_extraction) @ np.linalg.inv(M).T


def tensor_weak_patch_operator(transverse: np.ndarray, trace_row: int,
                               standard_1d: np.ndarray, weak_1d: np.ndarray) -> np.ndarray:
    """Two-dimensional weak element operator from its 1D factors.

    The transverse operator is split into interior rows and the single row
    supported on the interface; only the interface row group is modified:

        [ interior_rows x standard_1d ]
        [ trace_row     x weak_1d     ]

    Columns follow transverse-major tensor ordering.
    """
    tr = np.asarray(transverse)
    interior = np.delete(np.arange(tr.shape[0]), trace_row)
    top = np.kron(tr[interior], np.asarray(standard_1d))
    bottom = np.kron(tr[[trace_row]], np.asarray(weak_1d))
    return np.vstack([top, bottom])


# Exact rational values of the demo-configuration operators, derived by hand:
# the coupling matrix is the knot-insertion refinement operator from the
# master interface onto the refined slave interface, the extraction operators
# come from repeated knot insertion, and the weak operator is their product
# with the inverse-transpose interval transformation.
G_LOCAL = np.array([[1 / 3, 2 / 3, 0], [0, 2 / 3, 1 / 3], [0, 1 / 3, 2 / 3]])
REFINED_EXTRACTION = np.array([[1 / 3, 0, 0], [2 / 3, 1, 0.5], [0, 0, 0.5]])
TRANSFORM = np.array([[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.5, 0.25]])
WEAK_1D = np.array([[1 / 9, -1 / 9, 1 / 9], [2 / 3, 2 / 3, 0], [2 / 9, 4 / 9, 8 / 9]])
PARENT_EXTRACTION = np.array([[0.5, 0, 0], [0.5, 1, 0.5], [0, 0, 0.5]])
TRANSVERSE = np.array([[0.5, 0, 0], [0.5, 1, 0], [0, 0, 1]])
TENSOR_9 = np.array(
    [
        [1 / 4, 0, 0, 0, 0, 0, 0, 0, 0],
        [1 / 4, 1 / 2, 1 / 4, 0, 0, 0, 0, 0, 0],
        [0, 0, 1 / 4, 0, 0, 0, 0, 0, 0],
        [1 / 4, 0, 0, 1 / 2, 0, 0, 0, 0, 0],
        [1 / 4, 1 / 2, 1 / 4, 1 / 2, 1, 1 / 2, 0, 0, 0],
        [0, 0, 1 / 4, 0, 0, 1 / 2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1 / 9, -1 / 9, 1 / 9],
        [0, 0, 0, 0, 0, 0, 2 / 3, 2 / 3, 0],
        [0, 0, 0, 0, 0, 0, 2 / 9, 4 / 9, 8 / 9],
    ]
)


def test_conforming_block_returns_extraction():
    C = np.array([[0.5, 0, 0], [0.5, 1, 0.5], [0, 0, 0.5]])
    assert np.allclose(weak_interface_operator(np.eye(3), C), C)


def test_unrefined_reduces_to_plain_operator():
    out = refined_weak_interface_operator(G_LOCAL, PARENT_EXTRACTION, np.eye(3))
    assert np.allclose(out, weak_interface_operator(G_LOCAL, PARENT_EXTRACTION))


def test_reference_operator_pipeline(demo_model):
    rep = interface_operator_report(demo_model)
    for key, expected in [
        ("coupling_local", G_LOCAL),
        ("refined_extraction", REFINED_EXTRACTION),
        ("transform", TRANSFORM),
        ("weak_1d", WEAK_1D),
        ("parent_extraction", PARENT_EXTRACTION),
        ("transverse_extraction", TRANSVERSE),
        ("tensor_operator", TENSOR_9),
    ]:
        assert np.abs(rep[key] - expected).max() <= 1e-14, key


def test_emitted_cell_equals_reference_formulas(demo_model):
    # the report reads weak_1d and the tensor operator from the cell
    # weak_mesh() emits; the factor formulas must give the same matrices
    rep = interface_operator_report(demo_model)
    weak_1d = refined_weak_interface_operator(rep["coupling_local"], rep["refined_extraction"],
                                              rep["transform"])
    tensor = tensor_weak_patch_operator(rep["transverse_extraction"], 2,
                                        rep["parent_extraction"], weak_1d)
    assert np.abs(rep["weak_1d"] - weak_1d).max() <= 1e-14
    assert np.abs(rep["tensor_operator"] - tensor).max() <= 1e-14


def test_tensor_operator_from_factors():
    out = tensor_weak_patch_operator(TRANSVERSE, 2, PARENT_EXTRACTION, WEAK_1D)
    assert np.abs(out - TENSOR_9).max() < 1e-14


def test_weak_operator_column_sums(demo_model):
    rep = interface_operator_report(demo_model)
    assert np.abs(rep["weak_1d"].sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(rep["tensor_operator"].sum(axis=0) - 1.0).max() < 1e-12
    for cell in demo_model.weak_mesh().cells:
        assert np.abs(cell.ophom.sum(axis=0) - 1.0).max() < 1e-12


def test_report_operator_matches_emitted_weak_cell(demo_model):
    # the reference tensor operator and the cell weak_mesh() emits on the
    # same subcell are the same functions, row for row by dof id
    rep = interface_operator_report(demo_model)
    coup = demo_model.couplings[0]
    (pi, _), (mp, ms) = coup.spec.slave, coup.spec.master
    grid = demo_model.grids[pi]
    # demo subcell: slave elements [1/3, 1/2] along the north side, [1/2, 1] across it
    x1 = np.linspace(1 / 3 + 1e-3, 0.5 - 1e-3, 4).repeat(4)
    x2 = np.tile(np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 4), 4)
    mesh = demo_model.weak_mesh()
    cell = mesh.cells[mesh.cell_index(np.array([pi]), np.array([0.4]), np.array([0.75]))[0]]
    assert np.allclose(cell.rect, ((1 / 3, 0.5), (0.5, 1.0)), rtol=0, atol=1e-15)
    # report rows: interior transverse functions x parent functions, then
    # the master functions active on the subcell's image
    m_first = find_span(coup.phi.master.kv, coup.phi(5 / 12)) - 2
    rows = [grid[1 + a1, 1 + a2] for a2 in range(2) for a1 in range(3)]
    rows += list(demo_model.grids[mp][side_index(ms)][m_first : m_first + 3])
    B = np.einsum("qf,qi->qfi", bernstein_on(2, 0.5, 1.0, x2), bernstein_on(2, 1 / 3, 2 / 3, x1))
    ref = dict(zip(rows, (rep["tensor_operator"] @ B.reshape(len(x1), -1).T)))
    got = dict(zip(cell.rows, evaluate_cell(cell, x1, x2, grad=False)["basis"].T))
    zero = np.zeros(len(x1))
    for dof in set(ref) | set(got):
        assert np.abs(ref.get(dof, zero) - got.get(dof, zero)).max() <= 1e-14, dof


def test_pointwise_master_trace_identity(demo_model):
    # the weak operator evaluates the master basis through the slave element
    rep = interface_operator_report(demo_model)
    coup = demo_model.couplings[0]
    mkv = coup.phi.master.kv
    for xi in np.linspace(1 / 3 + 1e-9, 0.5 - 1e-9, 20):
        B = bernstein_on(2, 1 / 3, 2 / 3, xi)
        vals = rep["weak_1d"] @ B
        fm, Nm = bspline_basis(mkv, coup.phi(float(xi)))
        assert fm == 0
        assert np.abs(vals - Nm).max() < 1e-10


def test_weak_trace_sampling_both_sides(demo_model):
    # weak basis continuity: master trace equals the coupled combination of
    # refined slave traces along the whole interface
    coup = demo_model.couplings[0]
    G = coup.G
    rkv = coup.trace.kv
    mkv = coup.phi.master.kv
    for xi in np.linspace(0.001, 0.999, 50):
        fr, Nr = bspline_basis(rkv, float(xi))
        full = np.zeros(rkv.n)
        full[fr : fr + 3] = Nr
        fm, Nm = bspline_basis(mkv, coup.phi(float(xi)))
        ref = np.zeros(mkv.n)
        ref[fm : fm + 3] = Nm
        assert np.abs(G.T @ full - ref).max() < 1e-10


def test_dof_count_identity(demo_model):
    union = sum(p.shape[0] * p.shape[1] for p in demo_model.patches)
    slave_edge = demo_model.patches[0].shape[0]
    mesh = demo_model.weak_mesh()
    assert mesh.ndof == union - slave_edge
    # plain ints, so that counts serialize as JSON
    assert type(mesh.ndof) is int and type(demo_model.ndof_full) is int


def test_conforming_weak_mesh_is_standard():
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 2, 2, (0.5, 1.0), (0.0, 1.0))
    model = MultiPatchModel(
        [master, slave], [InterfaceSpec((0, "east"), (1, "west"))], 0
    )
    mesh = model.weak_mesh()
    for cell in mesh.cells:
        assert np.abs(cell.ophom.sum(axis=0) - 1.0).max() < 1e-12
        # identity coupling: operators stay 9-row standard tensor blocks
        assert cell.ophom.shape == (9, 9)


@pytest.mark.parametrize(
    "model_fn",
    [
        lambda: case_model("square-demo", 0),
        lambda: case_model("square-mixed", 0, dual_refine=0),
        lambda: case_model("square-mixed", 0, matched=False, p=3),
        lambda: case_model("square-mixed", 1, ratio=(3, 2), dual_refine=2),
        lambda: case_model("annulus", 0),
        lambda: case_model("plate-hole-2patch", 0),
        lambda: case_model("plate-hole-3patch", 0),
        lambda: case_model("plate-hole-2patch", 0, matched=False, dual_refine=2),
    ],
)
def test_weak_assembly_equals_condensed_mortar(model_fn):
    model = model_fn()
    P = model.P.toarray()
    n = model.n_retained
    assert np.array_equal(P[:n], np.eye(n))
    for ids, coup in zip(model.trace_ids, model.couplings):
        mp, ms = coup.spec.master
        master = model.grids[mp][side_index(ms)]
        assert np.abs(P[ids] - coup.G @ P[master]).max() <= 1e-15
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(model.weak_mesh())
    rel = spla.norm(red.K - weak.K) / spla.norm(weak.K)
    assert rel < 1e-12


# ---------------------------------------------------------- the file alone


def _voigt(material):
    lam, mu = material.lam, material.mu
    return np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("case_id", [c for c, row in CASES.items() if row.linear is not None])
def test_weak_mesh_file_alone_gives_the_library_system(case_id, level):
    # a reader that knows only the README's format section and the patches'
    # NURBS maps assembles the library's K and f from a dumped and reloaded
    # document; with the library's boundary rows and loads, its solution is
    # the weak route's
    case = BenchmarkCase(case_id)
    problem = CASES[case_id].linear
    model = build_case(case, level)
    doc = load_mesh(dump_mesh(mesh_document(model, weak=True)))
    K, f = weak_document_system(doc, problem.ncomp, problem.fields and problem.fields[2],
                                _voigt(PLATE_MATERIAL))
    mesh = model.weak_mesh()
    system = problem.assemble(mesh)
    assert abs(K - system.K).max() <= 1e-14 * abs(system.K).max()
    assert np.abs(f - system.f).max() <= 1e-14 * max(np.abs(system.f).max(), 1e-300)
    f += assemble_neumann(mesh, problem.ncomp, problem.neumann)
    x = linear_solve(AssembledSystem(K, f),
                     dirichlet_rows(mesh, problem.ncomp, problem.dirichlet))
    ref = solve_case(case, level, "weak")["field"].values
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@given(two_patch_models())
def test_generated_weak_mesh_file_gives_the_library_stiffness(model):
    # random weights and reversed interfaces: the stored cells, read with the
    # patches' own NURBS maps, give the library's Poisson and elasticity K
    doc = load_mesh(dump_mesh(mesh_document(model, weak=True)))
    mesh = model.weak_mesh()
    want = assemble_poisson(mesh).K
    assert abs(weak_document_system(doc, 1)[0] - want).max() <= 1e-14 * abs(want).max()
    want = assemble_linear_elasticity(mesh, PLATE_MATERIAL).K
    K = weak_document_system(doc, 2, D=_voigt(PLATE_MATERIAL))[0]
    assert abs(K - want).max() <= 1e-14 * abs(want).max()


@given(two_patch_models())
def test_generated_weak_mesh_file_gives_the_library_load_and_solution(model):
    # the reader's Poisson load of a forcing is the library's, and so is its
    # solution with Dirichlet data on every side that no interface uses
    doc = load_mesh(dump_mesh(mesh_document(model, weak=True)))
    mesh = model.weak_mesh()
    forcing = lambda x, y: np.sin(3.0 * x) * y + 1.0
    want = assemble_poisson(mesh, forcing)
    K, f = weak_document_system(doc, 1, forcing)
    assert np.abs(f - want.f).max() <= 1e-14 * np.abs(want.f).max()
    used = {side for spec in model.interfaces for side in (spec.master, spec.slave)}
    rows = dirichlet_rows(mesh, 1, [(k, side, 0, lambda x, y: x - 2.0 * y)
                                    for k in range(2) for side in SIDES
                                    if (k, side) not in used])
    ref = linear_solve(want, rows)
    x = linear_solve(AssembledSystem(K, f), rows)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
