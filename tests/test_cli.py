import argparse
import dataclasses
import gc
import json
import math
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bezmortar
from bezmortar import cli, coupling, mesh_io
from bezmortar.cli import _parser, main
from bezmortar.mesh_io import (
    CSV_COLUMNS,
    MeshFormatError,
    dump_mesh,
    load_mesh,
    mesh_document,
    model_from_document,
    validate_mesh_document,
)
from bezmortar import InterfaceSpec, MultiPatchModel
from bezmortar.benchmarks import CASES, LARGEDEF_PRESSURE, BenchmarkCase, build_case, rect_patch
from bezmortar.coupling import MAX_DUAL_REFINE
from cases import case_model
from reference import bernstein_change

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


# ----------------------------------------------------------------- mesh file


def test_roundtrip_byte_identity(tmp_path):
    model = case_model("square-demo", 0)
    text = dump_mesh(mesh_document(model, weak=True))
    doc = load_mesh(text)
    assert dump_mesh(doc) == text


def test_negative_zero_survives_a_round_trip():
    doc = mesh_document(case_model("square-demo", 0, dual_refine=0))
    doc["patches"][0]["control_points"][0][0] = -0.0
    text = dump_mesh(doc)
    assert "[-0, 0]" in text
    loaded = load_mesh(text)
    assert math.copysign(1.0, loaded["patches"][0]["control_points"][0][0]) == -1.0
    assert dump_mesh(loaded) == text


def test_document_rebuilds_model():
    model = case_model("square-demo", 0)
    doc = json.loads(dump_mesh(mesh_document(model)))
    rebuilt = model_from_document(doc)
    assert rebuilt.n_retained == model.n_retained
    G = rebuilt.couplings[0].G
    assert np.abs(G - model.couplings[0].G).max() < 1e-14


def test_weak_payload_contains_reference_tensor_operator():
    # the first subcell of the split slave element carries the reference 9x9
    # operator, stored in cell-local Bernstein coordinates; pulling the
    # interface direction back onto the parent element must reproduce the
    # transverse-major reference up to row/column ordering
    model = case_model("square-demo", 0)
    doc = mesh_document(model, weak=True)
    # [1/3, 1/2] in the coordinates of the parent element [1/3, 2/3]
    M = bernstein_change(2, (1 / 3, 2 / 3), (1 / 3, 0.5))
    pullback = np.kron(np.linalg.inv(M).T, np.eye(3))
    found = False
    for cell in doc["weak_cells"]:
        op = np.asarray(cell["matrix"])
        if op.shape != (9, 9) or abs(cell["rect"][0][0] - 1 / 3) > 1e-12:
            continue
        if abs(cell["rect"][0][1] - 0.5) > 1e-9:
            continue
        parent_op = op @ pullback
        a = np.sort(np.round(parent_op, 11).reshape(-1))
        b = np.sort(np.round(TENSOR_9, 11).reshape(-1))
        if np.allclose(a, b, atol=1e-10):
            found = True
    assert found


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda d: d.update(format="nope"), "bad-format"),
        (lambda d: d["patches"][0]["knots"][0].__setitem__(0, -0.5), "knots-not-open"),
        (lambda d: d["patches"][0]["knots"][0].reverse(), "knots-not-nondecreasing"),
        (lambda d: d["patches"][0]["weights"].__setitem__(0, -1.0), "weights-nonpositive"),
        (lambda d: d["patches"][0]["control_points"].pop(), "control-net-mismatch"),
        (lambda d: d["interfaces"][0].__setitem__("master", [0, "up"]), "bad-side"),
    ],
)
def test_schema_error_codes(mutate, code):
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        validate_mesh_document(doc)
    assert err.value.code == code


def test_non_string_side_is_a_schema_error():
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    doc["interfaces"][0]["slave"] = [0, ["north"]]
    with pytest.raises(MeshFormatError) as err:
        validate_mesh_document(doc)
    assert err.value.code == "bad-side"


def _interior_knot_p_plus_2(d):
    # the unit square slave (p = 2) with 1/2 four times in its first knot
    # vector, its net at the Greville points, so the interface still meets
    patch = d["patches"][0]
    patch["knots"][0] = [0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1]
    patch["control_points"] = [[x, y] for x in (0, 0.25, 0.5, 0.5, 0.5, 0.75, 1)
                               for y in (0, 0.25, 0.75, 1)]
    patch["weights"] = [1.0] * 28


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda d: d["patches"][0]["control_points"][0].__setitem__(0, float("nan")),
         "non-finite"),
        (lambda d: d["patches"][0]["weights"].__setitem__(0, float("inf")), "non-finite"),
        (lambda d: d["patches"][0]["knots"].pop(), "bad-format"),
        (lambda d: d["patches"][0]["weights"].__setitem__(0, "1.0"), "bad-format"),
        (lambda d: d["patches"][0]["control_points"].__setitem__(0, [0.0]), "bad-format"),
        (lambda d: d["interfaces"][0]["master"].__setitem__(0, 0.5), "bad-interface"),
        (lambda d: d.update(dual_refine=1.7), "bad-dual-refine"),
        (lambda d: d.update(dual_refine=True), "bad-dual-refine"),
        (lambda d: d.update(dual_refine="x"), "bad-dual-refine"),
        (lambda d: d.update(dual_refine=-1), "bad-dual-refine"),
        (lambda d: d["interfaces"][0].update(reversed="false"), "bad-interface"),
        (lambda d: d.update(patches=[]), "bad-format"),
        (lambda d: [q.append(0.0) for q in d["patches"][0]["control_points"]], "bad-format"),
        (lambda d: d["patches"][0]["weights"].pop(), "control-net-mismatch"),
        (lambda d: d["interfaces"][0].pop("master"), "bad-interface"),
        (lambda d: d["interfaces"][0]["master"].__setitem__(0, 7), "bad-interface"),
        (lambda d: d["patches"][0]["knots"].__setitem__(0, [0.0] * 8), "knots-not-open"),
        (lambda d: d["patches"][0]["knots"].__setitem__(0, [0, 0, 0, 0, 0.5, 1, 1, 1]),
         "knots-not-open"),
        (_interior_knot_p_plus_2, "knots-not-open"),
        (lambda d: d["interfaces"][0].update(reversed=True), "bad-interface"),
        (lambda d: d.update(dual_refine=MAX_DUAL_REFINE + 1), "bad-dual-refine"),
    ],
    ids=["nan-point", "inf-weight", "one-knot-vector", "string-weight", "ragged-point",
         "fractional-patch-index", "fractional-dual-refine", "bool-dual-refine",
         "string-dual-refine", "negative-dual-refine", "string-reversed", "no-patches",
         "three-coordinates", "missing-weight", "no-master", "master-patch-out-of-range",
         "all-knots-equal", "end-knot-p+2-times", "interior-knot-p+2-times", "reversed-interface",
         "dual-refine-above-the-bound"],
)
def test_loader_rejects_malformed_input_with_a_code(mutate, code, monkeypatch):
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    mutate(doc)
    # each is refused before an interface space is refined
    monkeypatch.setattr(coupling, "refine_dual_space", None)
    with pytest.raises(MeshFormatError) as err:
        model_from_document(doc)
    assert err.value.code == code


@pytest.mark.parametrize("degrees", [[2.5, 2], ["2", 2], [True, 2], [0, 2]],
                         ids=["fractional", "string", "bool", "zero"])
def test_loader_rejects_degrees_that_are_not_counts(degrees):
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    doc["patches"][0]["degrees"] = degrees
    with pytest.raises(MeshFormatError) as err:
        load_mesh(json.dumps(doc))
    assert err.value.code == "bad-degree"


def _own_slave(d):
    d["interfaces"][0]["master"] = list(d["interfaces"][0]["slave"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(interfaces=5),
        lambda d: d.update(interfaces=None),
        lambda d: d["interfaces"].append(dict(d["interfaces"][0])),
        _own_slave,
    ],
    ids=["number", "null", "duplicate", "own-slave"],
)
def test_loader_rejects_bad_interface_structure(mutate):
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        load_mesh(json.dumps(doc))
    assert err.value.code == "bad-interface"
    with pytest.raises(MeshFormatError) as err:
        model_from_document(doc)
    assert err.value.code == "bad-interface"


def test_cyclic_interfaces_are_a_bad_interface():
    # each patch is master on the side the other interface makes slave: the
    # schema holds, but no interface can be condensed first
    doc = json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0))))
    (spec,) = doc["interfaces"]
    doc["interfaces"].append({"master": spec["slave"], "slave": spec["master"],
                              "reversed": False})
    load_mesh(json.dumps(doc))
    with pytest.raises(MeshFormatError) as err:
        model_from_document(doc)
    assert err.value.code == "bad-interface"


def test_slave_on_both_sides_of_one_element_is_a_bad_interface():
    # a patch one element across, slave on its south and north sides: each
    # element would touch two slave interfaces, which no stream can hold
    patches = [rect_patch(2, 2, 2, (0.0, 1.0), (y, y + 1.0)) for y in (0.0, 2.0)]
    patches.insert(1, rect_patch(2, 3, 1, (0.0, 1.0), (1.0, 2.0)))
    doc = json.loads(dump_mesh(mesh_document(MultiPatchModel(
        patches, [InterfaceSpec(master=(0, "north"), slave=(1, "south"))]))))
    doc["interfaces"].append({"master": [2, "south"], "slave": [1, "north"],
                              "reversed": False})
    load_mesh(json.dumps(doc))
    with pytest.raises(MeshFormatError, match="two slave interfaces") as err:
        model_from_document(doc)
    assert err.value.code == "bad-interface"


def test_model_reads_no_weak_cells():
    # the loader checks every field; the model builder only those it reads
    doc = _weak_document()
    doc["weak_cells"] = "junk"
    with pytest.raises(MeshFormatError):
        validate_mesh_document(doc)
    assert model_from_document(doc).n_retained == case_model("square-demo", 0, dual_refine=0).n_retained


def _weak_document():
    return json.loads(dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0), weak=True)))


def _ragged_negative_rows(d):
    d["weak_cells"][0]["rows"] = [-1]
    d["weak_cells"][0]["matrix"] = [[1.0, 2.0], [3.0]]


def _three_columns_of_nine(d):
    # a p = 2 patch has nine Bernstein functions; the entries are not read
    cell = d["weak_cells"][4]
    assert d["patches"][cell["patch"]]["degrees"] == [2, 2]
    cell["matrix"] = [["x", None, True] for _ in cell["rows"]]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(weak_cells="junk"),
        lambda d: d.update(weak_dofs=-3),
        lambda d: d["weak_cells"][0].update(patch=7),
        _ragged_negative_rows,
        lambda d: d["weak_cells"][-1]["matrix"].pop(),
        lambda d: d["weak_cells"][-1]["matrix"][0].pop(),
        lambda d: d["weak_cells"][1]["rows"].__setitem__(0, d["weak_dofs"]),
        lambda d: d["weak_cells"][1]["rows"].__setitem__(0, True),
        lambda d: d["weak_cells"][2]["rect"].pop(),
        lambda d: d["weak_cells"][2]["rect"][1].__setitem__(0, "0"),
        lambda d: d["weak_cells"][2].update(rect=[[1, 0], [0, 1]]),
        lambda d: d["weak_cells"][2]["rect"][0].__setitem__(1, d["weak_cells"][2]["rect"][0][0]),
        lambda d: d["weak_cells"][2]["rect"][1].__setitem__(1, 10**400),
        lambda d: d["weak_cells"][2].pop("matrix"),
        lambda d: d.pop("weak_dofs"),
        lambda d: d["weak_cells"].append(5),
        _three_columns_of_nine,
    ],
    ids=["junk-cells", "negative-dofs", "patch-out-of-range", "negative-row-ragged-matrix",
         "missing-matrix-row", "short-matrix-row", "row-past-dofs", "bool-row",
         "one-rect-interval", "string-rect-bound", "reversed-rect", "empty-rect-interval",
         "rect-bound-past-the-float-range", "no-matrix", "cells-without-dofs",
         "cell-not-an-object", "three-columns-of-nine"],
)
def test_loader_rejects_malformed_weak_cells(mutate):
    doc = _weak_document()
    validate_mesh_document(doc)
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        load_mesh(json.dumps(doc))
    assert err.value.code == "bad-weak-cell"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validator_refuses_a_non_finite_rect(bad):
    doc = _weak_document()
    doc["weak_cells"][3]["rect"][1][0] = bad
    with pytest.raises(MeshFormatError, match="weak cell 3: rect is not two finite") as err:
        validate_mesh_document(doc)
    assert err.value.code == "bad-weak-cell"


def test_bad_weak_cell_names_the_first_bad_cell():
    doc = _weak_document()
    doc["weak_cells"][3]["patch"] = 2
    doc["weak_cells"][5]["patch"] = -1
    with pytest.raises(MeshFormatError, match="weak cell 3: patch"):
        validate_mesh_document(doc)


def test_validator_accepts_an_empty_weak_mesh():
    doc = _weak_document()
    doc.update(weak_cells=[], weak_dofs=0)
    validate_mesh_document(doc)


def test_validator_accepts_the_array_matrices_of_a_new_document():
    doc = mesh_document(case_model("square-demo", 0), weak=True)
    assert all(isinstance(c["matrix"], np.ndarray) for c in doc["weak_cells"])
    validate_mesh_document(doc)
    # a file's list matrices and a document's arrays may sit side by side
    doc["weak_cells"][0]["matrix"] = doc["weak_cells"][0]["matrix"].tolist()
    validate_mesh_document(doc)


@pytest.mark.parametrize(
    "bad",
    [lambda m: m[0], lambda m: m[1:], lambda m: np.vstack([m, m[:1]]),
     lambda m: m.astype(np.float32), lambda m: m.astype(np.int64), lambda m: m[None],
     lambda m: m[:, :3], lambda m: np.hstack([m, m[:, :1]])],
    ids=["1-d", "missing-row", "extra-row", "float32", "int", "3-d", "three-columns",
         "extra-column"],
)
def test_validator_rejects_a_malformed_array_matrix(bad):
    doc = mesh_document(case_model("square-demo", 0), weak=True)
    doc["weak_cells"][2]["matrix"] = bad(doc["weak_cells"][2]["matrix"])
    with pytest.raises(MeshFormatError, match="weak cell 2: matrix") as err:
        validate_mesh_document(doc)
    assert err.value.code == "bad-weak-cell"


def _weak_mesh_bytes(model) -> list:
    return [getattr(g, f).tobytes() for g in model.weak_mesh().groups
            for f in ("index", "patch", "rect", "rows", "ophom")]


def test_document_matrices_are_read_only():
    model = case_model("square-demo", 0)
    before = _weak_mesh_bytes(model)
    doc = mesh_document(model, weak=True)
    for cell in doc["weak_cells"]:
        assert cell["matrix"].dtype == np.float64 and not cell["matrix"].flags.writeable
    with pytest.raises(ValueError):
        doc["weak_cells"][0]["matrix"][0, 0] = 1.0
    dump_mesh(doc)
    assert _weak_mesh_bytes(model) == before


# a number past the float range, such as 1e400, would read as infinity,
# which dump_mesh could not write back
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "2E+308"])
def test_loader_reports_non_finite_tokens(token):
    text = dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0), weak=True))
    for key in ('"weights": [', '"matrix": ['):
        bad = text.replace(key, key + token + ", ", 1)
        assert bad != text
        with pytest.raises(MeshFormatError) as err:
            load_mesh(bad)
        assert err.value.code == "non-finite"


def test_a_loaded_null_dumps_again():
    # the loader accepts null in meta, so the writer writes it back: a
    # document read from a file can always be written again, byte for byte
    doc = mesh_document(case_model("square-demo", 0), meta={"case": "square-demo"})
    text = dump_mesh(doc).replace('"case": "square-demo"', '"case": null')
    assert '"case": null' in text
    first = dump_mesh(load_mesh(text))
    assert first == text
    assert dump_mesh(load_mesh(first)) == first


def test_the_largest_float_reloads_to_the_same_bytes():
    # the edge of the float range is finite: it loads and dumps back unchanged
    text = dump_mesh(mesh_document(case_model("square-demo", 0, dual_refine=0), weak=True))
    edge = re.sub(r'("matrix": \[\s*\[)[^,]+', r"\g<1>1.7976931348623157e+308", text, count=1)
    assert edge != text
    assert dump_mesh(load_mesh(edge)) == edge


@pytest.mark.parametrize("text", ["", "{", '{"format": "bezmortar-mesh",}', "[1, 2"],
                         ids=["empty", "open-brace", "trailing-comma", "unclosed-list"])
def test_loader_rejects_malformed_json_with_a_code(text):
    with pytest.raises(MeshFormatError) as err:
        load_mesh(text)
    assert err.value.code == "bad-json"
    assert isinstance(err.value, ValueError)


def generic_dump(obj) -> str:
    """The mesh layout with every scalar formatted one by one."""

    def emit(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            items = [f'{pad}  "{k}": {emit(v, indent + 1)}' for k, v in obj.items()]
            return "{\n" + "".join(item + ",\n" for item in items[:-1]) + (
                items[-1] + "\n" if items else "") + pad + "}"
        if isinstance(obj, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in obj):
                return "[" + ", ".join(mesh_io._scalar(v) for v in obj) + "]"
            return "[\n" + ",\n".join(pad + "  " + emit(v, indent + 1) for v in obj) + (
                "\n" + pad + "]")
        return mesh_io._scalar(obj)

    return emit(obj, 0) + "\n"


_scalars = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-10**20, 10**20),
    st.booleans(), st.text(max_size=5),
)
_documents = st.recursive(
    st.lists(_scalars, max_size=6) | st.lists(st.floats(), max_size=6)
    | st.lists(st.integers(), max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("abcxyz_", min_size=1, max_size=4), inner, max_size=4),
    max_leaves=20,
)


def _dumped(dump, doc) -> str:
    """The text, or the error code of a document the writer refuses."""
    try:
        return dump(doc)
    except MeshFormatError as err:
        return err.code


@given(st.dictionaries(st.text("abcxyz_", min_size=1, max_size=4), _documents, max_size=4))
def test_typed_writer_matches_generic_emitter(doc):
    assert _dumped(dump_mesh, doc) == _dumped(generic_dump, doc)


_SPECIALS = [[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324], [1e17, -0.0, 0.0]]
_STRIDED = np.arange(35.0).reshape(5, 7) / 3


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "matrix",
    [
        _SPECIALS,
        [[1.0], [2.5, 3.0, 4.0], [0.5, 0.25]],
        [[1.0, 2.0], [], [3.0]],
        [[1.0, True], [2.0, 0.5]],
        [[np.float64(1.5), 2.0], [3.0, 0.1]],
        ([0.1, -0.0], (0.2, 0.0)),
        np.array(_SPECIALS),
        np.array([[-0.0, 0.0], [-0.0, -0.0]]),
        np.array([[5e-324, -5e-324, 2.2250738585072014e-308]]),
        np.array([[1e17], [-1e17], [1e16 + 2]]),
        np.array([[1.0, True], [2.0, 0.5]]),
        np.array([[np.float64(1.5), 2.0], [3.0, 0.1]]),
        np.array(([0.1, -0.0], (0.2, 0.0))),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        _STRIDED.T,
        _STRIDED[::2, 1::3],
        _read_only(_STRIDED.copy()),
    ],
    ids=["specials", "ragged", "empty-row", "bool-item", "numpy-item", "tuples",
         "array-specials", "array-negative-zero", "array-subnormal", "array-1e17",
         "array-bool-item", "array-numpy-item", "array-tuples", "array-no-rows",
         "array-no-columns", "array-transposed", "array-strided", "array-read-only"],
)
def test_float_matrix_writer_matches_generic_emitter(matrix):
    # a float64 array is written as its list of rows
    doc = {"cells": [{"matrix": matrix}], "matrix": matrix}
    as_lists = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
    want = _dumped(generic_dump, {"cells": [{"matrix": as_lists}], "matrix": as_lists})
    assert _dumped(dump_mesh, doc) == want
    if isinstance(matrix, np.ndarray) and not np.all(np.isfinite(matrix)):
        assert want == "non-finite"


@pytest.mark.parametrize(
    "array",
    [np.ones(3), np.ones((2, 2), dtype=np.float32), np.ones((2, 2), dtype=np.int64),
     np.ones((2, 2, 2)), np.ones((2, 2), dtype=">f8"), np.array(1.0)],
    ids=["1-d", "float32", "int", "3-d", "big-endian", "0-d"],
)
def test_writer_refuses_other_arrays(array):
    with pytest.raises(TypeError):
        dump_mesh({"matrix": array})


def _with_list_matrices(doc: dict) -> dict:
    return {**doc, "weak_cells": [{**c, "matrix": c["matrix"].tolist()}
                                  for c in doc["weak_cells"]]}


@pytest.mark.parametrize(
    "model",
    [lambda: case_model("square-demo", 0),
     lambda: build_case(BenchmarkCase("square-mixed", p=4, ratio=(6, 9), matched=False,
                                      dual_refine=2), 0)],
    ids=["demo-two-patch", "square-mixed-p4"],
)
def test_array_matrices_dump_as_their_lists(model):
    doc = mesh_document(model(), weak=True)
    assert dump_mesh(doc) == dump_mesh(_with_list_matrices(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_numbers(bad):
    # JSON has no NaN or Infinity: the file would not load back
    doc = mesh_document(case_model("square-demo", 0, dual_refine=0))
    doc["patches"][0]["control_points"][1][0] = bad
    for part in (doc, [[0.5, bad]], [bad], bad, np.float64(bad)):
        with pytest.raises(MeshFormatError) as err:
            dump_mesh(part)
        assert err.value.code == "non-finite"


def _finite_floats():
    specials = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e17, 1.0])
    return st.floats(allow_nan=False, allow_infinity=False) | specials


@given(
    st.lists(st.lists(_finite_floats(), min_size=9, max_size=9), min_size=1, max_size=5),
    st.lists(st.tuples(_finite_floats(), _finite_floats()), min_size=1, max_size=12),
)
def test_generated_document_round_trip_is_byte_identical(matrix, points):
    # integral floats are written without a fraction and read back as ints;
    # the next dump writes them the same way.  Each row is its own cell, with
    # one entry per Bernstein function of the p = 2 patch.
    doc = mesh_document(case_model("square-demo", 0, dual_refine=0))
    doc["patches"][0]["control_points"][:len(points)] = [list(p) for p in points]
    doc["weak_cells"] = [{"patch": 0, "rect": [[0.0, 0.5], [0.0, 1.0]],
                          "rows": [k], "matrix": [row]} for k, row in enumerate(matrix)]
    doc["weak_dofs"] = len(matrix)
    text = dump_mesh(doc)
    loaded = load_mesh(text)
    assert dump_mesh(loaded) == text
    assert loaded == json.loads(text)


def _floats_in(obj):
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist() if obj.dtype == np.float64 else []
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, list):
        return [obj] if type(obj) is float else []
    return [v for item in obj for v in _floats_in(item)]


def test_round_trip_converts_each_distinct_number_once(monkeypatch):
    calls = []
    missing = mesh_io._Memo.__missing__

    def counted(memo, key):
        calls.append(key)
        return missing(memo, key)

    monkeypatch.setattr(mesh_io._Memo, "__missing__", counted)
    doc = mesh_document(case_model("square-demo", 0), weak=True)
    text = dump_mesh(doc)
    floats = _floats_in(doc)
    assert len(calls) == len({struct.pack("d", v) for v in floats}) < len(floats)

    calls.clear()
    tokens = set()
    json.loads(text, parse_float=tokens.add, parse_int=tokens.add)
    load_mesh(text)
    assert sorted(calls) == sorted(tokens)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_mesh_pauses_and_restores_the_collector(monkeypatch, enabled):
    seen, parse = [], json.loads

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse(*args, **kwargs)

    monkeypatch.setattr(json, "loads", recording)
    text = dump_mesh(mesh_document(case_model("square-demo", 0)))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        load_mesh(text)
        assert gc.isenabled() is enabled
        with pytest.raises(MeshFormatError) as err:
            load_mesh("{")
        assert err.value.code == "bad-json"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


# ---------------------------------------------------------------------- CLI


def run_cli(args):
    return main(args)


def test_mesh_command_roundtrip(tmp_path):
    out = tmp_path / "mesh.json"
    assert run_cli(["mesh", "--case", "square-demo", "--weak", "--n", "1",
                    "-o", str(out)]) == 0
    text = out.read_text()
    assert dump_mesh(load_mesh(text)) == text


def test_solve_methods_agree(tmp_path):
    errs = {}
    for method in ("mortar", "weak", "saddle"):
        prefix = tmp_path / method
        assert run_cli(["solve", "--case", "square-mixed", "--method", method,
                        "--level", "0", "-o", str(prefix)]) == 0
        lines = (tmp_path / f"{method}.summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        errs[method] = float(row["l2_error"])
    assert abs(errs["mortar"] - errs["weak"]) < 1e-10
    assert abs(errs["mortar"] - errs["saddle"]) < 1e-12


def test_unknown_method_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--case", "square-mixed", "--method", "nope",
                 "-o", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_unknown_case_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh", "--case", "nope", "-o", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_setting_the_case_ignores_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh", "--case", "largedef-case1", "--p", "5", "--n", "3", "--mismatched",
                 "--ratio", "7:9", "-o", str(out)])
    assert exc.value.code == 2
    assert "largedef-case1 fixes p = 2, got 5" in capsys.readouterr().err
    assert not out.exists()


def test_converge_header_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["converge", "--case", "square-mixed", "--levels", "2", "--mismatched", "--seed", "7"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    ta, tb = a.read_bytes(), b.read_bytes()
    assert ta == tb
    assert ta.decode().splitlines()[0] == ",".join(CSV_COLUMNS)
    # rate column blank on the first level
    first = ta.decode().splitlines()[1]
    assert first.endswith(",")


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "m.json"
    env_script = (
        "from bezmortar.cli import main; "
        f"raise SystemExit(main(['mesh','--case','square-demo','-o', r'{out}']))"
    )
    # the child imports the same package as the tests, wherever it was found
    src = str(Path(bezmortar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", env_script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    # the module's own entry point writes the same file
    again = tmp_path / "again.json"
    proc = subprocess.run([sys.executable, "-m", "bezmortar.cli", "mesh", "--case", "square-demo",
                           "-o", str(again)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert again.read_bytes() == out.read_bytes()


def test_module_entry_point_exits_with_main(monkeypatch, capsys):
    # run_path, not run_module: run_module warns that bezmortar.cli is
    # already imported, and the suite turns that warning into an error
    monkeypatch.setattr(sys, "argv", ["bezmortar", "--help"])
    with pytest.raises(SystemExit) as exit:
        runpy.run_path(cli.__file__, run_name="__main__")
    assert exit.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bezmortar")


def test_largedef_zero_pressure_gives_zero_solution(tmp_path):
    prefix = tmp_path / "zero"
    assert run_cli(["solve", "--case", "largedef-case1", "--method", "weak",
                    "--pressure", "0", "--increments", "1", "-o", str(prefix)]) == 0
    coeffs = json.loads((tmp_path / "zero.coeffs.json").read_text())
    assert coeffs and all(v == 0 for v in coeffs)
    header, row = (tmp_path / "zero.summary.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["pressure"] == "0"


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--case", "square-mixed", "--level", "-1"],
        ["solve", "--case", "largedef-case1", "--method", "weak", "--level", "-1"],
        ["solve", "--case", "largedef-case1", "--method", "weak", "--increments", "0"],
        # would accept the unsolved (zero) state
        ["solve", "--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--tol-factor", "0.5"],
        # would run every Newton step and report a numerical failure
        ["solve", "--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--tol-factor", "nan"],
        ["solve", "--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--pressure", "nan"],
        ["solve", "--case", "square-mixed", "--ratio", "abc"],
        ["solve", "--case", "square-mixed", "--ratio", "2:0"],
        ["solve", "--case", "square-mixed", "--ratio", "2"],
        # no linear problem to study
        ["converge", "--case", "largedef-case1"],
        ["converge", "--case", "square-demo"],
        # settings out of range for every case
        ["converge", "--case", "square-mixed", "--p", "0"],
        ["converge", "--case", "square-mixed", "--mismatched", "--seed", "-5"],
        # a study takes no single level
        ["converge", "--case", "square-mixed", "--level", "5", "--levels", "1"],
        # a largedef case runs only on the weakly continuous mesh
        ["solve", "--case", "largedef-case1", "--method", "mortar"],
        ["mesh", "--case", "square-mixed", "--n", str(MAX_DUAL_REFINE + 1)],
        # no interior interface control point to perturb
        ["mesh", "--case", "square-dirichlet", "--p", "1", "--ratio", "1:1", "--mismatched"],
    ],
)
def test_out_of_range_sizes_exit_2(tmp_path, args, capsys):
    try:
        code = run_cli([*args, "-o", str(tmp_path / "bad")])
    except SystemExit as exc:  # a malformed option, reported as a usage error
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_numerical_failure_exits_3(tmp_path, capsys):
    # ten times the pressure of criterion 10 in one increment inverts an
    # element at every step length the line search tries
    code = run_cli(["solve", "--case", "largedef-case1", "--method", "weak", "--increments", "1",
                    "--pressure", "1e12", "-o", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: element inversion in increment 1 could not be avoided\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, written", [
    (["mesh", "--case", "square-demo"], ""),
    (["solve", "--case", "square-mixed", "--level", "0"], ".coeffs.json"),
    (["converge", "--case", "square-mixed", "--levels", "1"], ""),
], ids=["mesh", "solve", "converge"])
def test_unwritable_output_exits_2(tmp_path, args, written, capsys):
    # an output path in a directory that does not exist is a usage error
    out = tmp_path / "missing" / "out"
    assert run_cli([*args, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}{written}: No such file or directory\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_output_that_is_a_directory_exits_2(tmp_path, capsys):
    # its folder takes files, so only the write itself finds the path unusable
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["mesh", "--case", "square-demo", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
    assert not list(out.iterdir())


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("reason", ["No such file or directory", "Not a directory"])
@pytest.mark.parametrize("args, written", [
    (["mesh", "--case", "square-demo"], ""),
    (["solve", "--case", "square-mixed"], ".coeffs.json"),
    (["converge", "--case", "square-mixed"], ""),  # its default 4 levels
], ids=["mesh", "solve", "converge"])
def test_unwritable_output_is_refused_before_any_work(tmp_path, monkeypatch, capsys, args,
                                                      written, reason):
    from bezmortar import benchmarks

    for name in ("build_case", "solve_case", "run_convergence", "run_largedef"):
        monkeypatch.setattr(benchmarks, name, _no_work)
    folder = tmp_path / "folder"
    if reason == "Not a directory":
        folder.write_text("")
    out = folder / "out"
    assert run_cli([*args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}{written}: {reason}\n"
    assert list(tmp_path.iterdir()) == ([folder] if reason == "Not a directory" else [])


@pytest.mark.parametrize(
    "args, option",
    [
        # the load options apply only to a largedef case
        (["solve", "--case", "square-mixed", "--level", "1", "--pressure", "5"], "--pressure"),
        (["solve", "--case", "square-mixed", "--level", "1", "--increments", "3"],
         "--increments"),
        (["solve", "--case", "square-mixed", "--level", "1", "--tol-factor", "7"],
         "--tol-factor"),
        (["solve", "--case", "annulus", "--method", "weak", "--increments", "20"],
         "--increments"),
        # a matched case draws no perturbation, so no seed
        (["solve", "--case", "square-mixed", "--level", "1", "--seed", "7"], "--seed"),
        (["mesh", "--case", "square-mixed", "--seed", "7"], "--seed"),
        (["converge", "--case", "square-mixed", "--levels", "1", "--seed", "9"], "--seed"),
        (["solve", "--case", "largedef-case1", "--method", "weak", "--seed", "1234"], "--seed"),
    ],
)
def test_option_that_does_not_apply_exits_2(tmp_path, args, option, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and option in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["mesh", "solve", "converge"])
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_every_case_runs_every_command(tmp_path, case_id, command, capsys):
    # every row of the case table, a new one included: each command either
    # succeeds or refuses the case as a usage error, never as a numerical
    # failure and never with an uncaught exception
    row = CASES[case_id]
    pressure = ["--method", "weak", "--increments", "1", "--pressure", "1e9"] if row.loads else []
    args = {"mesh": ["--level", "0"], "solve": ["--level", "0", *pressure],
            "converge": ["--levels", "1"]}[command]
    runs = command == "mesh" or row.linear is not None or (command == "solve" and row.loads)
    code = run_cli([command, "--case", case_id, *args, "-o", str(tmp_path / "out")])
    assert code == (0 if runs else 2)
    if not runs:
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("level", ["-1", "2"])
def test_square_demo_takes_only_level_0(tmp_path, level, capsys):
    out = tmp_path / "demo.json"
    assert run_cli(["mesh", "--case", "square-demo", "--level", level, "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["mesh", "--case", "square-demo", "--level", "0", "-o", str(out)]) == 0
    meta = {"case": "square-demo", "level": 0, "seed": 1234}
    assert out.read_text() == dump_mesh(mesh_document(case_model("square-demo", 0), meta=meta))


# each subcommand's options, from the parser's own table; --case is drawn from
# CASES and -o names a scratch file
_SUBCOMMANDS = next(a for a in _parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
_OPTIONS = {command: {a.option_strings[-1]: a for a in sub._actions
                      if a.option_strings and a.dest not in ("help", "case", "output")}
            for command, sub in _SUBCOMMANDS.items()}
# in-range values of each option's destination; a new option needs a row
_VALUES = {
    "p": st.integers(1, 3),
    "ratio": st.tuples(st.integers(1, 3), st.integers(1, 3)),
    "dual_refine": st.integers(0, 2),
    "seed": st.integers(0, 2**16),
    "increments": st.integers(1, 2),
    "tol_factor": st.sampled_from([1e4, 1e8, 1e12]),
    "pressure": st.floats(0.0, 1e9),
    "level": st.just(0),  # every run stays at level 0
    "levels": st.integers(1, 2),
}
# the value an option the parser leaves out takes: the case's defaults and
# the load defaults the help text states
_SUPPRESSED_DEFAULTS = {**{f.name: f.default for f in dataclasses.fields(BenchmarkCase)},
                        "increments": 20, "tol_factor": 1e8, "pressure": LARGEDEF_PRESSURE}


def _value(action):
    if action.nargs == 0:  # a flag
        return st.just(True)
    return st.sampled_from(action.choices) if action.choices else _VALUES[action.dest]


def _default(action):
    if action.default is argparse.SUPPRESS:
        return _SUPPRESSED_DEFAULTS[action.dest]
    return action.default


def _run_cli(command: str, case_id: str, options: dict):
    """Exit code of one in-process run and the bytes of each file it wrote."""
    argv = [command, "--case", case_id]
    for option, value in options.items():
        argv.append(option)
        if value is not True:
            argv.append(":".join(map(str, value)) if isinstance(value, tuple) else str(value))
    with tempfile.TemporaryDirectory() as out:
        try:
            code = main([*argv, "-o", os.path.join(out, "out")])
        except SystemExit as exc:  # a usage error
            code = exc.code
        return code, {path.name: path.read_bytes() for path in Path(out).iterdir()}


@settings(max_examples=100)  # most draws are refused, so more than the default 30
@given(st.data())
def test_every_given_option_is_read_or_refused(data):
    # a run exits 0 or 2, or 3 on a largedef case, and never raises; a
    # solve or study that succeeds writes other bytes without any option
    # it was given with another value than the one it takes when not given
    command = data.draw(st.sampled_from(sorted(_OPTIONS)), label="command")
    case_id = data.draw(st.sampled_from(sorted(CASES)), label="case")
    table = _OPTIONS[command]
    # a few options at a time: a long list is nearly always refused
    names = data.draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=4),
                      label="options")
    options = {name: data.draw(_value(table[name]), label=name) for name in names}
    code, files = _run_cli(command, case_id, options)
    assert code in (0, 2) or (code == 3 and CASES[case_id].loads)
    if code != 0 or command == "mesh":
        return
    for name, value in options.items():
        if value != _default(table[name]):
            rest = {k: v for k, v in options.items() if k != name}
            assert _run_cli(command, case_id, rest)[1] != files, f"{name} changed no byte"
