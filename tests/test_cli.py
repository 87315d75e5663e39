import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bezmortar
from bezmortar import mesh_io
from bezmortar.cli import main
from bezmortar.mesh_io import (
    CSV_COLUMNS,
    MeshFormatError,
    dump_mesh,
    load_mesh,
    mesh_document,
    model_from_document,
    validate_mesh_document,
)
from bezmortar.benchmarks import gen_demo_two_patch

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
    model = gen_demo_two_patch(1)
    text = dump_mesh(mesh_document(model, weak=True))
    doc = load_mesh(text)
    assert dump_mesh(doc) == text


def test_negative_zero_survives_a_round_trip():
    doc = mesh_document(gen_demo_two_patch(0))
    doc["patches"][0]["control_points"][0][0] = -0.0
    text = dump_mesh(doc)
    assert "[-0, 0]" in text
    loaded = load_mesh(text)
    assert math.copysign(1.0, loaded["patches"][0]["control_points"][0][0]) == -1.0
    assert dump_mesh(loaded) == text


def test_document_rebuilds_model():
    model = gen_demo_two_patch(1)
    doc = json.loads(dump_mesh(mesh_document(model)))
    rebuilt = model_from_document(doc)
    assert rebuilt.n_retained == model.n_retained
    G = rebuilt.couplings[0].coupling.values
    assert np.abs(G - model.couplings[0].coupling.values).max() < 1e-14


def test_weak_payload_contains_reference_tensor_operator():
    # the first subcell of the split slave element carries the reference 9x9
    # operator, stored in cell-local Bernstein coordinates; pulling the
    # interface direction back onto the parent element must reproduce the
    # transverse-major reference up to row/column ordering
    from bezmortar.splines import BernsteinInterval, bernstein_transform

    model = gen_demo_two_patch(1)
    doc = mesh_document(model, weak=True)
    M = bernstein_transform(
        BernsteinInterval(1 / 3, 2 / 3, 2), BernsteinInterval(1 / 3, 0.5, 2)
    )
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
    doc = json.loads(dump_mesh(mesh_document(gen_demo_two_patch(0))))
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        validate_mesh_document(doc)
    assert err.value.code == code


def test_non_string_side_is_a_schema_error():
    doc = json.loads(dump_mesh(mesh_document(gen_demo_two_patch(0))))
    doc["interfaces"][0]["slave"] = [0, ["north"]]
    with pytest.raises(MeshFormatError) as err:
        validate_mesh_document(doc)
    assert err.value.code == "bad-side"


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
    ],
    ids=["nan-point", "inf-weight", "one-knot-vector", "string-weight", "ragged-point",
         "fractional-patch-index", "fractional-dual-refine", "bool-dual-refine",
         "string-dual-refine", "negative-dual-refine", "string-reversed"],
)
def test_loader_rejects_malformed_input_with_a_code(mutate, code):
    doc = json.loads(dump_mesh(mesh_document(gen_demo_two_patch(0))))
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        model_from_document(doc)
    assert err.value.code == code


def test_model_reads_no_weak_cells():
    # the loader checks every field; the model builder only those it reads
    doc = _weak_document()
    doc["weak_cells"] = "junk"
    with pytest.raises(MeshFormatError):
        validate_mesh_document(doc)
    assert model_from_document(doc).n_retained == gen_demo_two_patch(0).n_retained


def _weak_document():
    return json.loads(dump_mesh(mesh_document(gen_demo_two_patch(0), weak=True)))


def _ragged_negative_rows(d):
    d["weak_cells"][0]["rows"] = [-1]
    d["weak_cells"][0]["matrix"] = [[1.0, 2.0], [3.0]]


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
        lambda d: d["weak_cells"][2].pop("matrix"),
        lambda d: d.pop("weak_dofs"),
        lambda d: d["weak_cells"].append(5),
    ],
    ids=["junk-cells", "negative-dofs", "patch-out-of-range", "negative-row-ragged-matrix",
         "missing-matrix-row", "short-matrix-row", "row-past-dofs", "bool-row",
         "one-rect-interval", "string-rect-bound", "no-matrix", "cells-without-dofs",
         "cell-not-an-object"],
)
def test_loader_rejects_malformed_weak_cells(mutate):
    doc = _weak_document()
    validate_mesh_document(doc)
    mutate(doc)
    with pytest.raises(MeshFormatError) as err:
        load_mesh(json.dumps(doc))
    assert err.value.code == "bad-weak-cell"


def test_bad_weak_cell_names_the_first_bad_cell():
    doc = _weak_document()
    doc["weak_cells"][3]["patch"] = 2
    doc["weak_cells"][5]["patch"] = -1
    with pytest.raises(MeshFormatError, match="weak cell 3: patch"):
        validate_mesh_document(doc)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_loader_reports_non_finite_tokens(token):
    text = dump_mesh(mesh_document(gen_demo_two_patch(0), weak=True))
    for key in ('"weights": [', '"matrix": ['):
        bad = text.replace(key, key + token + ", ", 1)
        assert bad != text
        with pytest.raises(MeshFormatError) as err:
            load_mesh(bad)
        assert err.value.code == "non-finite"


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


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324], [1e17, -0.0, 0.0]],
        [[1.0], [2.5, 3.0, 4.0], [0.5, 0.25]],
        [[1.0, 2.0], [], [3.0]],
        [[1.0, True], [2.0, 0.5]],
        [[np.float64(1.5), 2.0], [3.0, 0.1]],
        ([0.1, -0.0], (0.2, 0.0)),
    ],
    ids=["specials", "ragged", "empty-row", "bool-item", "numpy-item", "tuples"],
)
def test_float_matrix_writer_matches_generic_emitter(matrix):
    doc = {"cells": [{"matrix": matrix}], "matrix": matrix}
    assert _dumped(dump_mesh, doc) == _dumped(generic_dump, doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_numbers(bad):
    # JSON has no NaN or Infinity: the file would not load back
    doc = mesh_document(gen_demo_two_patch(0))
    doc["patches"][0]["control_points"][1][0] = bad
    for part in (doc, [[0.5, bad]], [bad], bad, np.float64(bad)):
        with pytest.raises(MeshFormatError) as err:
            dump_mesh(part)
        assert err.value.code == "non-finite"


def _finite_floats():
    specials = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e17, 1.0])
    return st.floats(allow_nan=False, allow_infinity=False) | specials


@given(
    st.lists(st.lists(_finite_floats(), max_size=6), min_size=1, max_size=5),
    st.lists(st.tuples(_finite_floats(), _finite_floats()), min_size=1, max_size=12),
)
def test_generated_document_round_trip_is_byte_identical(matrix, points):
    # integral floats are written without a fraction and read back as ints;
    # the next dump writes them the same way.  The rows have many lengths,
    # and a weak cell's matrix rows share one, so each row is its own cell.
    doc = mesh_document(gen_demo_two_patch(0))
    doc["patches"][0]["control_points"][:len(points)] = [list(p) for p in points]
    doc["weak_cells"] = [{"patch": 0, "rect": [[0.0, 0.5], [0.0, 1.0]],
                          "rows": [k], "matrix": [row]} for k, row in enumerate(matrix)]
    doc["weak_dofs"] = len(matrix)
    text = dump_mesh(doc)
    loaded = load_mesh(text)
    assert dump_mesh(loaded) == text
    assert loaded == json.loads(text)


def _floats_in(obj):
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
    doc = mesh_document(gen_demo_two_patch(1), weak=True)
    text = dump_mesh(doc)
    floats = _floats_in(doc)
    assert len(calls) == len({struct.pack("d", v) for v in floats}) < len(floats)

    calls.clear()
    tokens = set()
    json.loads(text, parse_float=tokens.add, parse_int=tokens.add)
    load_mesh(text)
    assert sorted(calls) == sorted(tokens)


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
    assert abs(errs["mortar"] - errs["saddle"]) < 1e-9


def test_unknown_method_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--case", "square-mixed", "--method", "nope",
                 "-o", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_unknown_case_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh", "--case", "nope", "-o", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_converge_header_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["converge", "--case", "square-mixed", "--levels", "2", "--seed", "7"]
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
        "import os; os.environ['BEZMORTAR_THREADS']='1'; "
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
        ["--case", "square-mixed", "--level", "-1"],
        ["--case", "largedef-case1", "--method", "weak", "--level", "-1"],
        ["--case", "largedef-case1", "--method", "weak", "--increments", "0"],
        # would accept the unsolved (zero) state
        ["--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--tol-factor", "0.5"],
        # would run to max_iter and report a numerical failure
        ["--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--tol-factor", "nan"],
        ["--case", "largedef-case1", "--method", "weak", "--increments", "1",
         "--pressure", "nan"],
    ],
)
def test_out_of_range_sizes_exit_2(tmp_path, args, capsys):
    prefix = tmp_path / "bad"
    assert run_cli(["solve", *args, "-o", str(prefix)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "bad.coeffs.json").exists()


@pytest.mark.parametrize("level", ["-1", "2"])
def test_square_demo_takes_only_level_0(tmp_path, level, capsys):
    out = tmp_path / "demo.json"
    assert run_cli(["mesh", "--case", "square-demo", "--level", level, "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["mesh", "--case", "square-demo", "--level", "0", "-o", str(out)]) == 0
    meta = {"case": "square-demo", "level": 0, "seed": 1234}
    assert out.read_text() == dump_mesh(mesh_document(gen_demo_two_patch(1), meta=meta))
