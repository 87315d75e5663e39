import json
import subprocess
import sys

import numpy as np
import pytest

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
    proc = subprocess.run([sys.executable, "-c", env_script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
