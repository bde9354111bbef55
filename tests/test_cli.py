import json
import pathlib

import numpy as np
import pytest

from equirep import cli
from equirep import representations as reps
from equirep.errors import DecompositionFailedError
from equirep.groups import make_cyclic
from equirep.serialize import mat_from_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_make_verify_identify(tmp_path, capsys):
    path = tmp_path / "d4.json"
    code, out = run_cli(capsys, "group", "make", "--kind", "dihedral",
                        "--n", "4", "--out", str(path))
    assert code == 0
    assert json.loads(out)["order"] == 8

    code, out = run_cli(capsys, "group", "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["associativity_violations"] == []

    code, out = run_cli(capsys, "group", "identify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["name"] == "D_4"


def test_rep_make_and_verify(tmp_path, capsys):
    path = tmp_path / "perm3.json"
    code, _ = run_cli(capsys, "rep", "make", "--kind", "perm-qubits",
                      "--n", "3", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "rep", "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["residual"] < 1e-10
    assert report["dim"] == 8


def test_commutant_subcommand(tmp_path, capsys):
    code, out = run_cli(capsys, "commutant", "--rep",
                        str(PRESETS / "swap-adjoint.json"))
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 10
    assert len(report["basis"]) == 10


def test_decompose_blocks_and_residuals(capsys):
    code, out = run_cli(capsys, "decompose", "--rep",
                        str(PRESETS / "su2-tensor2.json"))
    assert code == 0
    report = json.loads(out)
    assert report["blocks"] == [[3, 1], [1, 1]]
    assert report["residuals"]["unitarity"] < 1e-9
    assert report["residuals"]["block_alignment"] < 1e-8
    q = mat_from_json(report["q"])
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-9


def test_twirl_subcommand_value(capsys):
    code, out = run_cli(capsys, "twirl", "--rep",
                        str(PRESETS / "swap-adjoint.json"),
                        "--op", str(PRESETS / "x1.json"))
    assert code == 0
    report = json.loads(out)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    expected = (np.kron(x, eye) + np.kron(eye, x)) / 2
    assert np.linalg.norm(mat_from_json(report["twirled"]) - expected) < 1e-12
    assert report["residuals"]["commutation"] < 1e-12


def test_equivariant_preset_in_span(capsys):
    code, out = run_cli(capsys, "equivariant", "--rep",
                        str(PRESETS / "swap-adjoint.json"),
                        "--preset", "paper-swap-six")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 10
    assert report["preset"]["in_span"] is True
    assert report["preset"]["count"] == 6
    # the old "swap-six" alias is gone: an unknown preset exits 1
    code, _ = run_cli(capsys, "equivariant", "--rep",
                      str(PRESETS / "swap-adjoint.json"),
                      "--preset", "swap-six")
    assert code == 1


def test_symtest_subcommand(capsys):
    code, out = run_cli(capsys, "symtest", "--h", str(PRESETS / "xxx3.json"),
                        "--rep", str(PRESETS / "su2-local.json"))
    assert code == 0
    report = json.loads(out)
    assert report["commutes"] is True
    assert report["max_residual"] < 1e-10


def test_task_run_writes_csv_and_summary(tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    code, out = run_cli(capsys, "--seed", "7", "task", "run", "--name", "purity",
                        "--k", "2", "--epochs", "5", "--samples", "20",
                        "--out", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["task"] == "purity"
    assert report["seed"] == 7
    assert report["invariance_deviation"] < 1e-8
    assert report["residuals"]["circuit_equivariance"] < 1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,train_accuracy"
    assert len(lines) == 7  # header + epochs 0..5


def test_task_run_seed_after_subcommand(tmp_path, capsys):
    # the documented invocation puts global flags after the subcommand
    code, out = run_cli(capsys, "task", "run", "--name", "purity", "--k", "2",
                        "--epochs", "2", "--samples", "10", "--seed", "7",
                        "--out", str(tmp_path / "r.csv"))
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_task_dump_data_round_trip(tmp_path, capsys):
    from equirep.serialize import dataset_from_spec
    dump = tmp_path / "data.json"
    code, _ = run_cli(capsys, "task", "run", "--name", "ferro",
                      "--epochs", "0", "--samples", "6",
                      "--dump-data", str(dump))
    assert code == 0
    back = dataset_from_spec(json.loads(dump.read_text()))
    assert back.name == "ferro"
    assert len(back.states) == 6
    for s in back.states:
        assert back.relabel(s.rho) == s.label


@pytest.mark.parametrize("argv, make", [
    (("--kind", "perm-qubits", "--n", "3"), lambda: reps.perm_rep_qubits(3)),
    (("--kind", "su2-tensor", "--k", "2"), lambda: reps.tensor_power(reps.su2_fundamental(), 2)),
    (("--kind", "su2-fundamental"), reps.su2_fundamental),
    (("--kind", "left-regular", "--n", "5"), lambda: reps.left_regular_rep(make_cyclic(5))),
    (("--kind", "trivial", "--dim", "0"), lambda: reps.trivial_rep(make_cyclic(2), 0)),
])
def test_rep_make_file_matches_the_list_spec(tmp_path, capsys, argv, make):
    # the CLI writes the image stacks as ndarrays; the bytes are those of
    # the JSON-native spec written element by element
    from equirep.serialize import dumps_report, rep_to_spec
    path = tmp_path / "rep.json"
    code, _ = run_cli(capsys, "rep", "make", *argv, "--out", str(path))
    assert code == 0
    assert path.read_text() == dumps_report(rep_to_spec(make()))


def test_rep_file_is_byte_stable_through_load_and_write(tmp_path, capsys):
    # su2 (x) su2 has negative zeros in its images, written as -0
    from equirep.cli import _load_json
    from equirep.serialize import dumps_report, rep_from_spec, rep_to_spec
    path = tmp_path / "rep.json"
    code, _ = run_cli(capsys, "rep", "make", "--kind", "su2-tensor", "--k", "2",
                      "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "-0," in text or "-0]" in text
    assert dumps_report(rep_to_spec(rep_from_spec(_load_json(str(path))))) == text


def test_task_dump_data_matches_the_list_spec(tmp_path, capsys):
    from equirep import tasks
    from equirep.serialize import dataset_to_spec, dumps_report
    dump = tmp_path / "data.json"
    code, _ = run_cli(capsys, "--seed", "3", "task", "run", "--name", "swap2d",
                      "--epochs", "0", "--samples", "5", "--dump-data", str(dump))
    assert code == 0
    ds = tasks.make_dataset("swap2d", 5, 3)
    assert dump.read_text() == dumps_report(dataset_to_spec(ds))


def test_reports_carry_header(capsys):
    code, out = run_cli(capsys, "--seed", "3", "--tol-abs", "1e-11",
                        "symtest", "--h", str(PRESETS / "xxx3.json"),
                        "--rep", str(PRESETS / "su2-local.json"))
    assert code == 0
    report = json.loads(out)
    assert report["toolkit"] == "equirep"
    assert report["version"]
    assert report["seed"] == 3
    assert report["tolerances"]["absolute"] == 1e-11


def test_flags_do_not_carry_over_between_runs(capsys):
    argv = ("symtest", "--h", str(PRESETS / "xxx3.json"), "--rep", str(PRESETS / "su2-local.json"))
    code, out = run_cli(capsys, "--seed", "5", "--tol-abs", "1e-11", *argv, "--tol-rel", "1e-8")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 5
    assert report["tolerances"] == {"absolute": 1e-11, "relative": 1e-8}
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 0
    assert report["tolerances"] == {"absolute": 1e-10, "relative": 1e-9}


def test_identical_invocations_byte_identical(capsys):
    args = ("decompose", "--rep", str(PRESETS / "su2-tensor2.json"))
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("golden,argv", [
    ("decompose_su2-tensor2.json",
     ("decompose", "--rep", str(PRESETS / "su2-tensor2.json"))),
    ("symtest_xxx3_su2-local.json",
     ("symtest", "--h", str(PRESETS / "xxx3.json"),
      "--rep", str(PRESETS / "su2-local.json"))),
    ("twirl_swap-adjoint_x1.json",
     ("twirl", "--rep", str(PRESETS / "swap-adjoint.json"),
      "--op", str(PRESETS / "x1.json"))),
])
def test_preset_golden_outputs(golden, argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_usage_error_exits_one(capsys):
    code = cli.run(["group", "make", "--kind", "nosuchgroup"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_missing_file_exits_one(capsys):
    code = cli.run(["decompose", "--rep", "no-such-file.json"])
    assert code == 1
    assert "no such file" in capsys.readouterr().err


def test_invalid_parameter_exits_one(capsys):
    code = cli.run(["group", "make", "--kind", "dihedral", "--n", "1"])
    assert code == 1


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def boom(args, tol):
        raise DecompositionFailedError("synthetic")
    monkeypatch.setitem(cli._DISPATCH, "decompose", boom)
    code = cli.run(["decompose", "--rep", str(PRESETS / "su2-tensor2.json")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def _malformed_files(tmp_path):
    """ROADMAP item 4 cases (a)-(c): missing key, ragged matrix, non-unitary
    image; then (e) a Lie spec without generator images, (f) a non-integer
    group order, (g) a spec, group or algebra that is a JSON list, and (h)
    table group specs with a ragged, string or fractional table, or with a
    non-integer or out-of-range generator; then (i) a finite S_3 spec whose
    two images are 2x2 and 3x3."""
    from equirep.representations import dihedral_rep_s3, perm_rep_qubits, su2_fundamental
    from equirep.serialize import rep_to_spec
    spec = rep_to_spec(perm_rep_qubits(3))
    del spec["matrices"]
    (tmp_path / "a.json").write_text(json.dumps(spec))
    (tmp_path / "b.json").write_text(json.dumps(
        {"name": "ragged", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}))
    z2 = {"flavor": "finite", "group": {"kind": "cyclic", "n": 2}, "dim": 2,
          "name": "non-unitary", "matrices": [[[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]]}
    (tmp_path / "c.json").write_text(json.dumps(z2))
    lie = rep_to_spec(su2_fundamental())
    (tmp_path / "e.json").write_text(json.dumps(dict(lie, generator_images=[])))
    (tmp_path / "f.json").write_text(json.dumps(dict(z2, group={"kind": "cyclic", "n": "abc"})))
    (tmp_path / "g1.json").write_text(json.dumps([z2]))
    (tmp_path / "g2.json").write_text(json.dumps(dict(z2, group=[2])))
    (tmp_path / "g3.json").write_text(json.dumps(dict(lie, algebra=["lie"])))
    z2_table = {"kind": "table", "mul": [[0, 1], [1, 0]], "generators": [1]}
    for name, change in (("h1", {"mul": [[0, 1], [1]]}), ("h2", {"mul": "abc"}),
                         ("h3", {"mul": [[0, 1.5], [1, 0]]}),
                         ("h4", {"generators": ["x"]}), ("h5", {"generators": [99]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(z2_table, **change)))
    s3 = rep_to_spec(dihedral_rep_s3())
    s3["matrices"][1] = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)]
                         for i in range(3)]
    (tmp_path / "i.json").write_text(json.dumps(s3))
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
    return tmp_path


@pytest.mark.parametrize("argv,reason", [
    (("rep", "verify", "--in", "a.json"), "matrices"),
    (("twirl", "--rep", str(PRESETS / "swap-adjoint.json"), "--op", "b.json"),
     "malformed matrix"),
    (("commutant", "--rep", "c.json"), "not unitary"),
    (("commutant", "--rep", "e.json"), "no generator images"),
    (("commutant", "--rep", "f.json"), "must be an integer"),
    (("commutant", "--rep", "g1.json"), "JSON object"),
    (("commutant", "--rep", "g2.json"), "JSON object"),
    (("commutant", "--rep", "g3.json"), "JSON object"),
    (("group", "verify", "--in", "h1.json"), "square array"),
    (("group", "verify", "--in", "h2.json"), "square and non-empty"),
    (("group", "verify", "--in", "h3.json"), "entries must be integers"),
    (("group", "verify", "--in", "h4.json"), "integer element indices"),
    (("group", "verify", "--in", "h5.json"), "must lie in 0..1"),
    (("rep", "verify", "--in", "i.json"), "do not form one stack"),
    (("commutant", "--rep", "i.json"), "do not form one stack"),
    (("rep", "make", "--kind", "trivial", "--dim", "-1"), "must be non-negative"),
    (("rep", "verify"), "rep verify needs --in"),
    (("group", "verify"), "group verify needs --in"),
    (("group", "identify"), "group identify needs --in"),
    (("--tol-abs", "-1", "group", "make", "--kind", "cyclic"), "finite non-negative"),
    (("--tol-abs", "nan", "group", "make", "--kind", "cyclic"), "finite non-negative"),
    (("group", "make", "--kind", "cyclic", "--tol-rel", "inf"), "finite non-negative"),
    (("commutant", "--rep", "dir.json"), "cannot read"),
    (("commutant", "--rep", "latin1.json"), "not UTF-8"),
    (("decompose", "--rep", str(PRESETS / "su2-tensor2.json"), "--seed", "-1"),
     "non-negative integer"),
    (("--seed", "-2", "task", "run", "--name", "purity"), "non-negative integer"),
])
def test_malformed_input_exits_one(tmp_path, capsys, argv, reason):
    work = _malformed_files(tmp_path)
    argv = [str(work / a) if a.endswith(".json") and "/" not in a else a for a in argv]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and reason in captured.err
    assert "Traceback" not in captured.err
