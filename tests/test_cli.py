import json
import pathlib

import numpy as np
import pytest

from equirep import cli
from equirep import representations as reps
from equirep.errors import DecompositionFailedError
from equirep.groups import GROUP_MAKERS, group_from_table, make_cyclic, verify_group_axioms
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


# A loop of order 5 (a Latin square with an identity) that is not a group.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_group_verify_reports_the_violations_of_a_non_group_table(tmp_path, capsys):
    path = tmp_path / "loop5.json"
    path.write_text(json.dumps({"kind": "table", "mul": LOOP5, "generators": [1, 2]}))
    code, out = run_cli(capsys, "group", "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    want = verify_group_axioms(group_from_table(LOOP5, [1, 2]))
    assert len(want.associativity_violations) == 36
    assert report["associativity_violations"] == [list(v) for v in want.associativity_violations]
    assert report["ok"] is False
    # Every other command still refuses to load the table.
    for argv in (["group", "identify", "--in", str(path)],
                 ["rep", "make", "--kind", "left-regular", "--group", str(path)]):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: explicit table fails the group axioms\n"


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
    (("--kind", "trivial", "--dim", "3"), lambda: reps.trivial_rep(make_cyclic(2), 3)),
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
    ("decompose_swap-adjoint.json",
     ("decompose", "--rep", str(PRESETS / "swap-adjoint.json"))),
    ("decompose_rotation-z100.json",   # Z_100 lies above EAGER_ORDER: sampled certificate
     ("decompose", "--rep", str(PRESETS / "rotation-z100.json"))),
])
def test_preset_golden_outputs(golden, argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_decompose_certifies_once_per_attempt_and_never_after(monkeypatch, capsys):
    from equirep import decompose
    real_residuals, real_decompose = decompose.decomposition_residuals, decompose.isotypic_decompose
    real_attempt = decompose._attempt_decomposition
    attempts, certified, returned = [], [], []

    def attempt(*args):
        attempts.append(len(certified))
        return real_attempt(*args)

    def residuals(rep, dec, rng_seed=0):
        certified.append(rng_seed)
        res = real_residuals(rep, dec, rng_seed)
        # the first attempt fails its certificate, so a second one is drawn
        return dict(res, block_alignment=1.0) if len(certified) == 1 else res

    def isotypic(rep, *args):
        dec = real_decompose(rep, *args)
        returned.append((len(certified), rep, dec))
        return dec
    monkeypatch.setattr(decompose, "_attempt_decomposition", attempt)
    monkeypatch.setattr(decompose, "decomposition_residuals", residuals)
    monkeypatch.setattr(decompose, "isotypic_decompose", isotypic)
    code, out = run_cli(capsys, "decompose", "--rep", str(PRESETS / "su2-tensor2.json"),
                        "--seed", "5")
    assert code == 0
    assert attempts == [0, 1] and certified == [5, 5]
    [(count, rep, dec)] = returned
    assert count == 2 and len(certified) == 2     # nothing certified after the decomposition
    assert json.loads(out)["residuals"] == real_residuals(rep, dec, 5) == dec.residuals


def test_rep_make_builds_no_element_stack(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reps.Representation, "representatives",
                        lambda self: pytest.fail("rep make built an element stack"))
    code, out = run_cli(capsys, "rep", "make", "--kind", "perm-qubits", "--n", "4",
                        "--out", str(tmp_path / "perm4.json"))
    assert code == 0 and json.loads(out)["dim"] == 16


def test_usage_error_exits_one(capsys):
    code = cli.run(["group", "make", "--kind", "nosuchgroup"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_missing_file_exits_one(capsys):
    code = cli.run(["decompose", "--rep", "no-such-file.json"])
    assert code == 1
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (("decompose", "--rep", str(PRESETS / "swap-adjoint.json"), "--out"), "x.json"),
    (("task", "run", "--name", "ferro", "--epochs", "0", "--samples", "6", "--dump-data"),
     "d.json"),
])
def test_writing_into_a_missing_directory_exits_one(tmp_path, capsys, argv, name):
    path = tmp_path / "no-such-dir" / name
    code = cli.run([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write") and str(path) in err
    assert not path.parent.exists()


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
    two images are 2x2 and 3x3; then (j) specs whose matrices, images,
    algebra generators or labels are a number, and cyclic and dihedral
    groups of order 1e9; then su2 (x) su2 (x) su2, whose 8 dims do not fit
    the 4-dim swap preset."""
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
    (tmp_path / "su2x3.json").write_text(json.dumps(rep_to_spec(
        reps.tensor_power(su2_fundamental(), 3))))
    (tmp_path / "j1.json").write_text(json.dumps(dict(z2, matrices=5)))
    (tmp_path / "j2.json").write_text(json.dumps(dict(lie, generator_images=5)))
    algebra = dict(lie["algebra"], generators=5)
    (tmp_path / "j3.json").write_text(json.dumps(dict(lie, algebra=algebra)))
    (tmp_path / "j4.json").write_text(json.dumps(dict(z2_table, labels=5)))
    (tmp_path / "j5.json").write_text(json.dumps({"kind": "cyclic", "n": 1e9}))
    (tmp_path / "j6.json").write_text(json.dumps({"kind": "dihedral", "n": 1e9}))
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
    (("rep", "make", "--kind", "trivial", "--dim", "-1"), "dim must be an integer >= 0"),
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
    (("equivariant", "--rep", "su2x3.json", "--preset", "paper-swap-six"),
     "expected (8, 8)"),
    (("rep", "make", "--kind", "trivial", "--dim", "0", "--out", "t0.json"),
     "zero-dimensional carrier"),
    (("rep", "verify", "--in", "j1.json"), "'matrices' must be a JSON list"),
    (("rep", "verify", "--in", "j2.json"), "'generator_images' must be a JSON list"),
    (("rep", "verify", "--in", "j3.json"), "'generators' must be a JSON list"),
    (("commutant", "--rep", "j1.json"), "'matrices' must be a JSON list"),
    (("decompose", "--rep", "j2.json"), "'generator_images' must be a JSON list"),
    (("equivariant", "--rep", "j3.json"), "'generators' must be a JSON list"),
    (("group", "verify", "--in", "j4.json"), "'labels' must be a JSON list"),
    (("group", "identify", "--in", "j4.json"), "'labels' must be a JSON list"),
    (("group", "make", "--kind", "cyclic", "--n", "1000000000"), "n <= 2048"),
    (("group", "make", "--kind", "dihedral", "--n", "1000000000"), "n <= 1024"),
    (("group", "verify", "--in", "j5.json"), "n <= 2048"),
    (("group", "identify", "--in", "j6.json"), "n <= 1024"),
    (("rep", "make", "--kind", "su2-tensor", "--k", "0"), "k must be an integer >= 1, got 0"),
    (("rep", "make", "--kind", "su2-tensor", "--k", "-3"), "k must be an integer >= 1, got -3"),
    (("rep", "make", "--kind", "trivial", "--n", "0"), "n must be an integer >= 1, got 0"),
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
    assert not (work / "t0.json").exists()


@pytest.mark.parametrize("kind", [[], {}, ["cyclic"], {"kind": "table"}])
@pytest.mark.parametrize("argv", [("group", "verify", "--in"), ("group", "identify", "--in"),
                                  ("rep", "verify", "--in")])
def test_non_string_group_kind_exits_one(tmp_path, capsys, kind, argv):
    group = {"kind": kind, "n": 2}
    doc = group if argv[0] == "group" else {
        "flavor": "finite", "group": group, "dim": 1, "name": "z2",
        "matrices": [[[[1, 0]]]]}
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc))
    code = cli.run([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: unknown group kind")
    assert "Traceback" not in captured.err


def _z600_table(trusted) -> dict:
    mul = (np.arange(600)[:, None] + np.arange(600)) % 600
    return {"kind": "table", "mul": mul.tolist(), "generators": [1], "trusted": trusted}


@pytest.mark.parametrize("group,reason", [
    ({"kind": "cyclic", "n": 2.5}, "group order n must be an integer, got 2.5"),
    ({"kind": "cyclic", "n": True}, "group order n must be an integer, got True"),
    ({"kind": "cyclic", "n": "12"}, "group order n must be an integer, got '12'"),
    ({"kind": "dihedral", "n": 4.5}, "group order n must be an integer, got 4.5"),
    ({"kind": "table", "mul": [[0, 1], [1, 0]], "trusted": "false"},
     "\"trusted\" must be a JSON boolean, got 'false'"),
    ({"kind": "table", "mul": [[0, 1], [1, 0]], "trusted": 1},
     "\"trusted\" must be a JSON boolean, got 1"),
])
@pytest.mark.parametrize("argv", [("group", "verify", "--in"), ("rep", "verify", "--in")])
def test_group_spec_n_and_trusted_must_have_json_types(tmp_path, capsys, group, reason, argv):
    # Each spec loaded before: 2.5 as Z_2, true as Z_1, "12" as Z_12, and a
    # "trusted" string or number was read by its truthiness.
    doc = group if argv[0] == "group" else {
        "flavor": "finite", "group": group, "dim": 1, "name": "one",
        "matrices": [[[[1, 0]]]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = cli.run([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {reason}\n"


@pytest.mark.parametrize("argv", [("group", "identify", "--in"), ("rep", "verify", "--in")])
def test_a_large_table_with_a_string_trusted_is_refused(tmp_path, capsys, argv):
    # "false" is truthy, so an order-600 table used to load with no axiom check.
    group = _z600_table("false")
    doc = group if argv[0] == "group" else {
        "flavor": "finite", "group": group, "dim": 1, "name": "one",
        "matrices": [[[[1, 0]]]]}
    path = tmp_path / "z600.json"
    path.write_text(json.dumps(doc))
    code = cli.run([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: \"trusted\" must be a JSON boolean, got 'false'\n"
    path.write_text(json.dumps(dict(doc, group=_z600_table(True)) if argv[0] == "rep"
                               else _z600_table(True)))
    assert cli.run([*argv, str(path)]) == 0
    capsys.readouterr()


def test_group_spec_n_may_be_an_integral_json_number(tmp_path, capsys):
    # JSON Schema's integer: a number with no fractional part, however written.
    path = tmp_path / "g.json"
    path.write_text('{"kind": "cyclic", "n": 12.0}')
    code, out = run_cli(capsys, "group", "identify", "--in", str(path))
    assert code == 0 and json.loads(out)["name"] == "Z_12"


@pytest.mark.parametrize("kind,n", [("cyclic", 1), ("cyclic", 12), ("symmetric", 1),
                                    ("symmetric", 5), ("dihedral", 3), ("dihedral", 64)])
def test_group_make_writes_the_spec_of_group_to_spec(tmp_path, capsys, kind, n):
    from equirep import serialize
    out = tmp_path / "g.json"
    code, _ = run_cli(capsys, "group", "make", "--kind", kind, "--n", str(n), "--out", str(out))
    made = GROUP_MAKERS[kind](n)
    assert code == 0
    assert out.read_text() == serialize.dumps_report(serialize.group_to_spec(made))
