"""End-to-end runs of the command-line interface via main(argv)."""

import json

import pytest

from qcluster import dump_seed, load_seed, mutate
from qcluster.cli import main


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    return write_json(tmp_path, "a2.json", {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]]})


@pytest.fixture
def a2q_file(tmp_path):
    return write_json(
        tmp_path,
        "a2q.json",
        {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]], "Lambda": [[0, 1], [-1, 0]]},
    )


@pytest.fixture
def m2n1_file(tmp_path):
    return write_json(
        tmp_path,
        "m2n1.json",
        {"m": 2, "n": 1, "ex": [1], "B": [[0], [1]], "Lambda": [[0, -1], [1, 0]]},
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------


def test_check_classical(capsys, a2_file):
    code, out, err = run(capsys, ["check", a2_file])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data == {"type": "classical", "ok": True, "d": [1, 1]}


def test_check_quantum_ok(capsys, a2q_file):
    code, out, err = run(capsys, ["check", a2q_file])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["type"] == "quantum"
    assert data["ok"] is True
    assert data["d"] == [1, 1]
    assert data["verification"]["compatibility"]["ok"] is True


def test_check_quantum_text_format(capsys, a2q_file):
    code, out, err = run(capsys, ["check", a2q_file, "--format", "text"])
    assert code == 0
    assert "type: quantum" in out
    assert "d: 1,1" in out
    assert out.rstrip().endswith("ok")


def test_check_incompatible_lambda_exits_1(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "bad.json",
        {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]], "Lambda": [[0, 0], [0, 0]]},
    )
    code, out, err = run(capsys, ["check", path])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "incompatible"
    assert payload["position"] == [1, 1]


def test_check_not_symmetrizable_exits_1(capsys, tmp_path):
    path = write_json(tmp_path, "sym.json", {"m": 2, "n": 2, "B": [[0, 1], [1, 0]]})
    code, out, err = run(capsys, ["check", path])
    assert code == 1
    assert json.loads(err)["error"] == "not_symmetrizable"


def test_check_garbage_file_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_check_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, ["check", str(tmp_path / "absent.json")])
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


A2Q = {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]], "Lambda": [[0, 1], [-1, 0]]}


@pytest.mark.parametrize(
    "patch",
    [
        {"Lambda": 5},
        {"Lambda": [[0, 1], 5]},
        {"Lambda": [[0, 1.7], [-1, 0]]},
        {"B": [[0, 1.7], [-1, 0]]},
        {"B": [[0, True], [-1, 0]]},
        {"B": [[0, "1"], [-1, 0]]},
        {"B": [[0, 1], "-1"]},
        {"m": 2.0},
        {"n": True},
        {"ex": [1, "2"]},
        {"ex": "12"},
    ],
    ids=repr,
)
@pytest.mark.parametrize("verb", ["check", "explore"])
def test_non_integer_seed_file_exits_2(capsys, tmp_path, verb, patch):
    path = write_json(tmp_path, "bad.json", {**A2Q, **patch})
    code, out, err = run(capsys, [verb, path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "parse_error"


# -- mutate --------------------------------------------------------------


def test_mutate_pentagon_matches_library_walk(capsys, a2_file):
    code, out, err = run(capsys, ["mutate", a2_file, "--at", "1,2,1,2,1", "--full"])
    assert code == 0 and err == ""
    data = json.loads(out)
    rows = data["report"]["rows"]
    assert len(rows) == 5
    assert all(row["ok"] for row in rows)
    seed = load_seed({"m": 2, "n": 2, "B": [[0, 1], [-1, 0]]})
    for k in (0, 1, 0, 1, 0):
        seed = mutate(seed, k)
    assert data["seed"] == dump_seed(seed, full=True)
    assert data["seed"]["B"] == [[0, -1], [1, 0]]


def test_mutate_emits_denominators(capsys, a2_file):
    code, out, err = run(capsys, ["mutate", a2_file, "--at", "1,2"])
    assert code == 0
    rows = json.loads(out)["report"]["rows"]
    assert [row["denominator"] for row in rows] == [[1, 0], [1, 1]]


def test_mutate_quantum_seed(capsys, m2n1_file):
    code, out, err = run(capsys, ["mutate", m2n1_file, "--at", "1", "--full"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"]["Lambda"] == [[0, 1], [-1, 0]]
    assert "vars" in data["seed"]


def test_mutate_text_format(capsys, a2_file):
    code, out, err = run(capsys, ["mutate", a2_file, "--at", "1", "--format", "text"])
    assert code == 0
    assert "step 1: direction 1 Laurent" in out
    assert "B:" in out


def test_mutate_frozen_direction_exits_2(capsys, m2n1_file):
    code, out, err = run(capsys, ["mutate", m2n1_file, "--at", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_mutate_bad_sequence_exits_2(capsys, a2_file):
    for bad in ("1,x", "0", ""):
        code, out, err = run(capsys, ["mutate", a2_file, "--at", bad])
        assert code == 2, bad
        assert json.loads(err)["error"] == "parse_error"


# -- explore -------------------------------------------------------------


def test_explore_a2_json(capsys, a2q_file):
    code, out, err = run(capsys, ["explore", a2q_file])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["status"] == "Closed"
    assert doc["node_count"] == 5


def test_explore_caps(capsys, tmp_path):
    path = write_json(tmp_path, "kron.json", {"m": 2, "n": 2, "B": [[0, 2], [-2, 0]]})
    code, out, err = run(
        capsys, ["explore", path, "--max-seeds", "12", "--max-depth", "-1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "CappedBySeeds"
    assert doc["node_count"] == 12


def test_explore_depth_cap(capsys, a2_file):
    code, out, err = run(capsys, ["explore", a2_file, "--max-depth", "1"])
    assert code == 0
    assert json.loads(out)["status"] == "CappedByDepth"


def test_explore_dot_output(capsys, a2_file):
    code, out, err = run(capsys, ["explore", a2_file, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert "Closed" in out


def test_explore_text_output(capsys, a2_file):
    code, out, err = run(capsys, ["explore", a2_file, "--format", "text"])
    assert code == 0
    assert "status: Closed" in out
    assert "nodes: 5" in out


def test_explore_full_embeds_vars(capsys, a2_file):
    code, out, err = run(capsys, ["explore", a2_file, "--full"])
    doc = json.loads(out)
    assert "vars" in doc["nodes"][0]["seed"]


# -- specialize ----------------------------------------------------------


def test_specialize_drops_lambda(capsys, a2q_file):
    code, out, err = run(capsys, ["specialize", a2q_file, "--full"])
    assert code == 0
    data = json.loads(out)
    assert "Lambda" not in data
    assert data["B"] == [[0, 1], [-1, 0]]
    assert "vars" in data


def test_specialize_classical_input_exits_2(capsys, a2_file):
    code, out, err = run(capsys, ["specialize", a2_file])
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


# -- principal-lambda ----------------------------------------------------


def test_principal_lambda_rank1(capsys, tmp_path):
    path = write_json(tmp_path, "b1.json", {"B": [[0]], "D": [2]})
    code, out, err = run(capsys, ["principal-lambda", path])
    assert code == 0
    data = json.loads(out)
    assert data == {"Lambda": [[0, -2], [2, 0]], "d": [2]}


def test_principal_lambda_a2_full_seed_round_trips(capsys, tmp_path):
    path = write_json(tmp_path, "b2.json", {"B": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, ["principal-lambda", path, "--full-seed"])
    assert code == 0
    data = json.loads(out)
    assert data["Lambda"] == [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
    ]
    assert data["d"] == [1, 1]
    seed_path = write_json(tmp_path, "ext.json", data["seed"])
    code2, out2, err2 = run(capsys, ["check", seed_path])
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_principal_lambda_bad_d_exits_1(capsys, tmp_path):
    path = write_json(tmp_path, "b3.json", {"B": [[0, 1], [-1, 0]], "D": [1, 3]})
    code, out, err = run(capsys, ["principal-lambda", path])
    assert code == 1
    assert json.loads(err)["error"] == "not_symmetrizable"


@pytest.mark.parametrize(
    "obj",
    [
        {"B": [[0, 1.7], [-1, 0]]},
        {"B": [[0, True], [-1, 0]]},
        {"B": [0, 1]},
        {"B": [[0, 1], [-1, 0]], "Lambda0": [[0, 1.7], [-1.7, 0]]},
        {"B": [[0, 1], [-1, 0]], "Lambda0": 5},
        {"B": [[0, 1], [-1, 0]], "D": [1, "1"]},
        {"B": [[0, 1], [-1, 0]], "D": [1.0, 1.0]},
    ],
    ids=repr,
)
def test_principal_lambda_non_integer_input_exits_2(capsys, tmp_path, obj):
    path = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, ["principal-lambda", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "parse_error"


def test_principal_lambda_text(capsys, tmp_path):
    path = write_json(tmp_path, "b4.json", {"B": [[0]]})
    code, out, err = run(capsys, ["principal-lambda", path, "--format", "text"])
    assert code == 0
    assert "Lambda:" in out
    assert "d: 1" in out


# -- shell-level behaviour ------------------------------------------------


def test_output_is_byte_stable(capsys, a2q_file):
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, ["explore", a2q_file, "--full"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unknown_flag_is_usage_error(capsys, a2_file):
    with pytest.raises(SystemExit) as info:
        main(["check", a2_file, "--bogus"])
    assert info.value.code == 2


def test_mutate_incomplete_report_exits_1(capsys, monkeypatch, a2_file):
    # well-formed seed files never fail division (that is the Laurent
    # property the engine certifies), so fake an incomplete report to
    # cover the error plumbing
    from qcluster.explorer import LaurentReport, LaurentRow

    bad_row = LaurentRow(
        step=1,
        index=0,
        direction=0,
        ok=False,
        support=None,
        min_exponents=None,
        denominator=None,
        error="no Laurent expression",
    )
    fake = LaurentReport(rows=(bad_row,), completed=False, final=None)
    monkeypatch.setattr("qcluster.cli.laurent_report", lambda seed, seq: fake)
    code, out, err = run(capsys, ["mutate", a2_file, "--at", "1"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "not_divisible"
    assert payload["direction"] == 1
