"""End-to-end runs of the command-line interface via main(argv)."""

import argparse
import copy
import hashlib
import json
import random

import pytest

from qcluster import (
    ClusterError,
    CommLaurent,
    FrameMismatchError,
    IncompatibleError,
    LaurentReport,
    NotDivisibleError,
    NotSymmetrizableError,
    SeedVerification,
    TorusElement,
    dump_seed,
    load_seed,
    mutate,
)
from qcluster.cli import build_parser, main


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


@pytest.mark.parametrize(
    "obj",
    [
        {"m": 2, "n": 1, "ex": [0], "B": [[0], [1]]},
        {"m": 2, "n": 1, "ex": [3], "B": [[0], [1]]},
        {**A2Q, "ex": [0, 1]},
        {**A2Q, "ex": [1, 3]},
        {**A2Q, "ex": [2, 1]},
    ],
    ids=repr,
)
def test_ex_out_of_range_quotes_1_based_bounds(capsys, tmp_path, obj):
    path = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["message"] == "ex must be sorted within [1, 2]"


@pytest.mark.parametrize("verb", ["check", "explore"])
def test_huge_n_is_a_parse_error(capsys, tmp_path, verb):
    # n is compared with the shape of B before anything is sized by it
    path = write_json(tmp_path, "huge.json", {"m": 2, "n": 10**30, "B": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, [verb, path])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["message"] == f"B must be 2x{10**30}"


@pytest.mark.parametrize("verb", ["check", "principal-lambda"])
def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path, verb):
    # the JSON decoder recurses once per level; 100,000 levels exhaust it
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, [verb, str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "parse_error",
        "message": "JSON input nests too deeply",
    }


@pytest.mark.parametrize("argv", [["mutate", "--at", "1"], ["explore"]], ids=repr)
def test_exponent_out_of_range_exits_1(capsys, tmp_path, argv):
    # a well-formed seed whose frozen row drives an exponent past the
    # packed range is a domain failure, not a malformed file
    far = {"m": 3, "n": 2, "B": [[0, 1], [-1, 0], [10**30, 0]]}
    path = write_json(tmp_path, "far.json", far)
    code, out, err = run(capsys, ["check", path])
    assert code == 0
    code, out, err = run(capsys, [argv[0], path, *argv[1:]])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "out_of_range"
    assert "packed range" in payload["message"]


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


def test_mutate_quantum_seed(capsys, monkeypatch, m2n1_file):
    # the JSON record builds no text view: no variable is rendered with str()
    monkeypatch.setattr(TorusElement, "__str__", lambda self: pytest.fail("str() called"))
    code, out, err = run(capsys, ["mutate", m2n1_file, "--at", "1", "--full"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"]["Lambda"] == [[0, 1], [-1, 0]]
    assert "vars" in data["seed"]


@pytest.mark.parametrize("verb", [["mutate", "--at", "1,2"], ["specialize"]])
def test_text_format_builds_no_json_record(capsys, monkeypatch, a2q_file, verb):
    # the text view builds no JSON record: no report or variable is serialized
    for cls in (LaurentReport, TorusElement, CommLaurent):
        monkeypatch.setattr(cls, "to_json", lambda self: pytest.fail("to_json() called"))
    code, out, err = run(capsys, [verb[0], a2q_file, *verb[1:], "--full", "--format", "text"])
    assert code == 0 and err == ""
    assert "vars:" in out.splitlines()


def test_mutate_text_format(capsys, a2_file):
    code, out, err = run(capsys, ["mutate", a2_file, "--at", "1", "--format", "text"])
    assert code == 0
    assert "step 1: direction 1 Laurent" in out
    assert "B:" in out


@pytest.mark.parametrize("full", [False, True])
def test_mutate_text_lists_vars_only_with_full(capsys, a2q_file, full):
    argv = ["mutate", a2q_file, "--at", "1,2", "--format", "text"]
    code, out, err = run(capsys, argv + ["--full"] * full)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines.count("vars:") == full
    if full:
        assert lines[lines.index("vars:") + 1].startswith("  [1] ")


def test_mutate_frozen_direction_exits_2(capsys, m2n1_file):
    code, out, err = run(capsys, ["mutate", m2n1_file, "--at", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_mutate_bad_sequence_exits_2(capsys, a2_file):
    for bad in ("1,x", "0", "", "1_2", "+1", "１"):
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


# sha256 of the exact stdout bytes of `principal-lambda --full-seed` for A2
A2_FULL_SEED_SHA256 = "ed8f28b8503a13efdaafa3aa83c674c72ac18b9c70497dee41b75111057972c2"


def test_principal_lambda_a2_full_seed_bytes_pinned(capsys, tmp_path):
    path = write_json(tmp_path, "b2.json", {"B": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, ["principal-lambda", path, "--full-seed"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == A2_FULL_SEED_SHA256


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
        [[0, 1], [-1, 0]],
        {"b": [[0, 1], [-1, 0]]},
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


def test_principal_lambda_full_seed_text_prints_lambda_and_d_only(capsys, tmp_path):
    path = write_json(tmp_path, "b2.json", {"B": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, ["principal-lambda", path, "--full-seed", "--format", "text"])
    assert code == 0 and err == ""
    assert out == (
        "Lambda:\n"
        "   0  0 -1  0\n"
        "   0  0  0 -1\n"
        "   1  0  0 -1\n"
        "   0  1  1  0\n"
        "d: 1,1\n"
    )


def test_principal_lambda_text_right_aligns_mixed_widths(capsys, tmp_path):
    path = write_json(tmp_path, "b12.json", {"B": [[0, 1], [-12, 0]]})
    code, out, err = run(capsys, ["principal-lambda", path, "--format", "text"])
    assert code == 0 and err == ""
    assert out == (
        "Lambda:\n"
        "    0   0 -12   0\n"
        "    0   0   0  -1\n"
        "   12   0   0 -12\n"
        "    0   1  12   0\n"
        "d: 12,1\n"
    )


def test_specialize_text_without_full_prints_no_vars(capsys, tmp_path):
    path = write_json(tmp_path, "b2q.json", GOLDEN_FILES["b2q"])
    code, out, err = run(capsys, ["specialize", path, "--format", "text"])
    assert code == 0 and err == ""
    assert out == "m: 4\nn: 2\nex: 1,2\nB:\n   0  1\n  -2  0\n   1  0\n   0  1\n"


def test_check_text_reports_failed_verification(capsys, monkeypatch, tmp_path):
    # a well-formed quantum seed file always verifies, so fake a failure
    monkeypatch.setattr(
        "qcluster.cli.verify_quantum_seed", lambda seed: SeedVerification(None, (0, 1), None)
    )
    path = write_json(tmp_path, "b2q.json", GOLDEN_FILES["b2q"])
    code, out, err = run(capsys, ["check", path, "--format", "text"])
    assert code == 1
    assert out == (
        "type: quantum\n"
        "d: 2,1\n"
        "compatibility: ok\n"
        "quasi_commutation: FAILED\n"
        "quasi_commutation.first_failure: 1,2\n"
        "bar_invariance: ok\n"
        "FAILED\n"
    )
    assert json.loads(err)["error"] == "verification_failed"


@pytest.mark.parametrize(
    "verification, lines",
    [
        (
            SeedVerification(None, None, 1),
            ["bar_invariance: FAILED", "bar_invariance.first_failure: 2"],
        ),
        (
            SeedVerification("pairing gives d=(1, 1), seed stores d=(2, 1)", None, None),
            [
                "compatibility: FAILED",
                "compatibility.detail: pairing gives d=(1, 1), seed stores d=(2, 1)",
            ],
        ),
    ],
)
def test_check_text_shows_each_failure_detail(capsys, monkeypatch, tmp_path, verification, lines):
    # every detail of the JSON record follows its FAILED line, as name.key: value
    monkeypatch.setattr("qcluster.cli.verify_quantum_seed", lambda seed: verification)
    path = write_json(tmp_path, "b2q.json", GOLDEN_FILES["b2q"])
    code, out, _ = run(capsys, ["check", path, "--format", "text"])
    assert code == 1
    out_lines = out.splitlines()
    start = out_lines.index(lines[0])
    assert out_lines[start : start + len(lines)] == lines


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


# Every verb in order, with its handler, help line and each action's
# (class, option strings, dest, default, choices, required, help, type).
# Structure, not --help text, so no argparse wrapping or version enters.
HELP_ACTION = (
    "_HelpAction", ["-h", "--help"], "help", argparse.SUPPRESS, None, False,
    "show this help message and exit", None,
)
FULL = ("_StoreTrueAction", ["--full"], "full", False, None, False, "include variables in output", None)
JSON_TEXT = ("_StoreAction", ["--format"], "format", "json", ["json", "text"], False, None, None)


def input_action(help):
    return ("_StoreAction", [], "input", None, None, True, help, None)


PARSER_CONTRACT = [
    ("check", "_cmd_check", "validate a seed file and print its symmetrizer",
     [HELP_ACTION, input_action("seed JSON file"), JSON_TEXT]),
    ("mutate", "_cmd_mutate", "apply a mutation sequence", [
        HELP_ACTION,
        input_action("seed JSON file"),
        ("_StoreAction", ["--at"], "at", None, None, True, "comma-separated 1-based directions", None),
        FULL,
        JSON_TEXT,
    ]),
    ("explore", "_cmd_explore", "breadth-first exchange-graph closure", [
        HELP_ACTION,
        input_action("seed JSON file"),
        ("_StoreAction", ["--max-seeds"], "max_seeds", 10000, None, False, "negative = unlimited", int),
        ("_StoreAction", ["--max-depth"], "max_depth", 32, None, False, "negative = unlimited", int),
        ("_StoreTrueAction", ["--full"], "full", False, None, False, "embed variables in JSON nodes", None),
        ("_StoreAction", ["--format"], "format", "json", ["json", "dot", "text"], False, None, None),
    ]),
    ("specialize", "_cmd_specialize", "print the q=1 classical shadow",
     [HELP_ACTION, input_action("quantum seed JSON file"), FULL, JSON_TEXT]),
    ("principal-lambda", "_cmd_principal", "build the principal-coefficient frame from B", [
        HELP_ACTION,
        input_action("JSON file with B and optional Lambda0, D"),
        ("_StoreTrueAction", ["--full-seed"], "full_seed", False, None, False,
         "also emit a loadable 2n-seed", None),
        JSON_TEXT,
    ]),
]


def test_parser_contract():
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "qcluster", "Exact engine for classical and quantum cluster algebra seeds."
    )
    top = [(type(a).__name__, a.option_strings, a.dest, a.required) for a in parser._actions]
    assert top == [
        ("_HelpAction", ["-h", "--help"], "help", False),
        ("_SubParsersAction", [], "verb", True),
    ]
    sub = parser._actions[1]
    help_lines = {choice.dest: choice.help for choice in sub._choices_actions}
    got = [
        (verb, p.get_default("func").__name__, help_lines[verb], [
            (type(a).__name__, a.option_strings, a.dest, a.default, a.choices, a.required,
             a.help, a.type)
            for a in p._actions
        ])
        for verb, p in sub.choices.items()
    ]
    assert list(help_lines) == list(sub.choices)
    assert got == PARSER_CONTRACT


CONTEXT = {"seed": "the seed", "direction": 1, "path": (0, 1), "position": (2, 0), "step": 3}


@pytest.mark.parametrize(
    "error",
    [ClusterError, NotDivisibleError, IncompatibleError, NotSymmetrizableError, FrameMismatchError],
    ids=lambda error: error.__name__,
)
def test_error_context_reaches_the_payload(capsys, monkeypatch, a2_file, error):
    # every domain error takes the same keywords, each setting its own field
    for name, value in CONTEXT.items():
        exc = error("left the ring", **{name: value})
        assert {k: getattr(exc, k) for k in CONTEXT} == {
            k: value if k == name else None for k in CONTEXT
        }
    for count in range(1, len(CONTEXT) + 1):
        with pytest.raises(TypeError):
            error("left the ring", *list(CONTEXT.values())[:count])

    # explore never fails on a valid seed file, so raise its error by hand
    def failing(seed, **caps):
        raise error("left the ring", seed=seed, direction=1, path=(0, 1), position=(2, 0), step=3)

    monkeypatch.setattr("qcluster.cli.explore", failing)
    code, out, err = run(capsys, ["explore", a2_file])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": error.code,
        "message": "left the ring",
        "direction": 2,
        "path": [1, 2],
        "position": [3, 1],
        "step": 4,
    }


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
    for fmt in ("json", "text"):
        code, out, err = run(capsys, ["mutate", a2_file, "--at", "1", "--format", fmt])
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "not_divisible"
        assert payload["direction"] == 1
        # main's one ClusterError handler writes the 1-based step and direction
        assert err == (
            '{"direction": 1, "error": "not_divisible", '
            '"message": "no Laurent expression", "step": 1}\n'
        )
    assert out == "step 1: direction 1 FAILED: no Laurent expression\n"  # the text run


# -- golden bytes ----------------------------------------------------------

# Small seed files for the golden test: classical A2, B2 and G2, the
# principal quantum A2 and B2 seeds, the Kronecker matrix with one frozen
# row, and one malformed or failing input per non-zero exit code.
GOLDEN_FILES = {
    "a2": {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]]},
    "b2": {"m": 2, "n": 2, "B": [[0, 1], [-2, 0]]},
    "g2": {"m": 2, "n": 2, "B": [[0, 1], [-3, 0]]},
    "a2q": {
        "m": 4,
        "n": 2,
        "B": [[0, 1], [-1, 0], [1, 0], [0, 1]],
        "Lambda": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, 0]],
    },
    "b2q": {
        "m": 4,
        "n": 2,
        "B": [[0, 1], [-2, 0], [1, 0], [0, 1]],
        "Lambda": [[0, 0, -2, 0], [0, 0, 0, -1], [2, 0, 0, -2], [0, 1, 2, 0]],
    },
    "kron": {"m": 3, "n": 2, "B": [[0, 2], [-2, 0], [1, -1]]},
    "nosym": {"m": 2, "n": 2, "B": [[0, 1], [1, 0]]},
    "cycle": {"m": 3, "n": 3, "B": [[0, 1, -2], [-2, 0, 1], [1, -1, 0]]},
    "incompat": {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]], "Lambda": [[0, 0], [0, 0]]},
    "badlam": {"m": 2, "n": 2, "B": [[0, 1], [-1, 0]], "Lambda": 5},
    "pl_a2": {"B": [[0, 1], [-1, 0]]},
    "pl_b2": {"B": [[0, 1], [-2, 0]]},
    "pl_g2d": {"B": [[0, 1], [-3, 0]], "D": [6, 2]},
    "pl_b2l0": {"B": [[0, 1], [-2, 0]], "Lambda0": [[0, 3], [-3, 0]]},
    "pl_badd": {"B": [[0, 1], [-1, 0]], "D": [1, 3]},
    "pl_float": {"B": [[0, 1.5], [-1, 0]]},
}

# (verb, file, extra arguments, exit code)
GOLDEN_RUNS = [
    ("check", "a2", [], 0),
    ("check", "b2", [], 0),
    ("check", "g2", ["--format", "text"], 0),
    ("check", "a2q", [], 0),
    ("check", "b2q", ["--format", "text"], 0),
    ("check", "kron", [], 0),
    ("check", "nosym", [], 1),
    ("check", "cycle", [], 1),
    ("check", "incompat", [], 1),
    ("check", "badlam", [], 2),
    ("mutate", "a2", ["--at", "1,2,1"], 0),
    ("mutate", "b2", ["--at", "1,2", "--full"], 0),
    ("mutate", "g2", ["--at", "1,2,1,2", "--format", "text"], 0),
    ("mutate", "a2q", ["--at", "1,2", "--full"], 0),
    ("mutate", "b2q", ["--at", "2,1,2", "--format", "text"], 0),
    ("mutate", "b2q", ["--at", "2,1,2", "--full", "--format", "text"], 0),
    ("mutate", "kron", ["--at", "1,2,1", "--full"], 0),
    ("mutate", "a2q", ["--at", "3"], 2),
    ("explore", "a2", [], 0),
    ("explore", "b2", ["--format", "dot"], 0),
    ("explore", "g2", ["--format", "text"], 0),
    ("explore", "g2", ["--full"], 0),
    ("explore", "a2q", ["--full"], 0),
    ("explore", "b2q", [], 0),
    ("explore", "b2q", ["--format", "dot"], 0),
    ("explore", "kron", ["--max-depth", "4", "--full"], 0),
    ("explore", "kron", ["--max-depth", "4", "--format", "dot"], 0),
    ("explore", "kron", ["--max-depth", "4", "--format", "text"], 0),
    ("explore", "nosym", [], 1),
    ("specialize", "a2q", [], 0),
    ("specialize", "b2q", ["--full"], 0),
    ("specialize", "b2q", ["--full", "--format", "text"], 0),
    ("specialize", "a2", [], 2),
    ("principal-lambda", "pl_a2", [], 0),
    ("principal-lambda", "pl_b2", ["--full-seed"], 0),
    ("principal-lambda", "pl_g2d", ["--format", "text"], 0),
    ("principal-lambda", "pl_b2l0", ["--full-seed"], 0),
    ("principal-lambda", "pl_badd", [], 1),
    ("principal-lambda", "pl_float", [], 2),
]

# sha256 of each verb's stdout, concatenated in GOLDEN_RUNS order
GOLDEN_SHA256 = {
    "check": "be29331450bd623eff57437c3bc429df4769e69f237efa705e4c5146c2c9b4b7",
    "mutate": "a94f2ee697723898ee71a3c18acdbe381bc4d7396f82a0b42f2442413d9051dc",
    "explore": "5ed46b5652c217835ebf43382dce58064e462e6b396b6b988c0540d679ce5291",
    "specialize": "94ef561b6a716dbb7b5b03be11f6d5c08d86bd55da211f00b8e55516b974be6b",
    "principal-lambda": "b3a3e5d4c6e8ef9cdffcea1611b667af6e188b93d006ed139cedf4ca71e337d0",
}


def test_golden_cli_bytes(capsys, tmp_path):
    paths = {name: write_json(tmp_path, f"{name}.json", obj)
             for name, obj in GOLDEN_FILES.items()}
    stdout = dict.fromkeys(GOLDEN_SHA256, "")
    for verb, name, extra, expected in GOLDEN_RUNS:
        code, out, err = run(capsys, [verb, paths[name], *extra])
        assert code == expected, (verb, name, extra, err)
        stdout[verb] += out
    digests = {verb: hashlib.sha256(out.encode()).hexdigest()
               for verb, out in stdout.items()}
    assert digests == GOLDEN_SHA256


def printed_as_json_dumps(out):
    """True when stdout is json.dumps of the record it holds, indent 2, sorted keys."""
    return out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_golden_json_records_match_json_dumps(capsys, tmp_path):
    paths = {name: write_json(tmp_path, f"{name}.json", obj)
             for name, obj in GOLDEN_FILES.items()}
    checked = 0
    for verb, name, extra, _ in GOLDEN_RUNS:
        if "--format" in extra and extra[extra.index("--format") + 1] != "json":
            continue
        out = run(capsys, [verb, paths[name], *extra])[1]
        if out:
            assert printed_as_json_dumps(out), (verb, name, extra)
            checked += 1
    assert checked >= 18


# -- seeded fuzz -------------------------------------------------------------

FUZZ_BASES = ["a2", "b2", "g2", "a2q", "b2q", "kron"]
FUZZ_VALUES = [True, 1.5, "1", None, [], {}, 10**30, -1, 0]


def fuzz_edit(rng, obj):
    """One random edit of a seed dict, in place."""
    slots = [(obj, key) for key in obj]
    for value in obj.values():
        if isinstance(value, list):
            slots += [(value, i) for i in range(len(value))]
            for row in value:
                if isinstance(row, list):
                    slots += [(row, j) for j in range(len(row))]
    lists = [c[k] for c, k in slots if isinstance(c[k], list)]
    ints = [(c, k) for c, k in slots if type(c[k]) is int]
    kind = rng.choice(["drop_key", "retype", "append", "shorten", "flip"])
    if kind == "drop_key" and obj:
        del obj[rng.choice(sorted(obj))]
    elif kind == "retype" and slots:
        c, k = rng.choice(slots)
        c[k] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    elif kind == "append" and lists:
        rng.choice(lists).append(rng.choice([-1, 0, 1, 2]))
    elif kind == "shorten" and any(lists):
        row = rng.choice([row for row in lists if row])
        del row[rng.randrange(len(row))]
    elif kind == "flip" and ints:
        c, k = rng.choice(ints)
        c[k] = -c[k]


def test_seed_file_fuzz_never_escapes(capsys, tmp_path):
    rng = random.Random(0)
    path = tmp_path / "fuzz.json"
    for case in range(300):
        obj = copy.deepcopy(GOLDEN_FILES[rng.choice(FUZZ_BASES)])
        for _ in range(rng.randint(1, 2)):
            fuzz_edit(rng, obj)
        path.write_text(json.dumps(obj))
        for argv in (["check", str(path)], ["mutate", str(path), "--at", "1"]):
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"case {case} {obj} {argv[0]}: {type(exc).__name__}: {exc}")
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (case, obj, argv[0])
            assert not out or printed_as_json_dumps(out), (case, obj, argv[0])
            if code:
                assert err, (case, obj, argv[0])
                payload = json.loads(err.splitlines()[-1])
                assert isinstance(payload, dict), (case, obj, argv[0])
                assert {"error", "message"} <= payload.keys(), (case, obj, argv[0])
