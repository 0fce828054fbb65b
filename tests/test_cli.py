import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from triadtopos import enumeration, permgroup
from triadtopos.cli import build_parser, main

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("monoid.txt", ("monoid",)),
        ("omega.txt", ("omega",)),
        ("topologies.txt", ("topologies",)),
        ("chi_c.txt", ("chi", "--set", "0,4,7")),
        ("dual_pl_eb.txt", ("dual", "--group", "PL", "--seed", "Eb")),
        ("systems_pr.txt", ("systems", "--group", "PR")),
        ("enumerate.txt", ("enumerate",)),
        ("audit.txt", ("audit",)),
    ],
)
def test_text_output_matches_golden(capsys, golden, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDENS / golden).read_text(encoding="utf-8")


def test_upgrade_text(capsys):
    code, out, _ = run(capsys, "upgrade", "--set", "0,4,7", "--topology", "L")
    assert code == 0
    assert out.strip() == "{0,3,4,7,8,11}"
    code, out, _ = run(capsys, "upgrade", "--set", "0,4,7", "--topology", "R")
    assert out.strip() == "{0,1,3,4,6,7,9,10}"


def test_upgrade_conjugated(capsys):
    code, out, _ = run(
        capsys, "upgrade", "--set", "1,5,8", "--topology", "P", "--conjugate", "T1"
    )
    assert code == 0
    assert out.strip() == "{1,4,5,8}"


def test_chi_json(capsys):
    code, out, _ = run(capsys, "chi", "--set", "0,4,7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["set"] == [0, 4, 7]
    assert payload["table"] == [
        "T", "R", "C", "P", "T", "C", "R", "T", "L", "R", "R", "L",
    ]


def test_monoid_json(capsys):
    code, out, _ = run(capsys, "monoid", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert [e["label"] for e in payload["elements"]] == [
        "e", "f", "f2", "g", "g2", "a", "b", "c",
    ]
    assert payload["composition_table"][0] == [
        "e", "f", "f2", "g", "g2", "a", "b", "c",
    ]


def test_monoid_text_renders_the_labels_of_its_payload():
    args = build_parser().parse_args(["monoid"])
    payload = args.build(args)
    rename = {e["label"]: e["label"].upper() + "'" for e in payload["elements"]}
    for e in payload["elements"]:
        e["label"] = rename[e["label"]]
    payload["composition_table"] = [
        [rename[v] for v in row] for row in payload["composition_table"]
    ]
    table = args.render(payload, args).split("Composition table")[1].splitlines()[1:]
    assert table[0].split("|")[1].split() == list(rename.values())
    assert table[2].split() == ["E'", "|", *rename.values()]
    assert all(old not in line.split() for line in table for old in rename)


def test_topologies_json(capsys):
    code, out, _ = run(capsys, "topologies", "--format", "json")
    payload = json.loads(out)
    assert [j["name"] for j in payload] == ["j_T", "j_P", "j_L", "j_R", "j_C", "j_F"]
    assert payload[2]["table"]["C"] == "R"


def test_dual_json_round_trip(capsys):
    code, out, _ = run(capsys, "dual", "--group", "PR", "--seed", "C", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["orbit"] == ["C", "c", "Eb", "eb", "Gb", "gb", "A", "a"]
    assert payload["partner"] == ["T0", "T3", "T6", "T9", "I1", "I4", "I7", "I10"]
    labels = [p["label"] for p in payload["g0_restricted"]]
    assert labels == ["Id", "Q3", "Q6", "Q9", "P", "PQ3", "PQ6", "PQ9"]


def test_enumerate_json_then_verify_ok(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "enumerate", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 7

    path = tmp_path / "rows.json"
    path.write_text(out, encoding="utf-8")
    code, out2, err2 = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert out2.strip() == "OK: 7 rows verified"

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
    code, out3, _ = run(capsys, "verify")
    assert code == 0


def test_verify_rejects_corrupted_rows(capsys, tmp_path):
    _, out, _ = run(capsys, "enumerate", "--format", "json")
    rows = json.loads(out)
    rows[0]["carrier"] = [0, 4, 7, 9]  # still covered, but cover/group wrong
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "maximal cover" in err


def test_verify_rejects_unclosed_carrier(capsys, tmp_path):
    _, out, _ = run(capsys, "enumerate", "--format", "json")
    rows = json.loads(out)[:1]
    rows[0]["carrier"] = [0, 3, 7]  # a lone minor triad is not monoid-closed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "not closed" in err


@pytest.mark.parametrize(
    "index,field,value",
    [
        (0, "carrier", [0, 4, 7, 12]),
        (0, "carrier", [7, 4, 0]),
        (1, "carrier", [0, 3, 3, 4, 7]),
        (1, "subgroup", "<P,L>"),
        (2, "name", "Octatonic"),
    ],
)
def test_verify_rejects_mutated_field(capsys, monkeypatch, index, field, value):
    _, out, _ = run(capsys, "enumerate", "--format", "json")
    rows = json.loads(out)

    def verify():
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        return run(capsys, "verify")

    assert verify() == (0, "OK: 7 rows verified\n", "")
    rows[index][field] = value
    code, out, err = verify()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"row {index} (") and field in err


def test_malformed_pitch_set_is_usage_error(capsys):
    code, _, err = run(capsys, "chi", "--set", "0,4,x")
    assert code == 2
    assert "error" in err


def test_empty_conjugator_is_usage_error(capsys):
    code, out, err = run(capsys, "chi", "--set", "0,4,7", "--conjugate", "")
    assert code == 2
    assert out == ""
    assert err == "error: malformed T/I element name ''\n"


def test_non_closed_set_is_usage_error(capsys):
    code, _, err = run(capsys, "chi", "--set", "0,4,5,7")
    assert code == 2


def test_search_bound_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(permgroup.SEARCH_BOUNDS, "subgroups", 23)
    code, out, err = run(capsys, "enumerate")
    assert (code, out) == (1, "")
    assert err == "refused: subgroups search bounded at size 23, got 24\n"


def test_other_runtime_errors_are_not_refusals(monkeypatch):
    def fail():
        raise RuntimeError("not a bound")

    monkeypatch.setattr(enumeration, "enumerate_rows", fail)
    with pytest.raises(RuntimeError, match="not a bound"):
        main(["enumerate"])


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_chord_seed_is_usage_error(capsys):
    code, _, err = run(capsys, "dual", "--group", "PL", "--seed", "H")
    assert code == 2


#: Golden stem -> argv of each table subcommand; `<stem>.json` holds its
#: `--format json` stdout.
TABLE_ARGV = {
    "monoid": ("monoid",),
    "omega": ("omega",),
    "topologies": ("topologies",),
    "chi_c": ("chi", "--set", "0,4,7"),
    "upgrade_c_l": ("upgrade", "--set", "0,4,7", "--topology", "L"),
    "dual_pl_eb": ("dual", "--group", "PL", "--seed", "Eb"),
    "systems_pr": ("systems", "--group", "PR"),
    "enumerate": ("enumerate",),
    "audit": ("audit",),
}


@pytest.mark.parametrize("stem", TABLE_ARGV)
def test_json_output_matches_golden(capsys, stem):
    code, out, err = run(capsys, *TABLE_ARGV[stem], "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDENS / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", TABLE_ARGV)
def test_text_is_rendered_from_the_json_payload(capsys, stem):
    argv = list(TABLE_ARGV[stem])
    _, payload, _ = run(capsys, *argv, "--format", "json")
    _, text, _ = run(capsys, *argv)
    args = build_parser().parse_args(argv)
    assert args.render(json.loads(payload), args) + "\n" == text


def verify_stdin(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "verify")


@pytest.mark.parametrize("text", ['{"a":1}', "null", "", "[[", "not json", '"rows"'])
def test_verify_envelope_problem_is_usage_error(capsys, monkeypatch, text):
    code, out, err = verify_stdin(capsys, monkeypatch, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "<stdin>" in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_verify_unreadable_input_is_usage_error(capsys, tmp_path, name):
    path = str(tmp_path / name)
    code, out, err = run(capsys, "verify", "--input", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read JSON rows from {path}: ")
    assert err.count("\n") == 1


def test_verify_takes_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "json"])
    assert exc.value.code == 2


ENUMERATE_ROWS = json.loads((GOLDENS / "enumerate.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "rows,problem",
    [
        ([{}], "field 'carrier' is missing"),
        ([1], "not a JSON object"),
        ([[0, 4, 7]], "not a JSON object"),
        ([{**ENUMERATE_ROWS[0], "cover": "C"}], "field 'cover'"),
        ([{**ENUMERATE_ROWS[0], "subgroup_elements": "Id"}], "field 'subgroup_elements'"),
        ([{**ENUMERATE_ROWS[0], "subgroup_elements": [["Id"]]}], "field 'subgroup_elements'"),
        ([{**ENUMERATE_ROWS[0], "name": 5}], "field 'name'"),
        ([{**ENUMERATE_ROWS[0], "carrier": [True, 4, 7]}], "field 'carrier'"),
        ([{**ENUMERATE_ROWS[0], "carrier": [], "cover": []}], "carrier []"),
        ([{k: v for k, v in ENUMERATE_ROWS[0].items() if k != "subgroup"}], "'subgroup'"),
    ],
)
def test_verify_malformed_row_is_refused(capsys, monkeypatch, rows, problem):
    code, out, err = verify_stdin(capsys, monkeypatch, json.dumps(rows))
    assert (code, out) == (1, "")
    assert err.startswith("row 0 (") and problem in err and err.count("\n") == 1


def test_verify_refuses_carrier_without_triads(capsys, monkeypatch):
    row = {**ENUMERATE_ROWS[0], "carrier": [2], "cover": [], "subgroup_elements": ["Id"]}
    code, out, err = verify_stdin(capsys, monkeypatch, json.dumps([row]))
    assert (code, out) == (1, "")
    assert "row 0 (Major Chord): carrier not covered by its triads\n" in err


@pytest.mark.parametrize(
    "argv,token",
    [
        (("upgrade", "--set", "0,4,7", "--topology", "P", "--conjugate", "T99"), "'T99'"),
        (("chi", "--set", "0,4,7", "--conjugate", "I12"), "'I12'"),
        (("chi", "--set", "0,4,7,12"), "pitch class 12 in '0,4,7,12'"),
        (("chi", "--set=-5,-1,2"), "pitch class -5 in '-5,-1,2'"),
    ],
)
def test_out_of_range_argument_is_usage_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and token in err and err.count("\n") == 1


def exit_code(argv, stdin="") -> int:
    """main's exit code, allowing argparse's SystemExit(2) and nothing else."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return 2


def tokens(*valid):
    return st.sampled_from(valid) | st.text(max_size=10)


#: Fuzzed option values: a few that parse (or nearly do), or any text.
OPTIONS = {
    "--set": tokens("0,4,7", "0,3,4,7", "1,5,8", "0,4,5,7", "0,4,7,12", "-5,-1,2", ""),
    "--conjugate": tokens("T5", "I11", "T12", "I-1", "t3", ""),
    "--seed": tokens("Eb", "c", "Gb", "H", ""),
    "--group": tokens("PL", "PR", "PLR"),
    "--topology": tokens("T", "L", "chromatic1"),
    "--format": tokens("text", "json"),
}
#: The options each fuzzed subcommand requires; any may also get others.
REQUIRED = {"chi": ["--set"], "upgrade": ["--set", "--topology"], "dual": ["--group", "--seed"],
            "verify": []}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(REQUIRED)),
    st.lists(st.sampled_from(["--conjugate", "--seed", "--group", "--format"]), max_size=2),
    st.data(),
)
def test_fuzzed_argv_exits_0_1_or_2(command, extra, data):
    flags = REQUIRED[command] + extra
    argv = [command, *(f"{flag}={data.draw(OPTIONS[flag])}" for flag in flags)]
    assert exit_code(argv, "[]") in (0, 1, 2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.text(max_size=4)
    | st.sampled_from(["C", "c", "Id", "P", "Q4", "Hexatonic", "<P,L>"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(list(ENUMERATE_ROWS[0])) | st.text(max_size=3), inner),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_fuzzed_verify_input_exits_0_1_or_2(value):
    assert exit_code(["verify"], json.dumps(value)) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(ENUMERATE_ROWS) - 1), st.sampled_from(list(ENUMERATE_ROWS[0])), JSON_VALUES
)
def test_real_rows_with_one_field_replaced(index, field, value):
    rows = json.loads(json.dumps(ENUMERATE_ROWS))
    rows[index][field] = value
    code = exit_code(["verify"], json.dumps(rows))
    if value == ENUMERATE_ROWS[index][field]:
        assert code == 0
    else:
        assert code in (0, 1)


def reverse(field):
    return lambda row: row[field].reverse()


@pytest.mark.parametrize(
    "mutate,problem",
    [
        (reverse("cover"), "stated cover is not the maximal cover in triad order"),
        (reverse("subgroup_elements"),
         "stated subgroup elements are not distinct labels in label order"),
        (lambda row: row["subgroup_elements"].append("Id"),
         "stated subgroup elements are not distinct labels in label order"),
    ],
)
def test_verify_refuses_lists_enumerate_would_not_emit(capsys, monkeypatch, mutate, problem):
    rows = json.loads(json.dumps(ENUMERATE_ROWS))
    assert verify_stdin(capsys, monkeypatch, json.dumps(rows)) == (0, "OK: 7 rows verified\n", "")
    mutate(rows[2])
    code, out, err = verify_stdin(capsys, monkeypatch, json.dumps(rows))
    assert (code, out) == (1, "")
    assert err == f"row 2 (Hexatonic): {problem}\n"


def test_verify_refuses_reordered_and_repeated_lists_together(capsys, monkeypatch):
    rows = json.loads(json.dumps(ENUMERATE_ROWS))
    for mutate in (reverse("cover"), reverse("subgroup_elements")):
        mutate(rows[2])
    rows[2]["subgroup_elements"].append("Id")
    code, out, err = verify_stdin(capsys, monkeypatch, json.dumps(rows))
    assert (code, out) == (1, "")
    assert err.count("\n") == 2 and all(l.startswith("row 2 (Hexatonic): ") for l in err.splitlines())


@pytest.mark.parametrize(
    "argv,token",
    [
        (("chi", "--set", "0,4,7", "--conjugate", "T03"), "'T03'"),
        (("chi", "--set", "0,4,7", "--conjugate", "I٣"), "'I٣'"),
        (("chi", "--set", "07,4,0"), "'07,4,0'"),
        (("chi", "--set", "٠,٤,٧"), "'٠,٤,٧'"),
        (("chi", "--set", "+0,4,7"), "'+0,4,7'"),
        (("chi", "--set=-0,4,7"), "'-0,4,7'"),
    ],
)
def test_non_canonical_argument_is_usage_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed ") and token in err and err.count("\n") == 1
