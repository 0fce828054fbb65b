import io
import json
from pathlib import Path

import pytest

from triadtopos.cli import main

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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_chord_seed_is_usage_error(capsys):
    code, _, err = run(capsys, "dual", "--group", "PL", "--seed", "H")
    assert code == 2
