from triadtopos.duality import dual_group, plr_group, plr_subgroup, sub_dual, ti_group
from triadtopos.enumeration import (
    CARRIER_NAMES,
    case_audit,
    closed_covered_sets,
    enumerate_rows,
)
from triadtopos.monoid import is_closed, natural_action
from triadtopos.topos import upgrade_table
from triadtopos.permgroup import all_subgroups, is_simply_transitive
from triadtopos.zmod import chord, maximal_cover, pcset

HEX_UNION_OCT = pcset({0, 1, 3, 4, 6, 7, 8, 9, 10, 11})


def test_closed_covered_sets_count_and_members():
    sets = closed_covered_sets()
    assert len(sets) == 70
    for name_carrier in CARRIER_NAMES:
        assert name_carrier in sets
    # the union of the hexatonic and octatonic carriers survives this
    # stage but is rejected later for lack of a simply transitive subgroup
    assert HEX_UNION_OCT in sets


def test_closed_covered_sets_independent_oracle():
    # re-verify both defining properties for every reported set
    act = natural_action()
    for s in closed_covered_sets():
        assert s
        assert is_closed(s, act)
        _, covered = maximal_cover(s)
        assert covered


def test_exactly_seven_rows():
    rows = enumerate_rows()
    assert len(rows) == 7
    assert [r.type_label for r in rows] == [
        "Major Chord",
        "Major-Minor Mixture",
        "Hexatonic",
        "Octatonic",
        "Major Triad Tritone Mixture",
        "Prometheus Tritone Mixture",
        "Chromatic Scale",
    ]


def test_an_equal_group_with_other_labels_does_not_relabel_the_plr_group():
    """The dual of T/I at C equals the PLR group but is labelled ρ(...);
    each group's subgroups keep that group's own labels, in either order."""
    dual = dual_group(ti_group(), chord("C"))
    assert dual == plr_group()
    assert all(p.label.startswith("ρ(") for s in all_subgroups(dual) for p in s.elements)
    assert {p.label for p in plr_subgroup("P", "L").elements} == {
        "Id", "P", "Q4", "Q8", "PQ4", "PQ8"
    }
    assert [r.subgroup_name for r in enumerate_rows()] == [
        "{Id}", "{Id,P}", "<P,L>", "<P,R>", "{Id,Q6}", "{Id,Q6,Sl,Q6Sl}", "PLR-group"
    ]
    assert len(case_audit().case1) == 6
    assert all(p.label.startswith("ρ(") for s in all_subgroups(dual) for p in s.elements)


def test_row_carriers_covers_subgroups():
    rows = {r.type_label: r for r in enumerate_rows()}

    def names(row):
        return [str(c) for c in row.cover]

    assert rows["Major Chord"].carrier == pcset({0, 4, 7})
    assert names(rows["Major Chord"]) == ["C"]
    assert rows["Major Chord"].subgroup_name == "{Id}"

    assert rows["Major-Minor Mixture"].carrier == pcset({0, 3, 4, 7})
    assert set(names(rows["Major-Minor Mixture"])) == {"C", "c"}
    assert rows["Major-Minor Mixture"].subgroup_name == "{Id,P}"

    assert rows["Hexatonic"].carrier == pcset({0, 3, 4, 7, 8, 11})
    assert set(names(rows["Hexatonic"])) == {"C", "c", "E", "e", "Ab", "ab"}
    assert rows["Hexatonic"].subgroup_name == "<P,L>"

    assert rows["Octatonic"].carrier == pcset({0, 1, 3, 4, 6, 7, 9, 10})
    assert set(names(rows["Octatonic"])) == {
        "C", "c", "Eb", "eb", "Gb", "gb", "A", "a",
    }
    assert rows["Octatonic"].subgroup_name == "<P,R>"

    assert rows["Major Triad Tritone Mixture"].carrier == pcset(
        {0, 1, 4, 6, 7, 10}
    )
    assert set(names(rows["Major Triad Tritone Mixture"])) == {"C", "Gb"}
    assert rows["Major Triad Tritone Mixture"].subgroup_name == "{Id,Q6}"

    assert rows["Prometheus Tritone Mixture"].carrier == pcset(
        {0, 1, 2, 4, 6, 7, 8, 10}
    )
    assert set(names(rows["Prometheus Tritone Mixture"])) == {"C", "db", "Gb", "g"}
    assert rows["Prometheus Tritone Mixture"].subgroup_name == "{Id,Q6,Sl,Q6Sl}"

    assert rows["Chromatic Scale"].carrier == pcset(range(12))
    assert len(rows["Chromatic Scale"].cover) == 24
    assert rows["Chromatic Scale"].subgroup_name == "PLR-group"


def test_upgrades_of_the_c_major_triad_are_row_carriers():
    """The corollary at the identity conjugator: each upgrade of {0,4,7} is
    a row carrier, named by the library's own subgroup names."""
    rows = {r.carrier: r.subgroup_name for r in enumerate_rows()}
    upgrades = upgrade_table(pcset({0, 4, 7}), natural_action())
    assert [(name, rows[carrier]) for name, carrier in upgrades] == [
        ("j_T", "{Id}"),
        ("j_P", "{Id,P}"),
        ("j_L", "<P,L>"),
        ("j_R", "<P,R>"),
        ("j_C", "PLR-group"),
        ("j_F", "PLR-group"),
    ]
    assert [carrier for _, carrier in upgrades[1:4]] == [
        pcset({0, 3, 4, 7}),
        pcset({0, 3, 4, 7, 8, 11}),
        pcset({0, 1, 3, 4, 6, 7, 9, 10}),
    ]


def test_hexatonic_octatonic_union_has_no_row():
    carriers = [r.carrier for r in enumerate_rows()]
    assert HEX_UNION_OCT not in carriers


def test_rows_reverify_soundness():
    for r in enumerate_rows():
        cover, covered = maximal_cover(r.carrier)
        assert covered
        assert set(cover) == set(r.cover)
        assert r.subgroup.is_group()
        assert is_simply_transitive(r.subgroup, r.cover)


def test_witness_subgroup_is_unique_per_carrier():
    # empirically, each surviving carrier admits exactly one witness
    seen = [r.carrier for r in enumerate_rows()]
    assert len(seen) == len(set(seen))


def test_tritone_rows_match_sub_dual_partners():
    rows = {r.type_label: r for r in enumerate_rows()}
    plr, ti = plr_group(), ti_group()

    q6 = rows["Major Triad Tritone Mixture"].subgroup
    system = sub_dual(ti, plr, sub_dual(plr, ti, q6, chord("C")).h0, chord("C"))
    assert {p.label for p in system.h0.elements} == {"Id", "Q6"}

    sl4 = rows["Prometheus Tritone Mixture"].subgroup
    partner = sub_dual(plr, ti, sl4, chord("C")).h0
    assert {p.label for p in partner.elements} == {"T0", "T6", "I2", "I8"}


def test_case_audit_case1():
    audit = case_audit()
    by_index = {l.generator_index: l for l in audit.case1}
    assert sorted(by_index) == [0, 1, 2, 3, 4, 6]
    for l in audit.case1:
        assert l.closed  # every orbit pitch union is monoid-closed
    assert by_index[0].pitch_union == pcset({0, 3, 4, 7})
    assert by_index[1].pitch_union == pcset(range(12))
    assert by_index[2].pitch_union == pcset(range(12))
    assert by_index[3].pitch_union == pcset({0, 1, 3, 4, 6, 7, 9, 10})
    assert by_index[4].pitch_union == pcset({0, 3, 4, 7, 8, 11})
    assert by_index[6].pitch_union == pcset({0, 1, 3, 4, 6, 7, 9, 10})
    # <P,Q2> fills the chromatic scale but is too small for the full cover,
    # and <P,Q6> lands on the octatonic with only four elements
    assert by_index[2].simply_transitive_on_max_cover is False
    assert by_index[6].simply_transitive_on_max_cover is False
    for i in (0, 1, 3, 4):
        assert by_index[i].simply_transitive_on_max_cover is True


def test_case_audit_case2():
    audit = case_audit()
    excluded = audit.case2.excluded_pitches
    assert sorted(excluded) == [3, 5, 9]
    for pitch, (major, minor) in excluded.items():
        assert minor == major.lower()
        assert chord(major).root == chord(minor).root
    assert audit.case2.h_candidates == (
        ("T0", "T6"),
        ("T0", "T6", "I2", "I8"),
    )
