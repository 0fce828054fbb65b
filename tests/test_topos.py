import itertools
import re

import pytest

from triadtopos.monoid import conjugated_action, natural_action, triadic_monoid
from triadtopos.topos import (
    EMPTY_NAME,
    NotClosedError,
    characteristic_morphism,
    left_ideals,
    lt_topologies,
    omega_action,
    omega_by_name,
    topology_by_name,
    upgrade,
    upgrade_table,
)
from triadtopos.zmod import AffineMap, pcset, ti_group_maps

C_CHORD = pcset({0, 4, 7})

HEXATONIC = pcset({0, 3, 4, 7, 8, 11})
OCTATONIC = pcset({0, 1, 3, 4, 6, 7, 9, 10})
FULL = pcset(range(12))


def all_closed_sets():
    act = natural_action()
    from triadtopos.monoid import is_closed

    return [
        frozenset(z for z in range(12) if bits >> z & 1)
        for bits in range(2**12)
        if is_closed(frozenset(z for z in range(12) if bits >> z & 1), act)
    ]


# ---------------------------------------------------------------------------
# left ideals and the classifier action
# ---------------------------------------------------------------------------


def test_exactly_six_left_ideals():
    ideals = left_ideals()
    assert [o.name for o in ideals] == [EMPTY_NAME, "C", "L", "R", "P", "T"]
    by_name = {o.name: o.members for o in ideals}
    assert by_name["C"] == frozenset({"a", "b", "c"})
    assert by_name["L"] == frozenset({"a", "b", "c", "f", "f2"})
    assert by_name["R"] == frozenset({"a", "b", "c", "g", "g2"})
    assert by_name["P"] == frozenset({"a", "b", "c", "f", "f2", "g", "g2"})
    assert by_name["T"] == frozenset(triadic_monoid().labels)
    assert by_name[EMPTY_NAME] == frozenset()


def test_left_ideal_oracle_brute_force():
    # independent scan: a left ideal satisfies t∘b in B for all t, b in B
    m = triadic_monoid()
    count = 0
    for r in range(9):
        for combo in itertools.combinations(m.labels, r):
            b = frozenset(combo)
            if all(m.compose_labels(t, x) in b for t in m.labels for x in b):
                count += 1
    assert count == 6


def test_e_f_is_not_an_ideal():
    m = triadic_monoid()
    b = frozenset({"e", "f"})
    assert m.compose_labels("g", "e") == "g"
    assert not all(m.compose_labels(t, x) in b for t in m.labels for x in b)


def test_omega_action_examples():
    for o in left_ideals():
        assert omega_action("e", o) == o
        assert omega_action("f", omega_by_name("T")) == omega_by_name("T")
    assert omega_action("f", omega_by_name("C")) == omega_by_name("R")


def test_unknown_omega_and_monoid_names_raise_value_errors_naming_them():
    lookups = {
        "'X'": lambda: omega_by_name("X"),
        "'Y'": lambda: lt_topologies()[0]("Y"),
        "'zz'": lambda: omega_action("zz", omega_by_name("C")),
        "'zy'": lambda: triadic_monoid().element("zy"),
        "'zx'": lambda: triadic_monoid().compose_labels("zx", "e"),
        "'zw'": lambda: natural_action().act_label("zw", 0),
        "AffineMap(m=5, b=0)": lambda: natural_action().act(AffineMap(5, 0), 1),
    }
    for name, lookup in lookups.items():
        with pytest.raises(ValueError, match=re.escape(name)):
            lookup()


def test_omega_action_well_defined_and_axiom():
    m = triadic_monoid()
    ideals = left_ideals()
    for t in m.labels:
        for b in ideals:
            omega_action(t, b)  # raises if the image is not an ideal
    for t1 in m.labels:
        for t2 in m.labels:
            for b in ideals:
                composed = m.compose_labels(t1, t2)
                assert omega_action(composed, b) == omega_action(
                    t1, omega_action(t2, b)
                )


def test_ideals_closed_under_intersection():
    members = {o.members for o in left_ideals()}
    for r in members:
        for s in members:
            assert r & s in members


# ---------------------------------------------------------------------------
# Lawvere-Tierney topologies
# ---------------------------------------------------------------------------


def test_exactly_six_topologies():
    js = lt_topologies()
    assert len(js) == 6
    assert [j.name for j in js] == ["j_T", "j_P", "j_L", "j_R", "j_C", "j_F"]


def test_identity_topology():
    j = topology_by_name("j_T")
    assert all(src == dst for src, dst in j.table)


def test_constant_top_map_is_a_topology():
    js = {j.name: j.mapping() for j in lt_topologies()}
    assert js["j_F"] == {o.name: "T" for o in left_ideals()}


def test_topology_axioms_hold_for_all_six():
    ideals = left_ideals()
    by_members = {o.members: o for o in ideals}
    m = triadic_monoid()
    for j in lt_topologies():
        assert j("T").name == "T"
        for o in ideals:
            assert j(j(o)) == j(o)
            for t in m.labels:
                assert j(omega_action(t, o)) == omega_action(t, j(o))
            for o2 in ideals:
                meet = by_members[o.members & o2.members]
                assert j(meet).members == j(o).members & j(o2).members


# ---------------------------------------------------------------------------
# characteristic morphisms
# ---------------------------------------------------------------------------


def test_chi_table_for_c_chord():
    chi = characteristic_morphism(C_CHORD, natural_action())
    assert chi.table == ("T", "R", "C", "P", "T", "C", "R", "T", "L", "R", "R", "L")


def test_chi_of_full_set_is_constant_top():
    chi = characteristic_morphism(FULL, natural_action())
    assert set(chi.table) == {"T"}


def test_chi_preimage_of_top_is_the_subset():
    act = natural_action()
    for d in all_closed_sets():
        chi = characteristic_morphism(d, act)
        assert frozenset(z for z in range(12) if chi.table[z] == "T") == d


def test_chi_equivariance_every_closed_set():
    act = natural_action()
    m = act.monoid
    for d in all_closed_sets():
        chi = characteristic_morphism(d, act)
        for t in m.labels:
            for z in range(12):
                assert chi.table[act.act_label(t, z)] == omega_action(
                    t, omega_by_name(chi.table[z])
                ).name


def test_chi_rejects_non_closed():
    with pytest.raises(NotClosedError):
        characteristic_morphism(pcset({0, 4, 5, 7}), natural_action())


def test_chi_of_conjugated_seed_is_precomposition():
    for phi in ti_group_maps():
        act = conjugated_action(phi)
        seed = phi.apply_set(C_CHORD)
        chi_conj = characteristic_morphism(seed, act)
        chi_nat = characteristic_morphism(C_CHORD, natural_action())
        phi_inv = phi.inverse()
        assert chi_conj.table == tuple(chi_nat.table[phi_inv(z)] for z in range(12))


# ---------------------------------------------------------------------------
# upgrades
# ---------------------------------------------------------------------------


def test_upgrade_table_for_c_chord():
    got = dict(upgrade_table(C_CHORD, natural_action()))
    assert got == {
        "j_T": C_CHORD,
        "j_P": pcset({0, 3, 4, 7}),
        "j_L": HEXATONIC,
        "j_R": OCTATONIC,
        "j_C": FULL,
        "j_F": FULL,
    }


def test_upgrade_contains_and_closed():
    act = natural_action()
    from triadtopos.monoid import is_closed

    for d in all_closed_sets():
        for j in lt_topologies():
            up = upgrade(d, act, j)
            assert d <= up
            assert is_closed(up, act)


def test_upgrade_idempotent():
    act = natural_action()
    for d in all_closed_sets():
        for j in lt_topologies():
            up = upgrade(d, act, j)
            assert upgrade(up, act, j) == up


def test_upgrade_monotone_on_c_chord():
    got = dict(upgrade_table(C_CHORD, natural_action()))
    assert got["j_T"] <= got["j_P"] <= got["j_L"]
    assert got["j_P"] <= got["j_R"]


def test_conjugated_upgrade_two_path_equality_all_cases():
    # 24 conjugators x 6 topologies
    for phi in ti_group_maps():
        act = conjugated_action(phi)
        seed = phi.apply_set(C_CHORD)
        for j in lt_topologies():
            assert upgrade(seed, act, j) == phi.apply_set(
                upgrade(C_CHORD, natural_action(), j)
            )


def test_conjugated_upgrade_tables_at_t1_and_i0():
    for phi, name, expected in (
        (AffineMap(1, 1), "j_L", pcset({1, 4, 5, 8, 9, 0})),
        (AffineMap(11, 0), "j_P", pcset({0, 9, 8, 5})),
    ):
        got = dict(upgrade_table(phi.apply_set(C_CHORD), conjugated_action(phi)))
        assert got[name] == expected


def test_conjugated_upgrade_covers_are_phi_images():
    from triadtopos.zmod import maximal_cover, transform_chord

    base = dict(upgrade_table(C_CHORD, natural_action()))
    for phi in ti_group_maps():
        for name, carrier in upgrade_table(phi.apply_set(C_CHORD), conjugated_action(phi)):
            cover, _ = maximal_cover(carrier)
            base_cover, _ = maximal_cover(base[name])
            assert set(cover) == {transform_chord(phi, c) for c in base_cover}


def test_upgrade_table_computes_chi_once(monkeypatch):
    import triadtopos.topos as topos

    lt_topologies()  # the scan's own χ is not counted
    calls = []
    original = topos.characteristic_morphism

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(topos, "characteristic_morphism", spy)
    phi = AffineMap(11, 5)
    assert len(upgrade_table(phi.apply_set(C_CHORD), conjugated_action(phi))) == 6
    assert len(calls) == 1
