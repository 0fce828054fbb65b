import pytest

from conftest import perm_from_cycles
from triadtopos.duality import (
    CHORD_CARRIER,
    CHORDS,
    AbstractGroup,
    NotCommutingError,
    NotSimplyTransitiveError,
    all_orbits,
    dual_group,
    extend_commuting,
    plr_group,
    plr_named,
    plr_subgroup,
    regular_representations,
    sub_dual,
    ti_group,
    ti_perm,
    transform_orbit,
    verify_dual,
)
from triadtopos.duality import restrict
from triadtopos.permgroup import (
    Carrier,
    PermGroup,
    Permutation,
    SearchBoundExceeded,
    centralizer_brute,
    close_generators,
    is_simply_transitive,
    orbit,
)
from triadtopos.zmod import Chord, Quality, chord, inversion, transposition


# ---------------------------------------------------------------------------
# regular representations
# ---------------------------------------------------------------------------


def test_regular_representation_z2():
    lam, rho = regular_representations(AbstractGroup.cyclic(2))
    assert lam.elements == rho.elements
    assert {p.cycle_notation() for p in lam.elements} == {"()", "(r0 r1)"}


@pytest.mark.parametrize(
    "group", [AbstractGroup.cyclic(2), AbstractGroup.cyclic(4), AbstractGroup.symmetric(3)]
)
def test_regular_representations_are_dual(group):
    lam, rho = regular_representations(group)
    n = len(group.labels)
    assert len(lam) == len(rho) == n
    assert is_simply_transitive(lam, lam.carrier.points)
    assert is_simply_transitive(rho, rho.carrier.points)
    # brute-force centralizers both ways
    assert centralizer_brute(lam).elements == rho.elements
    assert centralizer_brute(rho).elements == lam.elements
    assert verify_dual(lam, rho)


def test_regular_representation_commutation_witness():
    g = AbstractGroup.symmetric(3)
    lam, rho = regular_representations(g)
    for a in lam.elements:
        for b in rho.elements:
            assert a.commutes_with(b)


def test_regular_representations_bound_refusal():
    with pytest.raises(SearchBoundExceeded):
        regular_representations(AbstractGroup.cyclic(25))


def test_abstract_group_identity_and_inverses():
    g = AbstractGroup.symmetric(3)
    assert g.labels[g.identity] == "012"
    for i in range(len(g.labels)):
        assert g.table[i][g.inverse(i)] == g.identity


def test_abstract_group_rejects_bad_table():
    with pytest.raises(ValueError):
        AbstractGroup(("x", "y"), ((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# the dual-group construction and the PLR group
# ---------------------------------------------------------------------------


def test_dual_group_of_ti_is_plr(ti, plr):
    dual = dual_group(ti, chord("C"))
    assert dual.elements == plr.elements
    assert len(dual) == 24
    by_label = {p.label: p for p in dual.elements}
    assert by_label["ρ(I7)"](chord("C")) == chord("c")
    assert by_label["ρ(I11)"](chord("C")) == chord("e")
    assert by_label["ρ(I4)"](chord("C")) == chord("a")
    assert by_label["ρ(I7)"] == plr_named("P")
    assert by_label["ρ(I11)"] == plr_named("L")
    assert by_label["ρ(I4)"] == plr_named("R")


def test_dual_group_base_point_independent(ti, plr):
    for s0 in CHORD_CARRIER.points:
        assert dual_group(ti, s0).elements == plr.elements


def test_dual_group_requires_simple_transitivity():
    pl = plr_subgroup("P", "L")
    with pytest.raises(NotSimplyTransitiveError):
        dual_group(pl, chord("C"))


def test_plr_elements_are_qk_and_pqk(plr):
    labels = {p.label for p in plr.elements}
    assert labels == {"Id"} | {f"Q{k}" for k in range(1, 12)} | {"P"} | {
        f"PQ{k}" for k in range(1, 12)
    }


def _q(k, c):
    """Q_k from its definition: majors up k semitones, minors down k."""
    return Chord(c.root + k if c.quality is Quality.MAJOR else c.root - k, c.quality)


def _parallel(c):
    flip = Quality.MINOR if c.quality is Quality.MAJOR else Quality.MAJOR
    return Chord(c.root, flip)


def test_every_plr_label_acts_on_all_triads(plr):
    """Qk and PQk = P*Qk, checked against their definitions on all 24 triads."""
    for p in plr.elements:
        k = 0 if p.label in ("Id", "P") else int(p.label.lstrip("PQ"))
        for c in CHORDS:
            expected = _q(k, c)
            if p.label.startswith("P"):
                expected = _parallel(expected)
            assert p(c) == expected, (p.label, c)


def test_plr_aliases_are_labeled_elements():
    assert plr_named("L").images == plr_named("PQ4").images
    assert plr_named("R").images == plr_named("PQ9").images
    assert plr_named("Q0").images == plr_named("Id").images


def test_plr_p_l_r_as_right_multiplication(ti):
    # P, L, R send T_n{0,4,7} to T_n*I_k{0,4,7} for k = 7, 11, 4
    for name, k in (("P", 7), ("L", 11), ("R", 4)):
        op = plr_named(name)
        for n in range(12):
            src = transposition(n).apply_set(chord("C").pitches())
            dst = transposition(n).compose(inversion(k)).apply_set(chord("C").pitches())
            from triadtopos.zmod import chord_from_pitches

            assert op(chord_from_pitches(src)) == chord_from_pitches(dst)


def test_r_of_c_is_a_minor():
    assert plr_named("R")(chord("C")) == chord("a")


def test_l_and_r_decompositions():
    assert plr_named("L") == plr_named("P") * plr_named("Q4")
    assert plr_named("R") == plr_named("P") * plr_named("Q9")


def test_slide_is_p_q1():
    assert plr_named("Sl") == plr_named("P") * plr_named("Q1")
    assert plr_named("Sl")(chord("C")) == chord("db")


def test_slide_holds_the_third_and_moves_root_and_fifth_a_semitone():
    """The slide's definition, checked on all 24 triads: the third is held,
    and root and fifth move a semitone, up for majors and down for minors."""
    slide = plr_named("Sl")
    assert slide.label == "Sl"

    def third(c):
        return (c.root + (4 if c.quality is Quality.MAJOR else 3)) % 12

    for x in CHORDS:
        y = slide(x)
        step = 1 if x.quality is Quality.MAJOR else -1
        assert third(y) == third(x)
        assert y.pitches() == {(x.root + step) % 12, third(x), (x.root + 7 + step) % 12}


def test_slide_orbit_closed():
    sub = close_generators([plr_named("Q6"), plr_named("Sl")], CHORD_CARRIER)
    assert len(sub) == 4
    assert orbit(sub, chord("C")) == {chord(n) for n in ("C", "db", "Gb", "g")}


def test_verify_dual(ti, plr):
    assert verify_dual(ti, plr)
    pl = plr_subgroup("P", "L")
    assert not verify_dual(pl, pl)


def test_plr_commutes_with_ti_elementwise(ti, plr):
    for p in ti.elements:
        for q in plr.elements:
            assert p.commutes_with(q)


# ---------------------------------------------------------------------------
# sub-dual systems: hexatonic and octatonic
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hexatonic(ti, plr):
    return sub_dual(plr, ti, plr_subgroup("P", "L"), chord("Eb"))


@pytest.fixture(scope="module")
def octatonic(ti, plr):
    return sub_dual(plr, ti, plr_subgroup("P", "R"), chord("C"))


def test_hexatonic_orbit_and_partner(hexatonic):
    assert set(hexatonic.points) == {chord(n) for n in ("Eb", "eb", "B", "b", "G", "g")}
    assert {p.label for p in hexatonic.h0.elements} == {"T0", "T4", "T8", "I1", "I5", "I9"}


HEX_G0_TABLE = {
    "Id": "()",
    "P": "(Eb eb)(G g)(B b)",
    "PQ4": "(Eb g)(eb B)(G b)",  # L
    "Q4": "(Eb G B)(eb b g)",  # LP
    "Q8": "(Eb B G)(eb g b)",  # PL
    "PQ8": "(Eb b)(eb G)(g B)",  # PLP
}

HEX_H0_TABLE = {
    "T0": "()",
    "T4": "(Eb G B)(eb g b)",
    "T8": "(Eb B G)(eb b g)",
    "I1": "(Eb eb)(G b)(g B)",
    "I5": "(Eb g)(eb G)(B b)",
    "I9": "(Eb b)(eb B)(G g)",
}


def test_hexatonic_cycle_tables(hexatonic):
    g0 = {p.label: p.cycle_notation() for p in hexatonic.g0_restricted.elements}
    h0 = {p.label: p.cycle_notation() for p in hexatonic.h0_restricted.elements}
    assert g0 == HEX_G0_TABLE
    assert h0 == HEX_H0_TABLE


def test_hexatonic_restrictions_dual_by_brute_force(hexatonic):
    assert verify_dual(hexatonic.g0_restricted, hexatonic.h0_restricted)
    cent = centralizer_brute(hexatonic.g0_restricted)
    assert cent.elements == hexatonic.h0_restricted.elements


def test_octatonic_partner(octatonic):
    assert {p.label for p in octatonic.h0.elements} == {
        "T0", "T3", "T6", "T9", "I7", "I10", "I1", "I4",
    }
    assert set(octatonic.points) == {
        chord(n) for n in ("C", "c", "Eb", "eb", "Gb", "gb", "A", "a")
    }


def test_octatonic_restricted_centralizer(octatonic):
    cent = centralizer_brute(octatonic.g0_restricted)
    assert cent.elements == octatonic.h0_restricted.elements


def test_pr_group_is_dihedral_of_order_8():
    p = plr_named("P")
    r = plr_named("R")
    s = r * p
    t = p
    s2 = s * s
    s4 = s2 * s2
    identity = tuple(range(24))
    assert s2.images != identity and s4.images == identity  # s has order 4
    assert (t * t).images == identity
    assert t * s * t == s.inverse()


def test_partner_membership_criterion(hexatonic, plr):
    # any ambient element sending s0 into the orbit already lies in g0
    pts = set(hexatonic.points)
    for g in plr.elements:
        assert (g(hexatonic.s0) in pts) == (g in hexatonic.g0)


def test_ambient_centralizer_strictly_larger_than_h0(hexatonic, ti):
    # every T/I element commutes with the PL-group, yet |H0| = 6 < 24
    for h in ti.elements:
        for g in hexatonic.g0.elements:
            assert h.commutes_with(g)
    assert len(hexatonic.h0) == 6 < len(ti)


def test_subgroup_pair_commutes_on_ambient_carrier(hexatonic):
    for g in hexatonic.g0.elements:
        for h in hexatonic.h0.elements:
            assert g.commutes_with(h)


def test_sub_dual_full_group_trivial_case(ti, plr):
    sys_ = sub_dual(plr, ti, plr, chord("C"))
    assert set(sys_.points) == set(CHORD_CARRIER.points)
    assert sys_.h0.elements == ti.elements


def test_sub_dual_rejects_non_subgroup(ti, plr):
    with pytest.raises(ValueError, match="g0 must be a subgroup of g: I7 is not in g"):
        sub_dual(plr, ti, ti, chord("C"))


@pytest.mark.parametrize("names", [["P"], ["Id", "Q1"], ["Id", "P", "L"]])
def test_sub_dual_rejects_a_subset_of_g_that_is_not_a_group(ti, plr, names):
    g0 = PermGroup(plr.carrier, frozenset(plr_named(n) for n in names))
    with pytest.raises(ValueError, match="g0 must be a subgroup of g: {.*} is not a group"):
        sub_dual(plr, ti, g0, chord("C"))


def test_sub_dual_refuses_a_non_commuting_pair_with_a_generator_witness(plr):
    with pytest.raises(NotCommutingError) as info:
        sub_dual(plr, plr, plr_subgroup("P", "L"), chord("C"))
    p, q = info.value.witness
    assert (p.label, q.label) == ("P", "Q1")
    assert not p.commutes_with(q)


def test_sub_dual_names_the_input_that_is_not_simply_transitive(ti, plr):
    pl = plr_subgroup("P", "L")
    with pytest.raises(NotSimplyTransitiveError, match="^h does not act simply transitively"):
        sub_dual(plr, pl, pl, chord("C"))
    with pytest.raises(NotSimplyTransitiveError, match="^g does not act simply transitively"):
        sub_dual(pl, ti, plr_subgroup("P"), chord("C"))


def test_sub_dual_refuses_a_simply_transitive_set_that_is_not_a_group():
    """The three transpositions move 0 to each point but do not commute
    with the rotations; the witness comes from all element pairs."""
    carrier = Carrier((0, 1, 2))
    rotations = close_generators([Permutation(carrier, (1, 2, 0))])
    swaps = [Permutation(carrier, images) for images in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]]
    swaps = PermGroup(carrier, frozenset(swaps))
    assert is_simply_transitive(swaps, carrier.points) and not swaps.is_group()
    with pytest.raises(NotCommutingError) as info:
        sub_dual(rotations, swaps, rotations, 0)
    p, q = info.value.witness
    assert p in rotations and q in swaps and not p.commutes_with(q)


# ---------------------------------------------------------------------------
# transforming orbits
# ---------------------------------------------------------------------------


def test_transform_hexatonic_by_t1(hexatonic):
    moved = transform_orbit(hexatonic, ti_perm(transposition(1)))
    assert set(moved.points) == {chord(n) for n in ("E", "e", "C", "c", "Ab", "ab")}
    assert {p.label for p in moved.h0.elements} == {"T0", "T4", "T8", "I3", "I7", "I11"}


def test_transform_partner_is_conjugate(hexatonic, ti):
    for k in ti.elements:
        moved = transform_orbit(hexatonic, k)
        conjugated = frozenset(k * h * k.inverse() for h in hexatonic.h0.elements)
        assert moved.h0.elements == conjugated
        assert verify_dual(moved.g0_restricted, moved.h0_restricted)


def test_transform_octatonic_by_t2(octatonic):
    moved = transform_orbit(octatonic, ti_perm(transposition(2)))
    assert {p.label for p in moved.h0.elements} == {
        "T0", "T3", "T6", "T9", "I11", "I2", "I5", "I8",
    }


def test_transform_by_identity_is_noop(hexatonic):
    moved = transform_orbit(hexatonic, ti_perm(transposition(0)))
    assert moved.points == hexatonic.points
    assert moved.h0.elements == hexatonic.h0.elements


def test_transform_rejects_outsider(hexatonic):
    with pytest.raises(ValueError, match="transforming element P must lie in the ambient partner"):
        transform_orbit(hexatonic, plr_named("P"))


# ---------------------------------------------------------------------------
# extensions and orbit lists
# ---------------------------------------------------------------------------


def test_extend_commuting_lp(hexatonic):
    p = perm_from_cycles(
        hexatonic.restricted_carrier, [("Eb", "G", "B"), ("eb", "b", "g")]
    )
    ext = extend_commuting(p, hexatonic, "toG")
    assert ext in hexatonic.g0
    assert ext == plr_named("Q4")  # LP as a PLR element
    assert restrict(ext, hexatonic.restricted_carrier).images == p.images


def test_extend_identity(hexatonic):
    ident = hexatonic.g0_restricted.identity()
    assert extend_commuting(ident, hexatonic, "toG").images == tuple(range(24))
    assert extend_commuting(ident, hexatonic, "toH").images == tuple(range(24))


def test_extend_commuting_rejects_with_witness(hexatonic):
    bad = perm_from_cycles(
        hexatonic.restricted_carrier, [("Eb", "G", "B"), ("eb", "g", "b")]
    )
    with pytest.raises(NotCommutingError) as info:
        extend_commuting(bad, hexatonic, "toG")
    assert info.value.witness[0] == bad


def test_extend_commuting_names_an_unknown_side(hexatonic):
    ident = hexatonic.g0_restricted.identity()
    with pytest.raises(ValueError, match="side must be 'toG' or 'toH', got 'sideways'"):
        extend_commuting(ident, hexatonic, "sideways")


def test_all_orbits_hexatonic(ti, plr):
    systems = all_orbits(plr, ti, plr_subgroup("P", "L"))
    assert len(systems) == 4
    union = set()
    for s in systems:
        union |= set(s.points)
    assert union == set(CHORD_CARRIER.points)
    # conjugated partner groups, ordered by minimal chord index
    partners = [sorted(p.label for p in s.h0.elements) for s in systems]
    assert partners == [
        sorted(["T0", "T4", "T8", "I3", "I7", "I11"]),
        sorted(["T0", "T4", "T8", "I5", "I9", "I1"]),
        sorted(["T0", "T4", "T8", "I7", "I11", "I3"]),
        sorted(["T0", "T4", "T8", "I1", "I5", "I9"]),
    ]


def test_all_orbits_octatonic(ti, plr):
    systems = all_orbits(plr, ti, plr_subgroup("P", "R"))
    assert len(systems) == 3
    partners = [sorted(p.label for p in s.h0.elements) for s in systems]
    assert partners == [
        sorted(["T0", "T3", "T6", "T9", "I7", "I10", "I1", "I4"]),
        sorted(["T0", "T3", "T6", "T9", "I9", "I0", "I3", "I6"]),
        sorted(["T0", "T3", "T6", "T9", "I11", "I2", "I5", "I8"]),
    ]


def test_all_orbits_full_group(ti, plr):
    systems = all_orbits(plr, ti, plr)
    assert len(systems) == 1


def test_regular_representations_run_at_their_bound_and_refuse_one_order_more():
    lam, rho = regular_representations(AbstractGroup.cyclic(24))
    assert len(lam) == len(rho) == 24
    with pytest.raises(
        SearchBoundExceeded, match="regular representations search bounded at size 24, got 25"
    ):
        regular_representations(AbstractGroup.cyclic(25))


@pytest.mark.parametrize("n, brute_calls", [(8, 2), (9, 0)])
def test_verify_dual_brute_force_cross_check_stops_at_the_centralizer_bound(
    monkeypatch, n, brute_calls
):
    import triadtopos.duality as duality

    calls = []

    def spy(group):
        calls.append(group)
        return centralizer_brute(group)

    monkeypatch.setattr(duality, "centralizer_brute", spy)
    assert verify_dual(*regular_representations(AbstractGroup.cyclic(n)))
    assert len(calls) == brute_calls


def test_plr_named_resolves_the_labels_and_aliases(plr):
    labels = [p.label for p in plr.elements]
    assert len(set(labels)) == 24
    for name in labels + ["L", "R", "Q0", "Sl"]:
        p = plr_named(name)
        assert p in plr and p.label == name


@pytest.mark.parametrize("name", ["Q12", "Q15", "Q03", "Q٣", "PQ12", ""])
def test_plr_named_refuses_names_outside_the_labels(name):
    with pytest.raises(ValueError, match="unknown PLR element name"):
        plr_named(name)
