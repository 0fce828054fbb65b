import itertools

import pytest

from triadtopos.duality import CHORD_CARRIER, plr_group, plr_named, plr_subgroup
from triadtopos.permgroup import (
    Carrier,
    CarrierMismatchError,
    PermGroup,
    Permutation,
    SearchBoundExceeded,
    all_subgroups,
    centralizer_brute,
    close_generators,
    is_simply_transitive,
    orbit,
)
from triadtopos.zmod import all_chords, chord


def small_carrier(n=3):
    return Carrier(tuple(range(n)))


def test_permutation_composition_convention():
    c = small_carrier(3)
    p = Permutation(c, (1, 2, 0))
    q = Permutation(c, (1, 0, 2))
    # (p * q)(x) = p(q(x))
    assert (p * q)(0) == p(q(0))
    assert (p * q).images == tuple(p.images[j] for j in q.images)


def test_permutation_inverse_and_identity():
    c = small_carrier(4)
    p = Permutation(c, (2, 0, 3, 1))
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(small_carrier(3), (0, 0, 1))


def test_commutes_with_matches_products(ti, plr):
    elements = [*ti.elements, *plr.elements]
    for p in elements:
        for q in elements:
            assert p.commutes_with(q) == ((p * q).images == (q * p).images)
    with pytest.raises(CarrierMismatchError):
        plr_named("P").commutes_with(Permutation.identity(small_carrier(24)))


def test_equal_images_on_equal_carriers_are_equal():
    a, b = small_carrier(3), small_carrier(3)
    assert a is not b
    p, q = Permutation(a, (1, 2, 0)), Permutation(b, (1, 2, 0))
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    twin = Carrier(all_chords())
    assert plr_named("P") == Permutation(twin, plr_named("P").images)


def test_equal_images_on_different_carriers_are_unequal():
    p = Permutation(small_carrier(3), (1, 2, 0))
    q = Permutation(Carrier(("x", "y", "z")), (1, 2, 0))
    assert p != q
    assert len({p, q}) == 2
    assert p != p.images


def test_label_never_affects_equality():
    c = small_carrier(3)
    p, q = Permutation(c, (1, 2, 0), "a"), Permutation(c, (1, 2, 0), "b")
    assert p == q and hash(p) == hash(q)
    assert p == p.relabeled(None)
    assert Permutation(c, (1, 0, 2), "a") != p


def test_groups_on_equal_but_distinct_carriers():
    a, b = small_carrier(3), small_carrier(3)
    on_a = close_generators([Permutation(a, (1, 2, 0))])
    on_b = PermGroup(a, frozenset(Permutation(b, p.images) for p in on_a.elements))
    assert on_b.carrier is a and all(p.carrier is b for p in on_b.elements)
    assert on_a == on_b and hash(on_a) == hash(on_b)
    assert on_a <= on_b and on_b <= on_a
    trivial = close_generators([], b)
    assert trivial <= on_a and not on_a <= trivial
    foreign = close_generators([Permutation(Carrier(("x", "y", "z")), (1, 2, 0))])
    assert not foreign <= on_a
    with pytest.raises(CarrierMismatchError):
        PermGroup(a, foreign.elements)


def test_close_generators_within_an_ambient_group(plr, ti):
    pl = close_generators([plr_named("P"), plr_named("L")], None, plr)
    assert pl.elements <= plr.elements and len(pl) == 6
    assert {p.label for p in pl.elements} == {"Id", "P", "Q4", "Q8", "PQ4", "PQ8"}
    assert close_generators([], None, ti).elements == {ti.identity()}
    with pytest.raises(ValueError):
        close_generators([plr_named("P")], None, ti)
    with pytest.raises(ValueError):
        close_generators([Permutation(small_carrier(24), plr_named("P").images)], None, plr)
    with pytest.raises(CarrierMismatchError):
        close_generators([], small_carrier(24), plr)
    with pytest.raises(ValueError):
        close_generators([], None, PermGroup(CHORD_CARRIER, frozenset({plr_named("P")})))


def test_foreign_point_is_refused():
    c = small_carrier(3)
    assert c.index(2) == 2 and 2 in c
    assert 3 not in c
    with pytest.raises(ValueError):
        c.index(3)
    with pytest.raises(ValueError):
        CHORD_CARRIER.index("C")
    with pytest.raises(ValueError):
        orbit(close_generators([], c), 3)


def test_cycle_notation():
    c = Carrier(("x", "y", "z", "w"))
    p = Permutation(c, (1, 0, 2, 3))
    assert p.cycle_notation() == "(x y)"
    assert Permutation.identity(c).cycle_notation() == "()"


def test_close_generators_pl_pr():
    pl = close_generators([plr_named("P"), plr_named("L")])
    pr = close_generators([plr_named("P"), plr_named("R")])
    assert len(pl) == 6
    assert len(pr) == 8
    assert pl.is_group()
    assert pr.is_group()


def test_close_generators_empty():
    g = close_generators([], CHORD_CARRIER)
    assert len(g) == 1
    assert g.identity() in g


def test_close_generators_mixed_carriers_rejected():
    a = Permutation(small_carrier(3), (1, 2, 0))
    b = Permutation(small_carrier(4), (1, 2, 3, 0))
    with pytest.raises(CarrierMismatchError):
        close_generators([a, b])


def test_orbits():
    pl = plr_subgroup("P", "L")
    pr = plr_subgroup("P", "R")
    assert orbit(pl, chord("Eb")) == {
        chord(n) for n in ("Eb", "eb", "B", "b", "G", "g")
    }
    assert orbit(pr, chord("C")) == {
        chord(n) for n in ("C", "c", "Eb", "eb", "Gb", "gb", "A", "a")
    }
    trivial = close_generators([], CHORD_CARRIER)
    assert orbit(trivial, chord("C")) == {chord("C")}


def test_orbit_stabilizer_divisibility():
    for name_pair in (("P", "L"), ("P", "R"), ("P", "Q2")):
        g = plr_subgroup(*name_pair)
        for pt in g.carrier.points:
            assert len(g) % len(orbit(g, pt)) == 0


def test_is_simply_transitive(ti):
    assert is_simply_transitive(ti, ti.carrier.points)
    pq6 = plr_subgroup("P", "Q6")
    octatonic_cover = [chord(n) for n in ("C", "c", "Eb", "eb", "Gb", "gb", "A", "a")]
    assert not is_simply_transitive(pq6, octatonic_cover)
    trivial = close_generators([], CHORD_CARRIER)
    assert is_simply_transitive(trivial, [chord("C")])


def test_simply_transitive_orbit_size():
    pl = plr_subgroup("P", "L")
    s0 = orbit(pl, chord("Eb"))
    assert is_simply_transitive(pl, s0)
    assert len(s0) == len(pl) == 6


def test_centralizer_of_trivial_group_is_sym3():
    trivial = close_generators([], small_carrier(3))
    cent = centralizer_brute(trivial)
    assert len(cent) == 6


def test_centralizer_bound_refusal(ti):
    with pytest.raises(SearchBoundExceeded):
        centralizer_brute(ti)


def test_double_centralizer_contains_group():
    c = small_carrier(4)
    z4 = close_generators([Permutation(c, (1, 2, 3, 0))])
    assert is_simply_transitive(z4, c.points)
    cent = centralizer_brute(z4)
    assert z4.elements <= centralizer_brute(cent).elements


def test_all_subgroups_of_an_unlabelled_group_keep_its_elements():
    c = small_carrier(4)
    z4 = close_generators([Permutation(c, (1, 2, 3, 0))])
    bare = PermGroup(c, frozenset(Permutation(c, p.images) for p in z4.elements))
    subs = all_subgroups(bare)
    assert [len(s) for s in subs] == [1, 2, 4]
    own = {id(p) for p in bare.elements}
    assert all(id(p) in own for s in subs for p in s.elements)
    (identity,) = subs[0].elements
    assert identity.label is None and str(identity) == "()"


def test_all_subgroups_plr_count(plr):
    subs = all_subgroups(plr)
    assert len(subs) == 34  # d(12) + sigma(12) = 6 + 28
    for s in subs:
        assert s.is_group()
    assert len({s.elements for s in subs}) == 34


def test_all_subgroups_three_generator_oracle(plr):
    """Safety oracle: closing all element triples finds nothing new."""
    pair_closed = {s.elements for s in all_subgroups(plr)}
    elems = plr.sorted_elements()
    for combo in itertools.combinations(elems, 3):
        sub = close_generators(list(combo), plr.carrier)
        assert sub.elements in pair_closed


def test_subgroups_containing_p(plr):
    p = plr_named("P")
    with_p = [s for s in all_subgroups(plr) if p in s]
    expected = {
        plr_subgroup("P", f"Q{i}").elements if i else plr_subgroup("P").elements
        for i in (0, 1, 2, 3, 4, 6)
    }
    assert {s.elements for s in with_p} == expected
    assert len(with_p) == 6


def test_all_subgroups_trivial():
    trivial = close_generators([], small_carrier(2))
    subs = all_subgroups(trivial)
    assert len(subs) == 1
    assert subs[0].elements == trivial.elements


def test_all_subgroups_bound_refusal():
    import triadtopos.permgroup as pg

    c = Carrier(tuple(range(5)))
    s5 = close_generators(
        [Permutation(c, (1, 0, 2, 3, 4)), Permutation(c, (1, 2, 3, 4, 0))]
    )
    assert len(s5) == 120
    with pytest.raises(SearchBoundExceeded):
        all_subgroups(s5)


def test_group_union_of_subgroup_elements(plr):
    union = set()
    for s in all_subgroups(plr):
        union |= s.elements
    assert union == set(plr.elements)
