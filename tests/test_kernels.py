"""Differential tests: the mask, integer-table and image-tuple kernels
against the slow, obvious definitions, over the complete finite domains
(all 4096 pitch sets, all 24 T/I conjugators, all 6^6 endo-maps of Omega,
all ordered generator pairs of the PLR and T/I groups, closed on image
tuples and on Cayley-table masks)."""

import itertools

import pytest

from test_zmod import _cover_oracle
from triadtopos.duality import plr_group, ti_group
from triadtopos.monoid import closure, conjugated_action, is_closed, triadic_monoid
from triadtopos.permgroup import Permutation, all_subgroups, close_generators
from triadtopos.topos import (
    _is_topology,
    characteristic_morphism,
    left_ideals,
    lt_topologies,
    omega_action_table,
    omega_meet_table,
    upgrade,
    upgrade_table,
)
from triadtopos.zmod import MOD, all_chords, maximal_cover, ti_group_maps, ti_name

ALL_SETS = [frozenset(z for z in range(MOD) if bits >> z & 1) for bits in range(1 << MOD)]


def conjugated_maps(phi):
    """phi∘t∘phi^{-1} for each monoid element t, composed as affine maps."""
    inverse = phi.inverse()
    return [phi.compose(t).compose(inverse) for t in triadic_monoid()]


def closure_oracle(s, table):
    """Fixed point of adding every image t(z) of the current set."""
    out = set(s)
    while True:
        images = {row[z] for row in table for z in out}
        if images <= out:
            return frozenset(out)
        out |= images


@pytest.mark.parametrize("phi", ti_group_maps(), ids=ti_name)
def test_is_closed_and_closure_match_affine_maps(phi):
    act = conjugated_action(phi)
    table = [[t(z) for z in range(MOD)] for t in conjugated_maps(phi)]
    for s in ALL_SETS:
        expected = closure_oracle(s, table)
        assert is_closed(s, act) == (expected == s)
        assert closure(s, act) == expected


def test_maximal_cover_matches_oracle_on_all_sets():
    for s in ALL_SETS:
        cover, covered = maximal_cover(s)
        oracle_cover, oracle_covered = _cover_oracle(s)
        assert cover == tuple(c for c in all_chords() if c in oracle_cover)
        assert covered == oracle_covered


@pytest.mark.parametrize("phi", ti_group_maps(), ids=ti_name)
def test_chi_and_upgrades_match_label_sets(phi):
    """chi(z) = {m : m.z in d} and the j-upgrade {z : j(chi(z)) = T} for
    every closed set d under the phi-conjugated action."""
    act = conjugated_action(phi)
    labeled = list(zip(triadic_monoid().labels, conjugated_maps(phi)))
    name_of = {o.members: o.name for o in left_ideals()}
    mappings = [(j, j.mapping()) for j in lt_topologies()]
    closed = [s for s in ALL_SETS if all(t(z) in s for _, t in labeled for z in s)]
    assert len(closed) == 79
    for d in closed:
        chi = [name_of[frozenset(l for l, t in labeled if t(z) in d)] for z in range(MOD)]
        assert characteristic_morphism(d, act).table == tuple(chi)
        table = dict(upgrade_table(d, act))
        for j, mapping in mappings:
            expected = frozenset(z for z in range(MOD) if mapping[chi[z]] == "T")
            assert upgrade(d, act, j) == expected
            assert table[j.name] == expected


def name_keyed_omega():
    """The classifier action m.B = {n : n∘m in B} and the meet, keyed by
    element labels and ideal names, from the ideals' member sets."""
    monoid = triadic_monoid()
    members = {o.name: o.members for o in left_ideals()}
    name_of = {s: name for name, s in members.items()}
    act = {
        (m, b): name_of[frozenset(n for n in monoid.labels if monoid.compose_labels(n, m) in s)]
        for m in monoid.labels
        for b, s in members.items()
    }
    meet = {(r, s): name_of[members[r] & members[s]] for r in members for s in members}
    return act, meet


def test_integer_omega_tables_match_names():
    act, meet = name_keyed_omega()
    names = [o.name for o in left_ideals()]
    labels = triadic_monoid().labels
    assert omega_action_table() == tuple(
        tuple(names.index(act[(m, b)]) for b in names) for m in labels
    )
    assert omega_meet_table() == tuple(
        tuple(names.index(meet[(r, s)]) for s in names) for r in names
    )


def test_is_topology_matches_name_keyed_axioms_on_all_endo_maps():
    act, meet = name_keyed_omega()
    names = [o.name for o in left_ideals()]
    labels = triadic_monoid().labels
    survivors = 0
    for images in itertools.product(range(len(names)), repeat=len(names)):
        j = {b: names[k] for b, k in zip(names, images)}
        axioms = (
            j["T"] == "T"
            and all(j[j[b]] == j[b] for b in names)
            and all(j[act[(m, b)]] == act[(m, j[b])] for m in labels for b in names)
            and all(j[meet[(r, s)]] == meet[(j[r], j[s])] for r in names for s in names)
        )
        assert _is_topology(images) == axioms, images
        survivors += axioms
    assert survivors == 6


def closure_of_permutations(gens, carrier):
    """Breadth-first closure built from Permutation products g * p."""
    elements = {Permutation.identity(carrier)}
    frontier = list(elements)
    while frontier:
        frontier = [q for q in {g * p for p in frontier for g in gens} if q not in elements]
        elements.update(frontier)
    return elements


@pytest.mark.parametrize("build", [plr_group, ti_group], ids=["PLR", "TI"])
def test_close_generators_matches_permutation_products_on_all_pairs(build):
    group = build()
    elems = group.sorted_elements()
    for gens in [[], *([a, b] for a in elems for b in elems)]:
        got = close_generators(gens, group.carrier)
        expected = closure_of_permutations(gens, group.carrier)
        assert {p.images for p in got.elements} == {p.images for p in expected}
        assert got.elements == expected
        assert all(p.carrier is group.carrier for p in got.elements)
        assert [p.label for p in got.elements if p.is_identity()] == ["Id"]


@pytest.mark.parametrize("build", [plr_group, ti_group], ids=["PLR", "TI"])
def test_mask_closure_matches_tuple_closure_on_all_pairs(build):
    """Closing inside the ambient group gives the tuple search's elements,
    as the ambient group's own (labelled) objects."""
    group = build()
    own = {id(p) for p in group.elements}
    elems = group.sorted_elements()
    for gens in [[], *([a, b] for a in elems for b in elems)]:
        got = close_generators(gens, group.carrier, group)
        assert got.elements == close_generators(gens, group.carrier).elements
        assert all(id(p) in own for p in got.elements)
        assert got.carrier is group.carrier


def tuple_subgroups(group):
    """Every subgroup by tuple-searched pair closure, ordered by order and
    then by the image tables of their sorted elements."""
    elems = group.sorted_elements()
    found = {close_generators([], group.carrier).elements}
    found |= {close_generators([a, b], group.carrier).elements for a in elems for b in elems}
    return sorted(found, key=lambda s: (len(s), sorted(p.images for p in s)))


@pytest.mark.parametrize("build", [plr_group, ti_group], ids=["PLR", "TI"])
def test_all_subgroups_matches_tuple_closure_reference(build):
    group = build()
    subgroups = all_subgroups(group)
    assert [s.elements for s in subgroups] == tuple_subgroups(group)
    assert len(subgroups) == 34
    own = {id(p) for p in group.elements}
    assert all(id(p) in own for s in subgroups for p in s.elements)
