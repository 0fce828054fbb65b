"""Differential tests: the mask, integer-table and image-tuple kernels
against the slow, obvious definitions, over the complete finite domains
(all 4096 pitch sets, all 24 T/I conjugators, all 6^6 endo-maps of Omega,
all ordered generator pairs of the PLR and T/I groups, closed on image
tuples and on Cayley-table masks, every subset of S3 and of the order-8
dihedral group as a group-axiom check, and the generator-based duality
check on all ordered pairs of the 68 PLR and T/I subgroups and of the 64
subsets of S3)."""

import itertools

import pytest

from test_zmod import _cover_oracle
from triadtopos.duality import dual_group, plr_group, ti_group, verify_dual
from triadtopos.monoid import closure, conjugated_action, is_closed, triadic_monoid
from triadtopos.permgroup import (
    SEARCH_BOUNDS,
    Carrier,
    PermGroup,
    Permutation,
    _generators,
    all_subgroups,
    centralizer_brute,
    close_generators,
    is_simply_transitive,
)
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
from triadtopos.zmod import MOD, all_chords, chord, maximal_cover, ti_group_maps, ti_name

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


@pytest.mark.parametrize("phi", ti_group_maps(), ids=ti_name)
def test_closure_mask_is_the_union_of_point_orbits_on_all_masks(phi):
    act = conjugated_action(phi)
    maps = conjugated_maps(phi)
    orbits = [sum(1 << z for z in {t(x) for t in maps}) for x in range(MOD)]
    for mask in range(1 << MOD):
        expected = 0
        for x in range(MOD):
            if mask >> x & 1:
                expected |= orbits[x]
        assert act.closure_mask(mask) == expected


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
        identity = tuple(range(len(group.carrier)))
        assert [p.label for p in got.elements if p.images == identity] == ["Id"]


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


@pytest.mark.parametrize("build", [plr_group, ti_group], ids=["PLR", "TI"])
def test_mask_closure_returns_one_object_per_subgroup(build):
    """Every closure with the same element mask returns the same object,
    made of the ambient group's own elements; a second ambient group with
    the same elements gets its own objects."""
    group = build()
    twin = PermGroup(group.carrier, group.elements)
    elems = group.sorted_elements()
    for ambient in (group, twin):
        own = {id(p) for p in ambient.elements}
        by_elements = {}
        for gens in [[], *([a, b] for a in elems for b in elems)]:
            got = close_generators(gens, None, ambient)
            assert by_elements.setdefault(got.elements, got) is got
            assert all(id(p) in own for p in got.elements)
        assert len(by_elements) == 34
    first = {id(s) for s in all_subgroups(group)}
    assert first.isdisjoint(id(s) for s in all_subgroups(twin))


def test_subgroups_of_the_relabelled_plr_twin_keep_the_twins_elements():
    """The dual of T/I at C equals the PLR group as a value but labels its
    elements ρ(...); closing in the PLR group first must not hand the twin
    the PLR group's Id, P, PQ1, ... objects."""
    plr = plr_group()
    twin = dual_group(ti_group(), chord("C"))
    assert twin == plr and twin is not plr
    all_subgroups(plr)
    own = {id(p) for p in twin.elements}
    plr_labels = {p.label for p in plr.elements}
    elems = twin.sorted_elements()
    for gens in [[], *([a, b] for a in elems for b in elems)]:
        got = close_generators(gens, None, twin)
        assert all(id(p) in own for p in got.elements)
        assert not plr_labels & {p.label for p in got.elements}
    assert all(p.label.startswith("ρ(") for s in all_subgroups(twin) for p in s.elements)


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


def group_axioms(elements, carrier):
    """The definition: the identity, every inverse and every product."""
    return (
        Permutation.identity(carrier) in elements
        and all(p.inverse() in elements for p in elements)
        and all(p * q in elements for p in elements for q in elements)
    )


def _s3():
    carrier = Carrier((0, 1, 2))
    return [Permutation(carrier, images) for images in itertools.permutations(range(3))]


def _d8():
    carrier = Carrier((0, 1, 2, 3))
    rotation, reflection = Permutation(carrier, (1, 2, 3, 0)), Permutation(carrier, (0, 3, 2, 1))
    return sorted(close_generators([rotation, reflection]).elements, key=lambda p: p.images)


@pytest.mark.parametrize("build,subgroups", [(_s3, 6), (_d8, 10)], ids=["S3", "D8"])
def test_is_group_matches_the_axioms_on_every_subset(build, subgroups):
    elems = build()
    carrier = elems[0].carrier
    found = 0
    for bits in range(1 << len(elems)):
        subset = frozenset(p for k, p in enumerate(elems) if bits >> k & 1)
        expected = group_axioms(subset, carrier)
        assert PermGroup(carrier, subset).is_group() == expected
        found += expected
    assert found == subgroups


def test_is_group_matches_the_axioms_one_element_off_each_plr_subgroup():
    group = plr_group()
    found = 0
    for sub in all_subgroups(group):
        near = [sub.elements - {p} for p in sub.elements]
        near += [sub.elements | {p} for p in group.elements - sub.elements]
        for elements in near:
            got = PermGroup(group.carrier, elements).is_group()
            assert got == group_axioms(elements, group.carrier)
            found += got
        assert sub.is_group()
    # {Id} plus one of the 13 involutions, and each such {Id,x} minus x
    assert found == 26


def all_pairs_dual(g, h):
    """Duality by definition: both act simply transitively, every element
    pair commutes and, on carriers within the centralizer bound, each is the
    other's brute-force centralizer."""
    pts = g.carrier.points
    if not (is_simply_transitive(g, pts) and is_simply_transitive(h, pts)):
        return False
    if not all(p.commutes_with(q) for p in g.elements for q in h.elements):
        return False
    if len(pts) > SEARCH_BOUNDS["centralizer"]:
        return True
    brute_g, brute_h = centralizer_brute(g), centralizer_brute(h)
    return brute_g.elements == h.elements and brute_h.elements == g.elements


@pytest.fixture(scope="module")
def triad_subgroups():
    """The 34 subgroups of the PLR group, then the 34 of the T/I group."""
    return all_subgroups(plr_group()) + all_subgroups(ti_group())


def test_generators_generate_each_subgroup_with_at_most_log2_order_elements(triad_subgroups):
    assert len(triad_subgroups) == 68
    for sub in triad_subgroups:
        gens = _generators(sub)
        assert close_generators(gens, None, sub) == sub
        assert 2 ** len(gens) <= len(sub)
    assert [p.label for p in _generators(plr_group())] == ["P", "Q1"]
    assert [p.label for p in _generators(ti_group())] == ["I7", "T1"]


def test_generator_commutation_and_verify_dual_match_all_pairs_on_subgroup_pairs(
    triad_subgroups,
):
    generators = [_generators(sub) for sub in triad_subgroups]
    duals = []
    for g, g_gens in zip(triad_subgroups, generators):
        for h, h_gens in zip(triad_subgroups, generators):
            elementwise = all(p.commutes_with(q) for p in g.elements for q in h.elements)
            assert all(p.commutes_with(q) for p in g_gens for q in h_gens) == elementwise
            dual = verify_dual(g, h)
            assert dual == all_pairs_dual(g, h)
            duals += [(g, h)] * dual
    assert duals == [(plr_group(), ti_group()), (ti_group(), plr_group())]


def test_verify_dual_matches_all_pairs_on_every_pair_of_subsets_of_s3():
    """Sets that are not groups included: the three transpositions move 0 to
    each point, so they pass the simply-transitive check, but are no group
    and not dual to any set; the rotations are their own dual."""
    elems = _s3()
    carrier = elems[0].carrier
    subsets = [
        PermGroup(carrier, frozenset(p for k, p in enumerate(elems) if bits >> k & 1))
        for bits in range(1 << len(elems))
    ]
    duals = []
    for g in subsets:
        for h in subsets:
            dual = verify_dual(g, h)
            assert dual == all_pairs_dual(g, h)
            duals += [(g, h)] * dual
    rotations = close_generators([Permutation(carrier, (1, 2, 0))])
    assert duals == [(rotations, rotations)]
    swaps = PermGroup(carrier, frozenset(p for p in elems if [len(c) for c in p.cycles()] == [2]))
    assert len(swaps) == 3 and is_simply_transitive(swaps, carrier.points)
    assert not swaps.is_group() and not verify_dual(swaps, swaps)
