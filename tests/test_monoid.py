import itertools

import pytest
from hypothesis import given, strategies as st

from triadtopos.monoid import (
    ELEMENT_LABELS,
    F,
    G,
    MonoidAction,
    closure,
    conjugated_action,
    is_closed,
    natural_action,
    render_composition_table,
    triadic_monoid,
)
from triadtopos.zmod import AffineMap, IDENTITY, pcset, ti_group_maps


def test_monoid_has_exactly_eight_elements():
    m = triadic_monoid()
    assert len(m) == 8
    assert set(m.maps) == {
        AffineMap(1, 0),
        AffineMap(3, 7),
        AffineMap(9, 4),
        AffineMap(8, 4),
        AffineMap(4, 0),
        AffineMap(0, 0),
        AffineMap(0, 4),
        AffineMap(0, 7),
    }


def test_generator_powers():
    assert F.compose(F) == AffineMap(9, 4)
    assert G.compose(G) == AffineMap(4, 0)


def test_labels():
    m = triadic_monoid()
    assert m.labels == ELEMENT_LABELS
    assert m.element("e") == IDENTITY
    assert m.element("a") == AffineMap(0, 0)
    assert m.element("b") == AffineMap(0, 4)
    assert m.element("c") == AffineMap(0, 7)


def test_composition_closed():
    m = triadic_monoid()
    maps = set(m.maps)
    for x in maps:
        for y in maps:
            assert x.compose(y) in maps


def test_every_element_preserves_c_chord():
    c = pcset({0, 4, 7})
    for t in triadic_monoid():
        assert t.apply_set(c) <= c


def test_monoid_is_not_a_group():
    m = triadic_monoid()
    const = m.element("a")
    has_inverse = any(
        const.compose(x) == IDENTITY == x.compose(const) for x in m.maps
    )
    assert not has_inverse


def test_monoid_is_exactly_the_c_chord_stabilizer():
    # independent oracle: scan all 144 affine maps
    c = pcset({0, 4, 7})
    stabilizer = {
        AffineMap(m_, b_)
        for m_ in range(12)
        for b_ in range(12)
        if AffineMap(m_, b_).apply_set(c) <= c
    }
    assert stabilizer == set(triadic_monoid().maps)


@pytest.mark.parametrize(
    "pitches,expected",
    [
        ({0, 3, 4, 7}, True),
        ({0, 3, 4, 7, 8, 11}, True),
        (set(), True),
        ({0, 4, 5, 7}, False),  # f(5) = 10 escapes
        ({0, 1, 3, 4, 6, 7, 9, 10}, True),
        ({0, 1, 4, 6, 7, 10}, True),
        ({0, 1, 2, 4, 6, 7, 8, 10}, True),
    ],
)
def test_is_closed_natural(pitches, expected):
    assert is_closed(pcset(pitches), natural_action()) is expected


def test_nonempty_closed_sets_contain_c_chord():
    act = natural_action()
    for bits in range(1, 2**12):
        s = frozenset(z for z in range(12) if bits >> z & 1)
        if is_closed(s, act):
            assert pcset({0, 4, 7}) <= s


def test_action_axiom_natural_and_conjugated():
    for act in (natural_action(), conjugated_action(AffineMap(1, 1)),
                conjugated_action(AffineMap(11, 0))):
        m = act.monoid
        for t1 in m:
            for t2 in m:
                for z in range(12):
                    assert act.act(t1.compose(t2), z) == act.act(t1, act.act(t2, z))


def test_identity_acts_trivially_all_conjugates():
    for phi in ti_group_maps():
        act = conjugated_action(phi)
        for z in range(12):
            assert act.act(IDENTITY, z) == z


def test_conjugated_action_examples():
    assert conjugated_action(IDENTITY).images == tuple(
        tuple(t(z) for z in range(12)) for t in triadic_monoid()
    )
    t1 = conjugated_action(AffineMap(1, 1))
    assert is_closed(pcset({1, 5, 8}), t1)
    i0 = conjugated_action(AffineMap(11, 0))
    assert is_closed(pcset({0, 8, 5}), i0)


def test_conjugated_action_rejects_non_ti():
    with pytest.raises(ValueError):
        conjugated_action(AffineMap(5, 0))
    with pytest.raises(ValueError):
        conjugated_action(AffineMap(0, 0))


@given(st.frozensets(st.integers(0, 11)), st.sampled_from(ti_group_maps()))
def test_closure_transport(s, phi):
    # s closed naturally iff phi(s) closed under the phi-conjugated action
    assert is_closed(s, natural_action()) == is_closed(
        phi.apply_set(s), conjugated_action(phi)
    )


def test_closure_operator():
    act = natural_action()
    got = closure(pcset({3}), act)
    assert is_closed(got, act)
    assert got == pcset({0, 3, 4, 7})


def test_render_composition_table_anchor_rows():
    m = triadic_monoid()
    text = render_composition_table(m.labels, m.composition_table())
    lines = text.splitlines()
    assert lines[0].split("|")[1].split() == list(ELEMENT_LABELS)
    # constants are left zeros: a∘x = a for every x
    a_row = [l for l in lines if l.startswith("a ")][0]
    assert a_row.split("|")[1].split() == ["a"] * 8
