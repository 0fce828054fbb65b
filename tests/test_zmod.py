import pytest
from hypothesis import given, strategies as st

from triadtopos.zmod import (
    IDENTITY,
    UNITS,
    AffineMap,
    Chord,
    Quality,
    all_chords,
    chord,
    chord_from_pitches,
    format_pcset,
    inversion,
    maximal_cover,
    parse_pcset,
    pcset,
    ti_element,
    ti_group_maps,
    ti_name,
    transposition,
)

F = AffineMap(3, 7)
G = AffineMap(8, 4)

affine_maps = st.builds(AffineMap, st.integers(0, 11), st.integers(0, 11))


def test_affine_apply():
    assert F(3) == 4
    assert G(3) == 4
    assert IDENTITY(9) == 9
    assert G(10) == 0


def test_affine_compose():
    assert F.compose(F) == AffineMap(9, 4)
    assert G.compose(G) == AffineMap(4, 0)
    assert F.compose(IDENTITY) == F
    assert IDENTITY.compose(F) == F


@given(affine_maps, affine_maps, affine_maps, st.integers(0, 11))
def test_compose_is_function_composition_and_associative(a, b, c, z):
    assert a.compose(b)(z) == a(b(z))
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(affine_maps, st.integers(0, 11))
def test_inverse_round_trip(a, z):
    if a.m in UNITS:
        assert a.inverse()(a(z)) == z
        assert a(a.inverse()(z)) == z
    else:
        with pytest.raises(ValueError):
            a.inverse()


def test_ti_elements():
    assert ti_element("T", 0) == IDENTITY
    assert ti_element("T", 5) == AffineMap(1, 5)
    assert ti_element("I", 7) == AffineMap(11, 7)
    assert inversion(7).apply_set(pcset({0, 4, 7})) == pcset({7, 3, 0})
    # I_1 ∘ I_8 = T_5
    assert inversion(1).compose(inversion(8)) == transposition(5)


def test_ti_group_closed_order_24():
    maps = set(ti_group_maps())
    assert len(maps) == 24
    for a in maps:
        assert a.is_invertible
        for b in maps:
            assert a.compose(b) in maps
    for a_idx in range(12):
        for b_idx in range(12):
            assert inversion(a_idx).compose(inversion(b_idx)) == transposition(
                a_idx - b_idx
            )


def test_ti_names_round_trip():
    for a in ti_group_maps():
        from triadtopos.zmod import parse_ti

        assert parse_ti(ti_name(a)) == a


def test_chord_pitches():
    assert chord("C").pitches() == pcset({0, 4, 7})
    assert chord("c").pitches() == pcset({0, 3, 7})
    assert chord("Gb").pitches() == pcset({6, 10, 1})


def test_chord_names():
    assert chord("Eb") == Chord(3, Quality.MAJOR)
    assert chord("eb") == Chord(3, Quality.MINOR)
    assert str(Chord(1, Quality.MINOR)) == "db"


def test_chord_pitches_injective():
    seen = {c.pitches() for c in all_chords()}
    assert len(seen) == len(all_chords()) == 24
    for c in all_chords():
        assert chord_from_pitches(c.pitches()) == c


def test_chords_are_unordered_but_compare_and_hash_by_value():
    for a in all_chords():
        for b in all_chords():
            with pytest.raises(TypeError):
                a < b
    assert chord("C") == Chord(12, Quality.MAJOR) != chord("c")
    assert hash(chord("Eb")) == hash((3, Quality.MAJOR))


def test_ti_maps_send_triads_to_triads():
    for a in ti_group_maps():
        for c in all_chords():
            chord_from_pitches(a.apply_set(c.pitches()))  # must not raise


def _cover_oracle(s):
    # independent brute force over the 24 chords
    chords = [c for c in all_chords() if c.pitches() <= s]
    covered = all(any(z in c.pitches() for c in chords) for z in s)
    return set(chords), covered


@pytest.mark.parametrize(
    "s,expected_names,expected_covered",
    [
        (pcset({0, 3, 4, 7}), {"C", "c"}, True),
        (pcset(range(12)), {c.name for c in all_chords()}, True),
        (pcset({0, 4, 7, 9}), {"C", "a"}, True),
        (pcset({0, 2, 4, 7}), {"C"}, False),
    ],
)
def test_maximal_cover(s, expected_names, expected_covered):
    cover, covered = maximal_cover(s)
    assert {c.name for c in cover} == expected_names
    assert covered is expected_covered
    oracle_cover, oracle_covered = _cover_oracle(s)
    assert set(cover) == oracle_cover
    assert covered == oracle_covered


@given(st.frozensets(st.integers(0, 11)))
def test_maximal_cover_matches_oracle(s):
    cover, covered = maximal_cover(s)
    oracle_cover, oracle_covered = _cover_oracle(s)
    assert set(cover) == oracle_cover
    assert covered == oracle_covered


def test_pcset_parsing():
    assert parse_pcset("0,4,7") == pcset({0, 4, 7})
    assert parse_pcset("") == frozenset()
    assert format_pcset(pcset({7, 0, 4})) == "{0,4,7}"
    with pytest.raises(ValueError):
        parse_pcset("0,4,x")


@pytest.mark.parametrize("text,value", [("0,4,7,12", 12), ("-5,-1,2", -5), ("0, 99", 99)])
def test_parse_pcset_rejects_pitch_class_outside_0_11(text, value):
    with pytest.raises(ValueError, match=f"pitch class {value} in '{text}' is outside 0..11"):
        parse_pcset(text)


def test_pcset_still_reduces_mod_12():
    assert pcset([12, -1, 4]) == frozenset({0, 4, 11})


@pytest.mark.parametrize("name", ["T12", "T99", "I12"])
def test_parse_ti_rejects_index_outside_0_11(name):
    from triadtopos.zmod import parse_ti

    with pytest.raises(ValueError, match=f"'{name}' is outside 0..11"):
        parse_ti(name)
