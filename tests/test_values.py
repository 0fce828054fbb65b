"""Value semantics of the library's immutable classes: equality and hash
over the compared fields only, no assignment or deletion, the reprs that
error messages print, and an import that stays free of `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from triadtopos.duality import (
    AbstractGroup,
    SubDualSystem,
    plr_group,
    plr_subgroup,
    sub_dual,
    ti_group,
)
from triadtopos.enumeration import Case1Line, Case2Report, CaseAudit, EnumerationRow, case_audit
from triadtopos.monoid import (
    ELEMENT_LABELS,
    MonoidAction,
    TriadicMonoid,
    natural_action,
    triadic_monoid,
)
from triadtopos.permgroup import Carrier, PermGroup, Permutation, close_generators
from triadtopos.topos import CharMorphism, LTTopology, OmegaElement, characteristic_morphism
from triadtopos.zmod import AffineMap, Chord, Quality, chord, pcset, transposition

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints which of two slow-to-import modules a fresh import of the CLI and
#: of every library module loaded (the CLI alone loads no library module).
HEAVY_IMPORTS = (
    "import sys, triadtopos.cli, triadtopos.enumeration, triadtopos.topos;"
    " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
)


def _cycle(label=None):
    return Permutation(Carrier(("a", "b", "c")), (1, 2, 0), label)


def _group():
    return close_generators([_cycle()])


def _row(type_label):
    return EnumerationRow(frozenset({0, 4, 7}), type_label, (chord("C"),), plr_subgroup())


def _sub_dual(s0):
    return sub_dual(plr_group(), ti_group(), plr_subgroup("P", "L"), chord(s0))


#: class -> (builds a fresh instance, builds an instance unequal to it, the
#: slots that take no part in == and hash).  Two calls of the first builder
#: give equal values that are distinct objects.
VALUES = {
    AffineMap: (lambda: AffineMap(15, -5), lambda: AffineMap(3, 8), ()),
    Chord: (lambda: Chord(12, Quality.MAJOR), lambda: Chord(0, Quality.MINOR), ()),
    Carrier: (lambda: Carrier(("a", "b", "c")), lambda: Carrier(("a", "c", "b")), ("_index",)),
    Permutation: (_cycle, lambda: _cycle().inverse(), ("label",)),
    PermGroup: (_group, lambda: PermGroup(_cycle().carrier, frozenset()), ("_cayley",)),
    AbstractGroup: (
        lambda: AbstractGroup.cyclic(3),
        lambda: AbstractGroup(("x", "y", "z"), AbstractGroup.cyclic(3).table),
        ("identity",),
    ),
    SubDualSystem: (lambda: _sub_dual("C"), lambda: _sub_dual("D"), ()),
    TriadicMonoid: (
        lambda: TriadicMonoid(ELEMENT_LABELS, triadic_monoid().maps),
        lambda: TriadicMonoid(ELEMENT_LABELS[::-1], triadic_monoid().maps),
        ("products",),
    ),
    MonoidAction: (
        lambda: MonoidAction(triadic_monoid(), transposition(3)),
        lambda: MonoidAction(triadic_monoid(), transposition(4)),
        ("images", "closure_halves"),
    ),
    OmegaElement: (
        lambda: OmegaElement("C", frozenset("abc")),
        lambda: OmegaElement("C", frozenset("ab")),
        (),
    ),
    LTTopology: (
        lambda: LTTopology("j_T", tuple(range(6))),
        lambda: LTTopology("j_T", (5,) * 6),
        (),
    ),
    CharMorphism: (
        lambda: characteristic_morphism(pcset({0, 4, 7}), natural_action()),
        lambda: characteristic_morphism(pcset(range(12)), natural_action()),
        (),
    ),
    EnumerationRow: (
        lambda: _row("Major Chord"),
        lambda: _row("Chromatic Scale"),
        (),
    ),
    Case1Line: (lambda: case_audit().case1[0], lambda: case_audit().case1[1], ()),
    Case2Report: (
        lambda: case_audit().case2,
        lambda: Case2Report({}, case_audit().case2.h_candidates),
        (),
    ),
    CaseAudit: (case_audit, lambda: CaseAudit((), case_audit().case2), ()),
}

#: Classes with a dict field: unhashable, as any value holding a dict.
UNHASHABLE = {Case2Report, CaseAudit}

ALL = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)

#: The records whose constructor only stores its fields: `Value.__init__`.
PLAIN = pytest.mark.parametrize(
    "cls",
    [SubDualSystem, EnumerationRow, Case1Line, Case2Report, CaseAudit, OmegaElement, LTTopology,
     CharMorphism],
    ids=lambda cls: cls.__name__,
)


@ALL
def test_equal_fields_give_equal_values_and_hashes(cls):
    make, make_other, _ = VALUES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and other != a
    assert a != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@ALL
def test_fields_outside_comparison_never_affect_equality(cls):
    make, _, loose = VALUES[cls]
    for name in loose:
        a, b = make(), make()
        object.__setattr__(b, name, "something else")
        assert a == b and b == a
        if cls not in UNHASHABLE:
            assert hash(a) == hash(b)
    assert cls._fields == tuple(name for name in cls.__slots__ if name not in loose)


@ALL
def test_attributes_can_be_neither_assigned_nor_deleted(cls):
    value = VALUES[cls][0]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == VALUES[cls][0]()


@ALL
def test_copy_and_pickle_restore_every_slot(cls):
    value = VALUES[cls][0]()
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(value), copy.deepcopy(value), *pickled):
        assert type(twin) is cls and twin == value
        assert [getattr(twin, n) for n in cls.__slots__] == [getattr(value, n) for n in cls.__slots__]


@PLAIN
def test_plain_records_are_built_by_position_or_by_keyword(cls):
    assert "__init__" not in vars(cls)
    value = VALUES[cls][0]()
    slots = [getattr(value, n) for n in cls.__slots__]
    by_name = dict(zip(cls.__slots__, slots))
    rest = dict(zip(cls.__slots__[1:], slots[1:]))
    for twin in (cls(*slots), cls(**by_name), cls(slots[0], **rest)):
        assert type(twin) is cls and twin == value
        assert [getattr(twin, n) for n in cls.__slots__] == slots


@PLAIN
def test_plain_records_refuse_a_missing_unknown_doubled_or_extra_field(cls):
    value = VALUES[cls][0]()
    slots = [getattr(value, n) for n in cls.__slots__]
    by_name = dict(zip(cls.__slots__, slots))
    calls = {
        "missing": (slots[:-1], {}),
        "missing keyword": ((), dict(zip(cls.__slots__[1:], slots[1:]))),
        "unknown keyword": (slots, {"extra": None}),
        "doubled": (slots[:1], by_name),
        "extra positional": ([*slots, None], {}),
    }
    for args, kwargs in calls.values():
        with pytest.raises(TypeError, match=rf"{cls.__name__} takes .*\b{cls.__slots__[-1]}\b"):
            cls(*args, **kwargs)


def test_reprs_that_error_messages_print_are_unchanged():
    assert repr(chord("C")) == "Chord(root=0, quality=<Quality.MAJOR: 'major'>)"
    assert repr(AffineMap(3, 7)) == "AffineMap(m=3, b=7)"
    with pytest.raises(ValueError) as err:
        Carrier((chord("C"),)).index(chord("d"))
    assert str(err.value) == (
        "Chord(root=2, quality=<Quality.MINOR: 'minor'>) is not on the carrier"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HEAVY_IMPORTS], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
