"""The 8-element triadic monoid on Z_12 and its (conjugated) actions.

The monoid is the set of affine maps preserving {0, 4, 7} setwise; it is
generated by f(z) = 3z + 7 and g(z) = 8z + 4.  Element labels follow the
convention e, f, f2, g, g2 for the non-constant maps and a, b, c for the
constants 0, 4, 7.
"""

from __future__ import annotations

from functools import cache

from ._value import Value
from .zmod import IDENTITY, MOD, AffineMap, mask_of, pitches_of

F = AffineMap(3, 7)
G = AffineMap(8, 4)

ELEMENT_LABELS = ("e", "f", "f2", "g", "g2", "a", "b", "c")

#: `MonoidAction.closure_mask` reads a pitch mask as two halves of HALF bits.
HALF = MOD // 2
LOW_BITS = (1 << HALF) - 1

_LABELED = {
    "e": IDENTITY,
    "f": F,
    "f2": F.compose(F),
    "g": G,
    "g2": G.compose(G),
    "a": AffineMap(0, 0),
    "b": AffineMap(0, 4),
    "c": AffineMap(0, 7),
}


class TriadicMonoid(Value):
    """The triadic monoid: labeled elements plus the composition table;
    products[o][i] is the index of maps[o]∘maps[i] (maps[i] applied first)."""

    __slots__ = ("labels", "maps", "products")
    _fields = ("labels", "maps")

    def __init__(self, labels: tuple[str, ...], maps: tuple[AffineMap, ...]):
        products = tuple(tuple(maps.index(o.compose(i)) for i in maps) for o in maps)
        self._set(labels, maps, products)

    def index(self, key: str | AffineMap) -> int:
        """Index of a monoid element, given by its label or as its map."""
        try:
            return (self.maps if isinstance(key, AffineMap) else self.labels).index(key)
        except ValueError:
            raise ValueError(f"unknown monoid element {key!r}") from None

    def element(self, label: str) -> AffineMap:
        return self.maps[self.index(label)]

    def compose_labels(self, outer: str, inner: str) -> str:
        """Label of outer∘inner (inner applied first)."""
        return self.labels[self.products[self.index(outer)][self.index(inner)]]

    def composition_table(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self.labels[k] for k in row) for row in self.products)

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


@cache
def triadic_monoid() -> TriadicMonoid:
    """Closure of {f, g} under composition plus the identity: 8 maps."""
    elements = {IDENTITY, F, G}
    while True:
        new = {x.compose(y) for x in elements for y in elements} - elements
        if not new:
            break
        elements |= new
    if set(_LABELED.values()) != elements:
        raise AssertionError("labeled elements disagree with the generator closure")
    return TriadicMonoid(ELEMENT_LABELS, tuple(_LABELED[l] for l in ELEMENT_LABELS))


class MonoidAction(Value):
    """The triadic monoid acting on Z_12, optionally conjugated: with
    conjugator phi, an element t acts as phi∘t∘phi^{-1}.

    `images[k][z]` is the image of z under the k-th monoid element, and
    `closure_halves` is the pair of tables behind `closure_mask`; both are
    built once."""

    __slots__ = ("monoid", "conjugator", "images", "closure_halves")
    _fields = ("monoid", "conjugator")

    def __init__(self, monoid: TriadicMonoid, conjugator: AffineMap = IDENTITY):
        phi, inv = conjugator, conjugator.inverse()
        images = tuple(tuple(phi(t(inv(z))) for z in range(MOD)) for t in monoid)
        orbits = [mask_of(col) for col in zip(*images)]
        halves = (_union_table(orbits[:HALF]), _union_table(orbits[HALF:]))
        self._set(monoid, conjugator, images, halves)

    def act(self, t: AffineMap, z: int) -> int:
        return self.images[self.monoid.index(t)][z % MOD]

    def act_label(self, label: str, z: int) -> int:
        return self.images[self.monoid.index(label)][z % MOD]

    def closure_mask(self, mask: int) -> int:
        """Pitch mask of the smallest closed superset: the union of the
        orbits of the points of `mask`, read as two table lookups, one per
        half of the mask."""
        low, high = self.closure_halves
        return low[mask & LOW_BITS] | high[mask >> HALF]


def _union_table(orbits: list[int]) -> tuple[int, ...]:
    """[bits] is the union of orbits[z] over the z set in `bits`."""
    table = [0]
    for orbit in orbits:  # the subsets with bit z set follow those without it
        table += [union | orbit for union in table]
    return tuple(table)


def natural_action() -> MonoidAction:
    return conjugated_action(IDENTITY)


@cache
def conjugated_action(phi: AffineMap) -> MonoidAction:
    """The phi-conjugated action, for phi in the T/I group (m in {1, 11})."""
    if phi.m not in (1, 11):
        raise ValueError(f"conjugator must be a T/I element, got {phi}")
    return MonoidAction(triadic_monoid(), phi)


def is_closed(s: frozenset[int], action: MonoidAction) -> bool:
    """True iff t(x) stays in s for every monoid element t and x in s."""
    mask = mask_of(s)
    return action.closure_mask(mask) == mask


def closure(s: frozenset[int], action: MonoidAction) -> frozenset[int]:
    """Smallest superset of s closed under the action."""
    return pitches_of(action.closure_mask(mask_of(s)))


def render_composition_table(labels, rows) -> str:
    """The composition table (row∘column, column applied first) from the
    element labels and the label rows of `TriadicMonoid.composition_table`."""
    width = max(len(l) for l in labels)
    head = " " * (width + 1) + "| " + " ".join(l.ljust(width) for l in labels)
    sep = "-" * len(head)
    lines = [head, sep]
    for row_label, row in zip(labels, rows):
        lines.append(
            row_label.ljust(width + 1) + "| " + " ".join(v.ljust(width) for v in row)
        )
    return "\n".join(lines)
