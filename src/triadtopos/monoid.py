"""The 8-element triadic monoid on Z_12 and its (conjugated) actions.

The monoid is the set of affine maps preserving {0, 4, 7} setwise; it is
generated by f(z) = 3z + 7 and g(z) = 8z + 4.  Element labels follow the
convention e, f, f2, g, g2 for the non-constant maps and a, b, c for the
constants 0, 4, 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .zmod import AffineMap, IDENTITY

F = AffineMap(3, 7)
G = AffineMap(8, 4)

ELEMENT_LABELS = ("e", "f", "f2", "g", "g2", "a", "b", "c")

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


@dataclass(frozen=True)
class TriadicMonoid:
    """The triadic monoid: labeled elements plus the composition table."""

    labels: tuple[str, ...]
    maps: tuple[AffineMap, ...]

    def element(self, label: str) -> AffineMap:
        return self.maps[self.labels.index(label)]

    def label_of(self, m: AffineMap) -> str:
        return self.labels[self.maps.index(m)]

    def compose_labels(self, outer: str, inner: str) -> str:
        """Label of outer∘inner (inner applied first)."""
        return self.label_of(self.element(outer).compose(self.element(inner)))

    def composition_table(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(self.compose_labels(o, i) for i in self.labels) for o in self.labels
        )

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
    monoid = TriadicMonoid(ELEMENT_LABELS, tuple(_LABELED[l] for l in ELEMENT_LABELS))
    if set(monoid.maps) != elements:
        raise AssertionError("labeled elements disagree with the generator closure")
    return monoid


@dataclass(frozen=True)
class MonoidAction:
    """The triadic monoid acting on Z_12, optionally conjugated: with
    conjugator phi, an element t acts as phi∘t∘phi^{-1}."""

    monoid: TriadicMonoid
    conjugator: AffineMap = IDENTITY

    def act_map(self, t: AffineMap) -> AffineMap:
        phi = self.conjugator
        return phi.compose(t).compose(phi.inverse())

    def act(self, t: AffineMap, z: int) -> int:
        return self.act_map(t)(z)

    def act_label(self, label: str, z: int) -> int:
        return self.act(self.monoid.element(label), z)

    @property
    def is_natural(self) -> bool:
        return self.act_map(F) == F and self.act_map(G) == G


def natural_action() -> MonoidAction:
    return MonoidAction(triadic_monoid())


def conjugated_action(phi: AffineMap) -> MonoidAction:
    """The phi-conjugated action, for phi in the T/I group (m in {1, 11})."""
    if phi.m not in (1, 11):
        raise ValueError(f"conjugator must be a T/I element, got {phi}")
    return MonoidAction(triadic_monoid(), phi)


def is_closed(s: frozenset[int], action: MonoidAction) -> bool:
    """True iff t(x) stays in s for every monoid element t and x in s."""
    return all(action.act(t, z) in s for t in action.monoid for z in s)


def closure(s: frozenset[int], action: MonoidAction) -> frozenset[int]:
    """Smallest superset of s closed under the action."""
    out = set(s)
    frontier = set(s)
    while frontier:
        new = {action.act(t, z) for t in action.monoid for z in frontier} - out
        out |= new
        frontier = new
    return frozenset(out)


def render_composition_table(monoid: TriadicMonoid) -> str:
    """The 8x8 composition table (row∘column, column applied first)."""
    width = max(len(l) for l in monoid.labels)
    head = " " * (width + 1) + "| " + " ".join(l.ljust(width) for l in monoid.labels)
    sep = "-" * len(head)
    lines = [head, sep]
    for row_label, row in zip(monoid.labels, monoid.composition_table()):
        lines.append(
            row_label.ljust(width + 1) + "| " + " ".join(v.ljust(width) for v in row)
        )
    return "\n".join(lines)
