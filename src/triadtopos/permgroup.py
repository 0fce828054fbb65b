"""Permutations and permutation groups on small finite carriers.

Everything here is brute force by design: the carriers of interest have
at most 24 points, and the heaviest search (a centralizer in Sym(8))
exhausts 8! candidates.

Composition convention throughout: (p * q)(x) = p(q(x)), i.e. the right
factor acts first.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Optional

from ._value import Value

Point = Hashable

#: Size bound of each exhaustive search: a centralizer exhausts Sym(carrier),
#: so its bound is the carrier size; the other two are bounded by group order.
SEARCH_BOUNDS = {"centralizer": 8, "subgroups": 48, "regular representations": 24}


class CarrierMismatchError(ValueError):
    """Raised when permutations on different carriers are combined."""


class SearchBoundExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its size bound."""


def check_bound(search: str, size: int) -> None:
    """Refuse a search of the given size above its SEARCH_BOUNDS entry."""
    bound = SEARCH_BOUNDS[search]
    if size > bound:
        raise SearchBoundExceeded(f"{search} search bounded at size {bound}, got {size}")


class Carrier(Value):
    """An ordered finite set of distinct points, with a point -> index dict."""

    __slots__ = ("points", "_index")
    _fields = ("points",)

    def __init__(self, points: tuple[Point, ...]):
        self._set(points, {p: i for i, p in enumerate(points)})
        if len(self._index) != len(points):
            raise ValueError("carrier points must be distinct")

    def index(self, point: Point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"{point!r} is not on the carrier") from None

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: Point) -> bool:
        return point in self._index


class Permutation(Value):
    """A bijection of a carrier, stored as an index table.

    Keyed by its image table: it hashes as `images` and equality compares
    `images`, then the carriers.  The label is display metadata only.
    """

    __slots__ = ("carrier", "images", "label")
    _fields = ("carrier", "images")

    def __init__(self, carrier: Carrier, images: tuple[int, ...], label: Optional[str] = None):
        if sorted(images) != list(range(len(carrier))):
            raise ValueError(f"image table {images} is not a bijection of {len(carrier)} points")
        self._set(carrier, images, label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images and (
            self.carrier is other.carrier or self.carrier == other.carrier
        )

    def __hash__(self) -> int:
        return hash(self.images)

    @classmethod
    def from_function(
        cls, carrier: Carrier, fn: Callable[[Point], Point], label: str | None = None
    ) -> "Permutation":
        images = tuple(carrier.index(fn(p)) for p in carrier.points)
        return cls(carrier, images, label)

    @classmethod
    def identity(cls, carrier: Carrier) -> "Permutation":
        return cls(carrier, tuple(range(len(carrier))), "Id")

    def __call__(self, point: Point) -> Point:
        return self.carrier.points[self.images[self.carrier.index(point)]]

    def __mul__(self, inner: "Permutation") -> "Permutation":
        """self after inner."""
        if self.carrier is not inner.carrier and self.carrier != inner.carrier:
            raise CarrierMismatchError("cannot compose permutations on different carriers")
        return Permutation(self.carrier, tuple(self.images[j] for j in inner.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(self.carrier, tuple(inv))

    def relabeled(self, label: str | None) -> "Permutation":
        return Permutation(self.carrier, self.images, label)

    def commutes_with(self, other: "Permutation") -> bool:
        """self * other == other * self, checked without building either product."""
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise CarrierMismatchError("cannot compose permutations on different carriers")
        p, q = self.images, other.images
        return [p[x] for x in q] == [q[x] for x in p]

    def cycles(self) -> tuple[tuple[Point, ...], ...]:
        """Disjoint cycles, each starting at its minimal carrier index,
        listed by first-point index; fixed points omitted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(self.carrier.points[i])
                i = self.images[i]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycles)

    def __str__(self) -> str:
        return self.label if self.label is not None else self.cycle_notation()


class PermGroup(Value):
    """A finite set of permutations closed under composition and inverse."""

    __slots__ = ("carrier", "elements", "_cayley")
    _fields = ("carrier", "elements")

    def __init__(self, carrier: Carrier, elements: frozenset[Permutation]):
        for p in elements:
            if p.carrier is not carrier and p.carrier != carrier:
                raise CarrierMismatchError("group element on wrong carrier")
        self._set(carrier, elements, None)

    def __hash__(self) -> int:
        return hash(self.elements)  # a frozenset keeps its hash once computed

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements

    def __le__(self, other: "PermGroup") -> bool:
        same = self.carrier is other.carrier or self.carrier == other.carrier
        return same and self.elements <= other.elements

    def sorted_elements(self) -> tuple[Permutation, ...]:
        return tuple(sorted(self.elements, key=lambda p: p.images))

    def identity(self) -> Permutation:
        return Permutation.identity(self.carrier)

    def is_group(self) -> bool:
        """Group-axiom check: the Cayley table builds iff the set holds the
        identity and every product, and a finite such set holds every inverse."""
        try:
            _cayley_table(self)
        except ValueError:
            return False
        return True


def close_generators(
    gens: Iterable[Permutation], carrier: Carrier | None = None, within: PermGroup | None = None
) -> PermGroup:
    """Smallest group containing the generators (and the identity).

    Given an ambient group `within` that holds the generators, the search runs
    on element indices over its Cayley table and returns a group of its own
    elements, one object per element mask, kept with that table; `carrier`
    may then be None, and must otherwise be `within.carrier`."""
    gens = list(gens)
    if within is not None:
        if carrier is not None and carrier is not within.carrier and carrier != within.carrier:
            raise CarrierMismatchError("ambient group lives on a different carrier")
        elements, index, table, identity, closed = _cayley_table(within)
        picked = [index.get(g.images) for g in gens]
        if any(i is None or elements[i] != g for i, g in zip(picked, gens)):
            raise ValueError("generator is not in the ambient group")
        rows = [table[i] for i in picked]
        mask, found = 1 << identity, [identity]
        for p in found:  # the loop also visits the elements appended below
            for row in rows:
                q = row[p]
                if not mask >> q & 1:
                    mask |= 1 << q
                    found.append(q)
        if mask not in closed:
            closed[mask] = PermGroup(within.carrier, frozenset([elements[i] for i in found]))
        return closed[mask]
    if carrier is None:
        if not gens:
            raise ValueError("cannot infer a carrier from an empty generator set")
        carrier = gens[0].carrier
    for g in gens:
        if g.carrier != carrier:
            raise CarrierMismatchError("generators live on different carriers")
    tables = [g.images for g in gens]
    identity = Permutation.identity(carrier)
    frontier = {identity.images}
    seen = set(frontier)
    while frontier:
        # one breadth-first level on raw image tables: (g * p)[i] = g[p[i]]
        frontier = {tuple([g[i] for i in p]) for p in frontier for g in tables} - seen
        seen |= frontier
    seen.discard(identity.images)
    # generator closure of a finite carrier is inverse-closed automatically
    return PermGroup(
        carrier, frozenset([identity] + [Permutation(carrier, q) for q in seen])
    )


def _cayley_table(group: PermGroup):
    """(elements in `sorted_elements` order, their index by image table,
    table[i][j] = index of elements[i] * elements[j], identity index, and the
    subgroups `close_generators` found, by element mask), built on first use
    and kept on the group; ValueError if the identity or a product is missing."""
    if group._cayley is None:
        elements = group.sorted_elements()
        index = {p.images: i for i, p in enumerate(elements)}
        try:
            table = tuple(
                tuple(index[tuple([p.images[j] for j in q.images])] for q in elements)
                for p in elements
            )
            identity = index[tuple(range(len(group.carrier)))]
        except KeyError:
            raise ValueError("ambient group is not a group") from None
        object.__setattr__(group, "_cayley", (elements, index, table, identity, {}))
    return group._cayley


def _generators(group: PermGroup) -> list[Permutation]:
    """A generating set: each element, in Cayley-table order, that the earlier
    picks do not generate.  Each pick at least doubles the subgroup, so there
    are at most log2 |group| of them; ValueError if `group` is not a group."""
    gens: list[Permutation] = []
    sub = close_generators(gens, None, group)
    for p in _cayley_table(group)[0]:
        if p not in sub:
            gens.append(p)
            sub = close_generators(gens, None, group)
    return gens


def orbit(group: PermGroup, point: Point) -> frozenset[Point]:
    if point not in group.carrier:
        raise ValueError(f"{point!r} is not on the group's carrier")
    return frozenset(p(point) for p in group.elements)


def is_simply_transitive(group: PermGroup, subset: Iterable[Point]) -> bool:
    """True iff the group preserves the subset and acts simply transitively
    on it (transitive, with only the identity fixing a point)."""
    pts = set(subset)
    if not pts:
        raise ValueError("subset must be nonempty")
    indices = {group.carrier.index(p) for p in pts}
    for p in group.elements:
        if not {p.images[i] for i in indices} <= indices:
            return False
    if len(group) != len(pts):
        return False
    base = next(iter(indices))
    return {p.images[base] for p in group.elements} == indices


def centralizer_brute(group: PermGroup) -> PermGroup:
    """All permutations of the carrier commuting with every group element,
    found by exhausting Sym(carrier).  Refuses carriers above the
    "centralizer" bound."""
    n = len(group.carrier)
    check_bound("centralizer", n)
    elems = list(group.elements)
    found = []
    for images in itertools.permutations(range(n)):
        if all(
            tuple(images[j] for j in p.images) == tuple(p.images[j] for j in images)
            for p in elems
        ):
            found.append(Permutation(group.carrier, tuple(images)))
    return PermGroup(group.carrier, frozenset(found))


def all_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every subgroup, each exactly once, by closing all generator pairs.

    Sufficient for the dihedral-type groups this library works with
    (every subgroup is 2-generated); the test suite cross-checks with a
    3-generator sweep.  All 577 closures run, on element masks over the
    group's Cayley table, so each subgroup is made of the group's own
    elements, labels included (an unlabelled identity stays unlabelled), and
    is built once per mask; subgroups are sorted by order, then by element
    indices.
    """
    check_bound("subgroups", len(group))
    elems, index = _cayley_table(group)[:2]
    found = {close_generators([], None, group)}
    for a in elems:
        for b in elems:
            found.add(close_generators([a, b], None, group))
    return sorted(found, key=lambda g: (len(g), sorted([index[p.images] for p in g.elements])))
