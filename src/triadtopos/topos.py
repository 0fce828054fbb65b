"""Concrete subobject-classifier machinery for the triadic monoid.

The classifier Omega is the set of left ideals of the monoid, with action
m . B = {n : n∘m in B}.  A Lawvere-Tierney topology is an equivariant
endo-map j of Omega fixing the top ideal, idempotent, and preserving
pairwise intersections; there are exactly six, recovered here by scanning
all 6^6 endo-maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .monoid import (
    MonoidAction,
    TriadicMonoid,
    conjugated_action,
    natural_action,
    triadic_monoid,
)
from .zmod import MOD, AffineMap, format_pcset, mask_of, maximal_cover, pcset

EMPTY_NAME = "∅"


@dataclass(frozen=True)
class OmegaElement:
    """A left ideal of the triadic monoid, as a set of element labels."""

    name: str
    members: frozenset[str]

    def __contains__(self, label: str) -> bool:
        return label in self.members


class NotClosedError(ValueError):
    """Raised when a pitch set is not closed under the given action."""


def _is_left_ideal(monoid: TriadicMonoid, bits: int) -> bool:
    """Whether the elements whose indices are set in `bits` form a left
    ideal: t∘b stays in it for every monoid element t and member b."""
    members = [b for b in range(len(monoid)) if bits >> b & 1]
    return all(bits >> row[b] & 1 for row in monoid.products for b in members)


@cache
def left_ideals() -> tuple[OmegaElement, ...]:
    """All left ideals, by exhaustive scan of the 2^8 subsets.

    Ordered by size with the L-before-R tie broken lexicographically:
    ∅ < C < L < R < P < T.
    """
    monoid = triadic_monoid()
    found = [
        frozenset(l for k, l in enumerate(monoid.labels) if bits >> k & 1)
        for bits in range(1 << len(monoid))
        if _is_left_ideal(monoid, bits)
    ]
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    names = {
        frozenset(): EMPTY_NAME,
        frozenset({"a", "b", "c"}): "C",
        frozenset({"a", "b", "c", "f", "f2"}): "L",
        frozenset({"a", "b", "c", "g", "g2"}): "R",
        frozenset({"a", "b", "c", "f", "f2", "g", "g2"}): "P",
        frozenset(monoid.labels): "T",
    }
    if set(found) != set(names):
        raise AssertionError("left-ideal scan disagrees with the expected six ideals")
    return tuple(OmegaElement(names[s], s) for s in found)


@cache
def _omega_index() -> dict[str, int]:
    return {o.name: i for i, o in enumerate(left_ideals())}


@cache
def _member_masks() -> tuple[int, ...]:
    """Each Omega element's members as a mask over monoid element indices."""
    labels = triadic_monoid().labels
    return tuple(mask_of(labels.index(l) for l in o.members) for o in left_ideals())


def _omega_of_members(bits: int) -> int:
    """Omega index of the left ideal whose member mask is `bits`."""
    try:
        return _member_masks().index(bits)
    except ValueError:
        raise AssertionError(f"member mask {bits:#b} is not a left ideal") from None


def omega_by_name(name: str) -> OmegaElement:
    return left_ideals()[_omega_index()[name]]


@cache
def omega_action_table() -> tuple[tuple[int, ...], ...]:
    """[m][i] is the Omega index of m . B_i = {n : n∘m in B_i}, for the
    m-th monoid element and the i-th left ideal."""
    products = triadic_monoid().products
    return tuple(
        tuple(
            _omega_of_members(mask_of(n for n, row in enumerate(products) if bits >> row[m] & 1))
            for bits in _member_masks()
        )
        for m in range(len(products))
    )


@cache
def omega_meet_table() -> tuple[tuple[int, ...], ...]:
    """[i][k] is the Omega index of B_i ∩ B_k."""
    masks = _member_masks()
    return tuple(tuple(_omega_of_members(r & s) for s in masks) for r in masks)


def omega_action(m_label: str, b: OmegaElement) -> OmegaElement:
    """The classifier action: m . B = {n : n∘m in B}."""
    m = triadic_monoid().labels.index(m_label)
    return left_ideals()[omega_action_table()[m][_omega_index()[b.name]]]


@dataclass(frozen=True)
class LTTopology:
    """An equivariant, top-fixing, idempotent, meet-preserving endo-map
    of Omega: images[i] is the Omega index of j(B_i)."""

    name: str
    images: tuple[int, ...]

    def __call__(self, b: OmegaElement | str) -> OmegaElement:
        key = b if isinstance(b, str) else b.name
        return left_ideals()[self.images[_omega_index()[key]]]

    @property
    def table(self) -> tuple[tuple[str, str], ...]:
        """The map as (name, image name) pairs in Omega order."""
        ideals = left_ideals()
        return tuple((o.name, ideals[k].name) for o, k in zip(ideals, self.images))

    def mapping(self) -> dict[str, str]:
        return dict(self.table)


def _is_topology(images: tuple[int, ...]) -> bool:
    """Axiom check for a candidate endo-map given as Omega indices."""
    n = len(images)
    top = n - 1
    if images[top] != top:
        return False
    if any(images[images[i]] != images[i] for i in range(n)):
        return False
    # equivariance under all 8 monoid elements
    for row in omega_action_table():
        if any(images[row[i]] != row[images[i]] for i in range(n)):
            return False
    meet = omega_meet_table()
    return all(
        meet[images[i]][images[k]] == images[meet[i][k]] for i in range(n) for k in range(i, n)
    )


def _top_preimage(chi: tuple[int, ...], images: tuple[int, ...]) -> frozenset[int]:
    """The pitch classes z with images[chi[z]] the top ideal."""
    top = len(images) - 1
    return frozenset(z for z, i in enumerate(chi) if images[i] == top)


@cache
def lt_topologies() -> tuple[LTTopology, ...]:
    """The six Lawvere-Tierney topologies, by scanning all 6^6 endo-maps.

    Named j_T (identity), j_P / j_L / j_R (by their upgrade of {0,4,7}),
    and j_C / j_F for the two chromatic upgrades, ordered by their value
    at the empty ideal.  The j_C / j_F assignment is a convention: only
    the pair is pinned by the upgrade table, not which is which.
    """
    n = len(left_ideals())
    survivors = [
        images for images in itertools.product(range(n), repeat=n) if _is_topology(images)
    ]
    if len(survivors) != 6:
        raise AssertionError(f"expected 6 topologies, scan found {len(survivors)}")

    chi = characteristic_morphism(pcset({0, 4, 7}), natural_action()).indices
    by_upgrade = {
        frozenset({0, 4, 7}): "j_T",
        frozenset({0, 3, 4, 7}): "j_P",
        frozenset({0, 3, 4, 7, 8, 11}): "j_L",
        frozenset({0, 1, 3, 4, 6, 7, 9, 10}): "j_R",
    }
    named: list[tuple[str, tuple[int, ...]]] = []
    chromatic = []
    for images in survivors:
        carrier = _top_preimage(chi, images)
        if carrier in by_upgrade:
            named.append((by_upgrade[carrier], images))
        else:
            chromatic.append(images)
    if len(chromatic) != 2:
        raise AssertionError("expected exactly two chromatic-upgrade topologies")
    chromatic.sort(key=lambda images: images[0])
    named += [("j_C", chromatic[0]), ("j_F", chromatic[1])]
    order = ("j_T", "j_P", "j_L", "j_R", "j_C", "j_F")
    return tuple(
        LTTopology(name, images)
        for name, images in sorted(named, key=lambda pair: order.index(pair[0]))
    )


def topology_by_name(name: str) -> LTTopology:
    for j in lt_topologies():
        if j.name == name:
            return j
    raise ValueError(f"unknown topology {name!r}")


@dataclass(frozen=True)
class CharMorphism:
    """The classifying map of a closed pitch set: z -> Omega index."""

    subset: frozenset[int]
    indices: tuple[int, ...]  # index = pitch class, value = Omega index

    @property
    def table(self) -> tuple[str, ...]:
        """The Omega names, by pitch class."""
        ideals = left_ideals()
        return tuple([ideals[i].name for i in self.indices])  # a list: see maximal_cover

    def __call__(self, z: int) -> OmegaElement:
        return left_ideals()[self.indices[z % MOD]]


def characteristic_morphism(d: frozenset[int], action: MonoidAction) -> CharMorphism:
    """chi(z) = {m : m.z in d}; equivariant, with chi^{-1}(T) = d."""
    mask = mask_of(d)
    if action.closure_mask(mask) != mask:
        raise NotClosedError(f"{format_pcset(d)} is not closed under the action")
    # column z holds the image of z under each monoid element
    indices = [  # a list, not a generator: see zmod.maximal_cover
        _omega_of_members(mask_of(k for k, y in enumerate(column) if mask >> y & 1))
        for column in zip(*action.images)
    ]
    return CharMorphism(d, tuple(indices))


def upgrade(d: frozenset[int], action: MonoidAction, j: LTTopology) -> frozenset[int]:
    """Carrier of the j-upgrade: the preimage of the top ideal under j∘chi."""
    return _top_preimage(characteristic_morphism(d, action).indices, j.images)


def upgrade_table(
    d: frozenset[int], action: MonoidAction
) -> list[tuple[str, frozenset[int]]]:
    """(topology name, upgrade carrier) for all six topologies, from one χ."""
    chi = characteristic_morphism(d, action).indices
    return [(j.name, _top_preimage(chi, j.images)) for j in lt_topologies()]


def conjugated_upgrades(phi: AffineMap):
    """Rows (topology, carrier, maximal cover, PLR subgroup name) for the
    j_P / j_L / j_R upgrades of phi({0,4,7}) under the phi-conjugated
    action; carriers are computed directly and equal the phi-images of
    the natural upgrades.  Two χ computations in all, one per path."""
    seed = pcset({0, 4, 7})
    conjugated = dict(upgrade_table(phi.apply_set(seed), conjugated_action(phi)))
    natural = dict(upgrade_table(seed, natural_action()))
    rows = []
    for name, subgroup in (("j_P", "<P>"), ("j_L", "<P,L>"), ("j_R", "<P,R>")):
        carrier = conjugated[name]
        if carrier != phi.apply_set(natural[name]):
            raise AssertionError(f"two-path upgrade mismatch for {name} at phi={phi}")
        cover, _ = maximal_cover(carrier)
        rows.append((name, carrier, cover, subgroup))
    return rows
