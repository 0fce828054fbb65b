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
    is_closed,
    natural_action,
    triadic_monoid,
)
from .zmod import MOD, AffineMap, format_pcset, maximal_cover, pcset

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


def _is_left_ideal(monoid: TriadicMonoid, subset: frozenset[str]) -> bool:
    return all(
        monoid.compose_labels(t, b) in subset for t in monoid.labels for b in subset
    )


@cache
def left_ideals() -> tuple[OmegaElement, ...]:
    """All left ideals, by exhaustive scan of the 2^8 subsets.

    Ordered by size with the L-before-R tie broken lexicographically:
    ∅ < C < L < R < P < T.
    """
    monoid = triadic_monoid()
    found = []
    for r in range(len(monoid.labels) + 1):
        for combo in itertools.combinations(monoid.labels, r):
            subset = frozenset(combo)
            if _is_left_ideal(monoid, subset):
                found.append(subset)
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


def omega_by_name(name: str) -> OmegaElement:
    return left_ideals()[_omega_index()[name]]


def omega_action(m_label: str, b: OmegaElement) -> OmegaElement:
    """The classifier action: m . B = {n : n∘m in B}."""
    monoid = triadic_monoid()
    image = frozenset(
        n for n in monoid.labels if monoid.compose_labels(n, m_label) in b.members
    )
    for o in left_ideals():
        if o.members == image:
            return o
    raise AssertionError(f"classifier action left the ideal set: {sorted(image)}")


@cache
def omega_action_table() -> dict[tuple[str, str], str]:
    monoid = triadic_monoid()
    return {
        (m, b.name): omega_action(m, b).name
        for m in monoid.labels
        for b in left_ideals()
    }


@cache
def omega_meet_table() -> dict[tuple[str, str], str]:
    by_members = {o.members: o.name for o in left_ideals()}
    return {
        (r.name, s.name): by_members[r.members & s.members]
        for r in left_ideals()
        for s in left_ideals()
    }


@dataclass(frozen=True)
class LTTopology:
    """An equivariant, top-fixing, idempotent, meet-preserving endo-map
    of Omega, as a name -> name table."""

    name: str
    table: tuple[tuple[str, str], ...]

    def __call__(self, b: OmegaElement | str) -> OmegaElement:
        key = b if isinstance(b, str) else b.name
        return omega_by_name(dict(self.table)[key])

    def mapping(self) -> dict[str, str]:
        return dict(self.table)


def _is_topology(images: tuple[int, ...]) -> bool:
    """Axiom check for a candidate endo-map given as indices into the
    canonical Omega order."""
    ideals = left_ideals()
    names = [o.name for o in ideals]
    n = len(ideals)
    top = n - 1
    if images[top] != top:
        return False
    # idempotence
    if any(images[images[i]] != images[i] for i in range(n)):
        return False
    # equivariance under all 8 monoid elements
    act = omega_action_table()
    idx = _omega_index()
    for m in triadic_monoid().labels:
        for i in range(n):
            lhs = images[idx[act[(m, names[i])]]]
            rhs = idx[act[(m, names[images[i]])]]
            if lhs != rhs:
                return False
    # meet preservation
    meet = omega_meet_table()
    for i in range(n):
        for j in range(i, n):
            lhs = meet[(names[images[i]], names[images[j]])]
            rhs = names[images[idx[meet[(names[i], names[j])]]]]
            if lhs != rhs:
                return False
    return True


@cache
def lt_topologies() -> tuple[LTTopology, ...]:
    """The six Lawvere-Tierney topologies, by scanning all 6^6 endo-maps.

    Named j_T (identity), j_P / j_L / j_R (by their upgrade of {0,4,7}),
    and j_C / j_F for the two chromatic upgrades, ordered by their value
    at the empty ideal.  The j_C / j_F assignment is a convention: only
    the pair is pinned by the upgrade table, not which is which.
    """
    ideals = left_ideals()
    names = [o.name for o in ideals]
    n = len(ideals)
    survivors = []
    for images in itertools.product(range(n), repeat=n):
        if _is_topology(images):
            survivors.append(images)
    if len(survivors) != 6:
        raise AssertionError(f"expected 6 topologies, scan found {len(survivors)}")

    act = natural_action()
    c_chord = pcset({0, 4, 7})
    chi = characteristic_morphism(c_chord, act)
    by_upgrade = {
        frozenset({0, 4, 7}): "j_T",
        frozenset({0, 3, 4, 7}): "j_P",
        frozenset({0, 3, 4, 7, 8, 11}): "j_L",
        frozenset({0, 1, 3, 4, 6, 7, 9, 10}): "j_R",
    }
    named: list[tuple[str, tuple[int, ...]]] = []
    chromatic = []
    idx = _omega_index()
    for images in survivors:
        carrier = frozenset(
            z for z in range(MOD) if images[idx[chi.table[z]]] == n - 1
        )
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
        LTTopology(name, tuple((names[i], names[img]) for i, img in enumerate(images)))
        for name, images in sorted(named, key=lambda pair: order.index(pair[0]))
    )


def topology_by_name(name: str) -> LTTopology:
    for j in lt_topologies():
        if j.name == name:
            return j
    raise ValueError(f"unknown topology {name!r}")


@dataclass(frozen=True)
class CharMorphism:
    """The classifying map of a closed pitch set: z -> ideal name."""

    subset: frozenset[int]
    table: tuple[str, ...]  # index = pitch class, value = Omega name

    def __call__(self, z: int) -> OmegaElement:
        return omega_by_name(self.table[z % MOD])


def characteristic_morphism(d: frozenset[int], action: MonoidAction) -> CharMorphism:
    """chi(z) = {m : m.z in d}; equivariant, with chi^{-1}(T) = d."""
    if not is_closed(d, action):
        raise NotClosedError(f"{format_pcset(d)} is not closed under the action")
    monoid = action.monoid
    by_members = {o.members: o.name for o in left_ideals()}
    table = []
    for z in range(MOD):
        members = frozenset(m for m in monoid.labels if action.act_label(m, z) in d)
        try:
            table.append(by_members[members])
        except KeyError:
            raise AssertionError(
                f"classifier value at {z} is not a left ideal: {sorted(members)}"
            ) from None
    return CharMorphism(d, tuple(table))


def upgrade(d: frozenset[int], action: MonoidAction, j: LTTopology) -> frozenset[int]:
    """Carrier of the j-upgrade: the preimage of the top ideal under j∘chi."""
    chi = characteristic_morphism(d, action)
    return frozenset(z for z in range(MOD) if j(chi.table[z]).name == "T")


def upgrade_table(
    d: frozenset[int], action: MonoidAction
) -> list[tuple[str, frozenset[int]]]:
    """(topology name, upgrade carrier) for all six topologies."""
    return [(j.name, upgrade(d, action, j)) for j in lt_topologies()]


def conjugated_upgrades(phi: AffineMap):
    """Rows (topology, carrier, maximal cover, PLR subgroup name) for the
    j_P / j_L / j_R upgrades of phi({0,4,7}) under the phi-conjugated
    action; carriers are computed directly and equal the phi-images of
    the natural upgrades."""
    act = conjugated_action(phi)
    seed = phi.apply_set(pcset({0, 4, 7}))
    subgroup_names = {"j_P": "<P>", "j_L": "<P,L>", "j_R": "<P,R>"}
    rows = []
    for j in lt_topologies():
        if j.name not in subgroup_names:
            continue
        carrier = upgrade(seed, act, j)
        direct = phi.apply_set(upgrade(pcset({0, 4, 7}), natural_action(), j))
        if carrier != direct:
            raise AssertionError(
                f"two-path upgrade mismatch for {j.name} at phi={phi}"
            )
        cover, _ = maximal_cover(carrier)
        rows.append((j.name, carrier, cover, subgroup_names[j.name]))
    return rows
