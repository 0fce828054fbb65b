"""Dual pairs of commuting simply transitive group actions: regular
representations, dual-group construction,
the T/I and PLR groups on the 24 triads, and sub-dual systems.
"""

from __future__ import annotations

import itertools
from functools import cache
from types import MappingProxyType
from typing import Mapping

from ._value import Value
from .permgroup import (
    Carrier,
    CarrierMismatchError,
    PermGroup,
    Permutation,
    Point,
    SEARCH_BOUNDS,
    _generators,
    centralizer_brute,
    check_bound,
    close_generators,
    is_simply_transitive,
    orbit,
)
from .zmod import (
    MOD,
    AffineMap,
    Chord,
    Quality,
    all_chords,
    chord,
    ti_group_maps,
    ti_name,
    transform_chord,
)


class NotSimplyTransitiveError(ValueError):
    """Raised when an operation requires a simply transitive action."""


class NotCommutingError(ValueError):
    """Raised with a witness when a required commutation fails."""

    def __init__(self, p: Permutation, q: Permutation):
        self.witness = (p, q)
        super().__init__(
            f"{p.cycle_notation()} does not commute with {q.cycle_notation()}"
        )


class AbstractGroup(Value):
    """A group given by element labels and a multiplication table
    (table[i][j] = index of element i * element j)."""

    __slots__ = ("labels", "table", "identity")
    _fields = ("labels", "table")

    def __init__(self, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        n = len(labels)
        rng = range(n)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("multiplication table has wrong shape")
        if any(table[i][j] not in rng for i in rng for j in rng):
            raise ValueError("multiplication table entry out of range")
        # identity
        identity = None
        for e in rng:
            if all(table[e][x] == x == table[x][e] for x in rng):
                identity = e
        if identity is None:
            raise ValueError("table has no identity element")
        # inverses: each row must hit the identity
        if any(identity not in table[i] for i in rng):
            raise ValueError("table has an element without an inverse")
        # associativity
        for i in rng:
            for j in rng:
                for k in rng:
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError("multiplication table is not associative")
        self._set(labels, table, identity)

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)

    @classmethod
    def cyclic(cls, n: int) -> "AbstractGroup":
        labels = tuple(f"r{k}" for k in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, table)

    @classmethod
    def symmetric(cls, n: int) -> "AbstractGroup":
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        labels = tuple("".join(str(x) for x in p) for p in perms)
        table = tuple(
            tuple(index[tuple(p[q[k]] for k in range(n))] for q in perms)
            for p in perms
        )
        return cls(labels, table)


def regular_representations(g: AbstractGroup) -> tuple[PermGroup, PermGroup]:
    """Left and right regular representations of g on its own elements:
    lambda_a(h) = a*h and rho_a(h) = h*a^{-1}."""
    check_bound("regular representations", len(g.labels))
    carrier = Carrier(g.labels)
    lam = frozenset(
        Permutation(carrier, tuple(g.table[a]), f"λ({label})")
        for a, label in enumerate(g.labels)
    )
    rho = frozenset(
        Permutation(carrier, tuple(row[g.inverse(a)] for row in g.table), f"ρ({label})")
        for a, label in enumerate(g.labels)
    )
    return PermGroup(carrier, lam), PermGroup(carrier, rho)


# ---------------------------------------------------------------------------
# The T/I and PLR groups on the 24 consonant triads
# ---------------------------------------------------------------------------

CHORDS: tuple[Chord, ...] = all_chords()
CHORD_CARRIER = Carrier(CHORDS)


def ti_perm(a: AffineMap) -> Permutation:
    """A T/I element acting pointwise on the 24 triads."""
    return Permutation.from_function(
        CHORD_CARRIER, lambda c: transform_chord(a, c), ti_name(a)
    )


@cache
def ti_group() -> PermGroup:
    return PermGroup(CHORD_CARRIER, frozenset(ti_perm(a) for a in ti_group_maps()))


def dual_group(g: PermGroup, s0: Point) -> PermGroup:
    """The dual of a simply transitive group: h*s0 -> h*g^{-1}*s0."""
    if not is_simply_transitive(g, g.carrier.points):
        raise NotSimplyTransitiveError("dual_group requires a simply transitive input")
    h_for = {h(s0): h for h in g.elements}  # the unique h with h(s0) = s
    out = []
    for p in g.elements:
        p_inv_s0 = p.inverse()(s0)
        out.append(
            Permutation.from_function(
                g.carrier,
                lambda s, t=p_inv_s0: h_for[s](t),
                f"ρ({p.label})" if p.label else None,
            )
        )
    return PermGroup(g.carrier, frozenset(out))


def verify_dual(g: PermGroup, h: PermGroup) -> bool:
    """True iff g and h act simply transitively on their shared carrier and
    commute elementwise, which makes them mutual centralizers (checked by
    `_check_dual`); CarrierMismatchError if the carriers differ."""
    try:
        _check_dual(g, h)
    except (NotSimplyTransitiveError, NotCommutingError):
        return False
    return True


def _check_dual(g: PermGroup, h: PermGroup) -> None:
    """Refuse a pair that is not dual on its carrier: NotSimplyTransitiveError
    naming g or h, or NotCommutingError with a pair that does not commute.

    Commutation is checked on generating sets (`permgroup._generators`): if
    the generators commute pairwise, so do all their products.  A simply
    transitive set that is not a group cannot pass: if g and h act simply
    transitively on X and commute elementwise, g lies in the centralizer C of
    the transitive <h>; an element of C fixing one point fixes all, so
    |C| <= |X| = |g| and g = C is a group, and so is h.  For such a set all
    element pairs are scanned for the witness.  Carriers within the
    "centralizer" bound also cross-check both centralizers by brute force.
    """
    if g.carrier != h.carrier:
        raise CarrierMismatchError("dual groups must share a carrier")
    pts = g.carrier.points
    for name, group in (("g", g), ("h", h)):
        if not is_simply_transitive(group, pts):
            raise NotSimplyTransitiveError(f"{name} does not act simply transitively")
    try:
        pairs = itertools.product(_generators(g), _generators(h))
    except ValueError:  # not a group, so some element pair does not commute
        pairs = itertools.product(g.sorted_elements(), h.sorted_elements())
    for p, q in pairs:
        if not p.commutes_with(q):
            raise NotCommutingError(p, q)
    if len(pts) <= SEARCH_BOUNDS["centralizer"]:
        if centralizer_brute(g) != h or centralizer_brute(h) != g:
            raise AssertionError("commuting simply transitive groups are not mutual centralizers")


#: Q_k and PQ_k labels of the PLR group, indexed by k (Q0 is Id, PQ0 is P).
Q_LABELS = ("Id", *(f"Q{k}" for k in range(1, MOD)))
PQ_LABELS = ("P", *(f"PQ{k}" for k in range(1, MOD)))

#: Display order of element labels: T0..T11, I0..I11, then the PLR labels.
LABEL_ORDER = (*(ti_name(a) for a in ti_group_maps()), *Q_LABELS, *PQ_LABELS)

#: Display names of the PLR subgroups that witness enumeration rows,
#: keyed by element labels.
SUBGROUP_NAMES = {
    frozenset({"Id"}): "{Id}",
    frozenset({"Id", "P"}): "{Id,P}",
    frozenset({"Id", "P", "Q4", "Q8", "PQ4", "PQ8"}): "<P,L>",
    frozenset({"Id", "P", "Q3", "Q6", "Q9", "PQ3", "PQ6", "PQ9"}): "<P,R>",
    frozenset({"Id", "Q6"}): "{Id,Q6}",
    frozenset({"Id", "Q6", "PQ1", "PQ7"}): "{Id,Q6,Sl,Q6Sl}",
    frozenset(Q_LABELS + PQ_LABELS): "PLR-group",
}

#: Conventional names of PLR elements other than their labels.
_PLR_ALIASES = {"L": "PQ4", "R": "PQ9", "Q0": "Id", "Sl": "PQ1"}


@cache
def plr_group() -> PermGroup:
    """The PLR group: dual of the T/I group at s0 = C.

    Each element is labeled by its image of C alone: a major chord of root
    k gives Q_k, a minor chord of root k gives PQ_k.  That Q_k transposes
    majors up k and minors down k is checked here on all 24 triads.
    """
    c = chord("C")
    labeled = []
    for p in dual_group(ti_group(), c).elements:
        image = p(c)
        k = image.root
        if image.quality is Quality.MINOR:
            labeled.append(p.relabeled(PQ_LABELS[k]))
            continue
        for x in CHORDS:
            shift = k if x.quality is Quality.MAJOR else -k
            if p(x) != Chord(x.root + shift, x.quality):
                raise AssertionError(f"PLR element sends C to a major chord but is not Q{k}")
        labeled.append(p.relabeled(Q_LABELS[k]))
    return PermGroup(CHORD_CARRIER, frozenset(labeled))


@cache
def plr_by_label() -> Mapping[str, Permutation]:
    """The PLR-group elements keyed by their Q_k / PQ_k labels."""
    return MappingProxyType({p.label: p for p in plr_group().elements})


def in_label_order(group: PermGroup) -> list[Permutation]:
    """The elements of a labeled T/I or PLR (sub)group, in LABEL_ORDER."""
    return sorted(group.elements, key=lambda p: LABEL_ORDER.index(p.label))


def subgroup_name(group: PermGroup) -> str:
    """Display name of a labeled PLR subgroup: its SUBGROUP_NAMES entry,
    else its element labels in LABEL_ORDER."""
    labels = frozenset(p.label for p in group.elements)
    if labels in SUBGROUP_NAMES:
        return SUBGROUP_NAMES[labels]
    return "{" + ",".join(p.label for p in in_label_order(group)) + "}"


def relabel_from(group: PermGroup, labeled: PermGroup) -> PermGroup:
    """Replace each element with its labeled twin from another group.
    Unused here (`close_generators(..., within)` keeps labels); kept while
    `bench/tracer.py` spans it by name."""
    by_images = {p.images: p for p in labeled.elements}
    return PermGroup(
        group.carrier, frozenset(by_images.get(p.images, p) for p in group.elements)
    )


def plr_subgroup(*names: str) -> PermGroup:
    """The subgroup of the PLR group generated by the named elements,
    with computed Q_k / PQ_k labels."""
    return close_generators([plr_named(n) for n in names], None, plr_group())


def plr_named(name: str) -> Permutation:
    """PLR-group elements by conventional name: the labels Id, Q1..Q11,
    P, PQ1..PQ11, their aliases L, R and Q0 (= Id), and the slide Sl.

    P, L, R act as right multiplication by I_7, I_11, I_4; the slide Sl
    (= PQ1) holds the third of a triad fixed and moves root and fifth by a
    semitone (up for majors, down for minors).
    """
    label = _PLR_ALIASES.get(name, name)
    if label not in plr_by_label():
        raise ValueError(f"unknown PLR element name {name!r}")
    return plr_by_label()[label].relabeled(name)


# ---------------------------------------------------------------------------
# Sub-dual systems (orbit of a subgroup + partner subgroup)
# ---------------------------------------------------------------------------


class SubDualSystem(Value):
    """The data of a sub-dual pair of PermGroups: a subgroup g0 of g, a base
    point s0, its orbit `points` (in carrier order), the partner
    h0 = {h in h : h(s0) in orbit} and the restrictions of both to the orbit."""

    __slots__ = _fields = ("g", "h", "g0", "s0", "points", "h0", "g0_restricted", "h0_restricted")

    @property
    def restricted_carrier(self) -> Carrier:
        return self.g0_restricted.carrier


def restrict(p: Permutation, sub: Carrier) -> Permutation:
    """Restriction of a permutation to an invariant sub-carrier."""
    return Permutation.from_function(sub, lambda x: p(x), p.label)


def restrict_group(g: PermGroup, sub: Carrier) -> PermGroup:
    return PermGroup(sub, frozenset(restrict(p, sub) for p in g.elements))


def sub_dual(g: PermGroup, h: PermGroup, g0: PermGroup, s0: Point) -> SubDualSystem:
    """Build the sub-dual system of (g, h) determined by g0 and s0.  Refuses
    a g0 that is no subgroup of g (ValueError naming it) and a pair (g, h)
    that is not dual (`_check_dual`, which for PLR and T/I makes 4
    commutation checks, on two generators of each)."""
    if not g0 <= g:
        outside = next(p for p in g0.sorted_elements() if p not in g)
        raise ValueError(f"g0 must be a subgroup of g: {outside} is not in g")
    if not g0.is_group():
        names = ",".join(str(p) for p in g0.sorted_elements())
        raise ValueError(f"g0 must be a subgroup of g: {{{names}}} is not a group")
    _check_dual(g, h)
    pts = orbit(g0, s0)
    ordered = tuple(p for p in g.carrier.points if p in pts)
    h0 = PermGroup(h.carrier, frozenset(p for p in h.elements if p(s0) in pts))
    sub = Carrier(ordered)
    return SubDualSystem(
        g=g,
        h=h,
        g0=g0,
        s0=s0,
        points=ordered,
        h0=h0,
        g0_restricted=restrict_group(g0, sub),
        h0_restricted=restrict_group(h0, sub),
    )


def transform_orbit(sys: SubDualSystem, k: Permutation) -> SubDualSystem:
    """Move a sub-dual system to the orbit of k(s0), for k in the partner
    ambient group; the partner subgroup conjugates to k h0 k^{-1}."""
    if k not in sys.h:
        raise ValueError(f"transforming element {k} must lie in the ambient partner group")
    return sub_dual(sys.g, sys.h, sys.g0, k(sys.s0))


def extend_commuting(p: Permutation, sys: SubDualSystem, side: str) -> Permutation:
    """Unique ambient extension of a permutation of the orbit that commutes
    with the restricted partner (side='toG') or the restricted subgroup
    (side='toH')."""
    if side not in ("toG", "toH"):
        raise ValueError(f"side must be 'toG' or 'toH', got {side!r}")
    must_commute = sys.h0_restricted if side == "toG" else sys.g0_restricted
    target = sys.g if side == "toG" else sys.h
    for q in must_commute.elements:
        if not p.commutes_with(q):
            raise NotCommutingError(p, q)
    wanted = p(sys.s0)
    for cand in target.elements:
        if cand(sys.s0) == wanted:
            ext = cand
            break
    else:
        raise AssertionError("simply transitive ambient group must reach the image")
    if restrict(ext, sys.restricted_carrier).images != p.images:
        raise AssertionError("ambient candidate does not restrict to the input")
    return ext


def all_orbits(g: PermGroup, h: PermGroup, g0: PermGroup) -> list[SubDualSystem]:
    """One sub-dual system per g0-orbit, covering the whole carrier;
    ordered by the minimal carrier index in each orbit."""
    systems = []
    claimed: set[Point] = set()
    for pt in g.carrier.points:
        if pt in claimed:
            continue
        sys = sub_dual(g, h, g0, pt)
        claimed.update(sys.points)
        systems.append(sys)
    return systems
