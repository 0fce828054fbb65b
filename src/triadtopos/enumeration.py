"""Exhaustive enumeration of monoid-closed, triad-covered pitch sets whose
maximal covers carry a simply transitive PLR-subgroup action, plus a
machine replay of the supporting case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import in_label_order, plr_group, plr_named, subgroup_name, ti_group
from .monoid import MonoidAction, closure, is_closed, natural_action
from .permgroup import PermGroup, all_subgroups, close_generators, is_simply_transitive
from .zmod import MOD, Chord, all_chords, chord, maximal_cover, pcset, pitches_of

#: Fixed names for the carriers the enumeration discovers.
CARRIER_NAMES = {
    frozenset({0, 4, 7}): "Major Chord",
    frozenset({0, 3, 4, 7}): "Major-Minor Mixture",
    frozenset({0, 3, 4, 7, 8, 11}): "Hexatonic",
    frozenset({0, 1, 3, 4, 6, 7, 9, 10}): "Octatonic",
    frozenset({0, 1, 4, 6, 7, 10}): "Major Triad Tritone Mixture",
    frozenset({0, 1, 2, 4, 6, 7, 8, 10}): "Prometheus Tritone Mixture",
    frozenset(range(MOD)): "Chromatic Scale",
}


@dataclass(frozen=True)
class EnumerationRow:
    carrier: frozenset[int]
    type_label: str
    cover: tuple[Chord, ...]
    subgroup: PermGroup

    @property
    def subgroup_name(self) -> str:
        return subgroup_name(self.subgroup)


def _is_closed_covered(mask: int, action: MonoidAction) -> bool:
    """Whether the pitch set with this mask is closed under the action and
    covered by the triads it contains.  The public `is_closed` runs once
    per candidate, so a trace of it counts the whole scan."""
    s = pitches_of(mask)
    return is_closed(s, action) and maximal_cover(s)[1]


def closed_covered_sets() -> list[frozenset[int]]:
    """All nonempty pitch sets closed under the natural monoid action and
    covered by their contained triads, scanning all 2^12 - 1 masks."""
    act = natural_action()
    out = [pitches_of(mask) for mask in range(1, 1 << MOD) if _is_closed_covered(mask, act)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def enumerate_rows() -> list[EnumerationRow]:
    """One row per (closed covered carrier, simply transitive PLR subgroup
    on its maximal cover) pair; exactly seven survive."""
    subgroups = all_subgroups(plr_group())
    rows = []
    for carrier in closed_covered_sets():
        cover, _ = maximal_cover(carrier)
        for sub in subgroups:
            if len(sub) == len(cover) and is_simply_transitive(sub, cover):
                rows.append(
                    EnumerationRow(
                        carrier=carrier,
                        type_label=CARRIER_NAMES.get(carrier, "(unnamed)"),
                        cover=cover,
                        subgroup=sub,
                    )
                )
    display_order = list(CARRIER_NAMES.values())
    rows.sort(
        key=lambda r: (
            display_order.index(r.type_label) if r.type_label in display_order else 99,
            sorted(r.carrier),
        )
    )
    return rows


@dataclass(frozen=True)
class Case1Line:
    generator_index: int  # the i of <P, Q_i>
    subgroup: PermGroup
    c_orbit: tuple[Chord, ...]
    pitch_union: frozenset[int]
    closed: bool
    simply_transitive_on_max_cover: bool

    @property
    def name(self) -> str:
        return f"<P,Q{self.generator_index}>" if self.generator_index else "<P>"


@dataclass(frozen=True)
class Case2Report:
    excluded_pitches: dict[int, tuple[str, str]]  # pitch -> forced parallel pair
    h_candidates: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CaseAudit:
    case1: tuple[Case1Line, ...]
    case2: Case2Report


def _forced_parallel_pair(extra_pitch: int) -> tuple[str, str]:
    """Close {0,4,7} ∪ Gb ∪ {extra} under the monoid and return a major /
    minor pair on one root inside the closure (which forces P into any
    simply transitive cover subgroup).  Gb is included because a
    nontrivial P-free witness subgroup must pair with T6."""
    act = natural_action()
    seed = pcset({0, 4, 7}) | chord("Gb").pitches() | {extra_pitch}
    closed = closure(seed, act)
    cover, _ = maximal_cover(closed)
    by_root: dict[int, set[str]] = {}
    for c in cover:
        by_root.setdefault(c.root, set()).add(c.name)
    for root, names in sorted(by_root.items()):
        if len(names) == 2:
            major, minor = sorted(names)
            return (major, minor)
    raise AssertionError(f"no parallel pair forced by pitch {extra_pitch}")


def case_audit() -> CaseAudit:
    """Machine replay of the two-case argument behind the enumeration."""
    act = natural_action()
    plr = plr_group()
    p = plr_named("P")

    case1 = []
    for i in (0, 1, 2, 3, 4, 6):
        gens = [p] if i == 0 else [p, plr_named(f"Q{i}")]
        sub = close_generators(gens, None, plr)
        c_images = {q(chord("C")) for q in sub.elements}
        c_orbit = tuple(c for c in all_chords() if c in c_images)
        union = frozenset().union(*(c.pitches() for c in c_orbit))
        cover, _ = maximal_cover(union)
        case1.append(
            Case1Line(
                generator_index=i,
                subgroup=sub,
                c_orbit=c_orbit,
                pitch_union=union,
                closed=is_closed(union, act),
                simply_transitive_on_max_cover=is_simply_transitive(sub, cover),
            )
        )

    # Case 2: P-free subgroups.  The pitches 3, 5, 9 are excluded because
    # each forces a parallel major/minor pair into the cover.
    excluded = {pitch: _forced_parallel_pair(pitch) for pitch in (3, 5, 9)}

    ti = ti_group()
    candidates = []
    for sub in all_subgroups(ti):
        if len(sub) == 1:
            continue
        labels = frozenset(q.label for q in sub.elements)
        transpositions = {l for l in labels if l.startswith("T")}
        if not transpositions <= {"T0", "T6"}:
            continue
        c_orbit = {q(chord("C")) for q in sub.elements}
        union = frozenset().union(*(c.pitches() for c in c_orbit))
        if union & {3, 5, 9}:
            continue
        if not is_closed(union, act):
            continue
        candidates.append(tuple(q.label for q in in_label_order(sub)))
    candidates.sort(key=len)

    return CaseAudit(case1=tuple(case1), case2=Case2Report(excluded, tuple(candidates)))
