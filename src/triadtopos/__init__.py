"""Dual groups on the 24 consonant triads, the triadic monoid on Z_12,
and its subobject-classifier / Lawvere-Tierney machinery."""

from .zmod import AffineMap, Chord, chord, all_chords, maximal_cover, pcset
from .permgroup import Carrier, PermGroup, Permutation, close_generators, orbit
from .duality import dual_group, plr_group, plr_named, plr_subgroup, sub_dual, ti_group, verify_dual
from .monoid import conjugated_action, is_closed, natural_action, triadic_monoid
from .topos import (
    characteristic_morphism,
    left_ideals,
    lt_topologies,
    omega_action,
    upgrade,
)
from .enumeration import case_audit, closed_covered_sets, enumerate_rows

__all__ = [
    "AffineMap",
    "Carrier",
    "Chord",
    "PermGroup",
    "Permutation",
    "all_chords",
    "case_audit",
    "characteristic_morphism",
    "chord",
    "close_generators",
    "closed_covered_sets",
    "conjugated_action",
    "dual_group",
    "enumerate_rows",
    "is_closed",
    "left_ideals",
    "lt_topologies",
    "maximal_cover",
    "natural_action",
    "omega_action",
    "orbit",
    "pcset",
    "plr_group",
    "plr_named",
    "plr_subgroup",
    "sub_dual",
    "ti_group",
    "triadic_monoid",
    "upgrade",
    "verify_dual",
]
