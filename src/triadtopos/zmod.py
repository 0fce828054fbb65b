"""Exact arithmetic on Z_12: pitch classes, affine maps, T/I elements, triads.

Pitch classes use the semitone encoding with 0 = C.  All values are
immutable and every operation is pure.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from typing import Iterable

from ._value import Value

MOD = 12

#: A decimal integer in canonical ASCII spelling: no "+", "-0" or leading zeros.
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*", re.ASCII)

# Flat-preferring spellings; "Gb" not "F#".
ROOT_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
_ROOT_INDEX = {name: i for i, name in enumerate(ROOT_NAMES)}

#: Multipliers of invertible affine maps on Z_12 (all self-inverse mod 12).
UNITS = frozenset({1, 5, 7, 11})


class AffineMap(Value):
    """The map z -> m*z + b on Z_12, canonicalized mod 12."""

    __slots__ = _fields = ("m", "b")

    def __init__(self, m: int, b: int):
        self._set(m % MOD, b % MOD)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AffineMap:
            return NotImplemented
        return self.m == other.m and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.m, self.b))

    def __call__(self, z: int) -> int:
        return (self.m * z + self.b) % MOD

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: z -> self(inner(z))."""
        return AffineMap(self.m * inner.m, self.m * inner.b + self.b)

    @property
    def is_invertible(self) -> bool:
        return self.m in UNITS

    def inverse(self) -> "AffineMap":
        if not self.is_invertible:
            raise ValueError(f"affine map {self} is not invertible (m={self.m})")
        # units of Z_12 are involutions: m * m == 1 (mod 12)
        return AffineMap(self.m, -self.m * self.b)

    def apply_set(self, s: frozenset[int]) -> frozenset[int]:
        return frozenset(self(z) for z in s)

    def __str__(self) -> str:
        return f"z->{self.m}z+{self.b}"


IDENTITY = AffineMap(1, 0)


def transposition(n: int) -> AffineMap:
    """T_n: z -> z + n."""
    return AffineMap(1, n)


def inversion(n: int) -> AffineMap:
    """I_n: z -> n - z."""
    return AffineMap(11, n)


def ti_element(kind: str, n: int) -> AffineMap:
    """The T/I-group element named by kind 'T' or 'I' and index n."""
    if kind == "T":
        return transposition(n)
    if kind == "I":
        return inversion(n)
    raise ValueError(f"unknown T/I kind {kind!r}")


def ti_name(a: AffineMap) -> str:
    """Canonical name of a T/I element ('T5', 'I11')."""
    if a.m == 1:
        return f"T{a.b}"
    if a.m == 11:
        return f"I{a.b}"
    raise ValueError(f"{a} is not a T/I element")


def parse_ti(name: str) -> AffineMap:
    """Parse 'T5' or 'I11'; the index must be in 0..11."""
    kind, idx = name[:1], name[1:]
    if kind not in ("T", "I") or not (_CANONICAL_INT.fullmatch(idx) and idx.isdigit()):
        raise ValueError(f"malformed T/I element name {name!r}")
    if int(idx) >= MOD:
        raise ValueError(f"T/I index in {name!r} is outside 0..{MOD - 1}")
    return ti_element(kind, int(idx))


def ti_group_maps() -> tuple[AffineMap, ...]:
    """All 24 T/I elements, transpositions first."""
    return tuple(transposition(n) for n in range(MOD)) + tuple(
        inversion(n) for n in range(MOD)
    )


class Quality(Enum):
    MAJOR = "major"
    MINOR = "minor"


class Chord(Value):
    """A consonant triad: (root, quality)."""

    __slots__ = _fields = ("root", "quality")

    def __init__(self, root: int, quality: Quality):
        self._set(root % MOD, quality)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Chord:
            return NotImplemented
        return self.root == other.root and self.quality is other.quality

    def __hash__(self) -> int:
        return hash((self.root, self.quality))

    @property
    def name(self) -> str:
        base = ROOT_NAMES[self.root]
        return base if self.quality is Quality.MAJOR else base.lower()

    def pitches(self) -> frozenset[int]:
        third = 4 if self.quality is Quality.MAJOR else 3
        return frozenset({self.root, (self.root + third) % MOD, (self.root + 7) % MOD})

    def __str__(self) -> str:
        return self.name


def chord(name: str) -> Chord:
    """Parse a chord name: uppercase root letter = major, lowercase = minor."""
    if not name:
        raise ValueError("empty chord name")
    quality = Quality.MAJOR if name[0].isupper() else Quality.MINOR
    key = name[0].upper() + name[1:]
    if key not in _ROOT_INDEX:
        raise ValueError(f"unknown chord name {name!r}")
    return Chord(_ROOT_INDEX[key], quality)


def all_chords() -> tuple[Chord, ...]:
    """The 24 consonant triads, ordered C, c, Db, db, ..., B, b."""
    out = []
    for r in range(MOD):
        out.append(Chord(r, Quality.MAJOR))
        out.append(Chord(r, Quality.MINOR))
    return tuple(out)


_PITCHES_TO_CHORD = {c.pitches(): c for c in all_chords()}


def chord_from_pitches(pitches: frozenset[int]) -> Chord:
    try:
        return _PITCHES_TO_CHORD[frozenset(p % MOD for p in pitches)]
    except KeyError:
        raise ValueError(f"{sorted(pitches)} is not a consonant triad") from None


def transform_chord(a: AffineMap, c: Chord) -> Chord:
    """Image of a chord under an invertible affine map with m in {1, 11}."""
    return chord_from_pitches(a.apply_set(c.pitches()))


def pcset(values: Iterable[int]) -> frozenset[int]:
    return frozenset(v % MOD for v in values)


def parse_pcset(text: str) -> frozenset[int]:
    """Parse '0,4,7' into a pitch-class set; each pitch class must be in 0..11."""
    text = text.strip()
    if not text:
        return frozenset()
    tokens = [tok.strip(" ") for tok in text.split(",")]
    if not all(_CANONICAL_INT.fullmatch(tok) for tok in tokens):
        raise ValueError(f"malformed pitch set {text!r}")
    values = [int(tok) for tok in tokens]
    outside = [v for v in values if not 0 <= v < MOD]
    if outside:
        raise ValueError(f"pitch class {outside[0]} in {text!r} is outside 0..{MOD - 1}")
    return frozenset(values)


def format_pcset(s: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def mask_of(s: Iterable[int]) -> int:
    """A set of small non-negative ints as a bit mask: bit z is set iff z
    is in s.  A pitch set becomes a MOD-bit mask."""
    mask = 0
    for z in s:
        mask |= 1 << z
    return mask


def pitches_of(mask: int) -> frozenset[int]:
    """The pitch set whose MOD-bit mask is `mask`."""
    return frozenset(z for z in range(MOD) if mask >> z & 1)


@cache
def _triad_masks() -> tuple[tuple[Chord, int], ...]:
    """Each triad of `all_chords()` with its pitch mask, in that order."""
    return tuple((c, mask_of(c.pitches())) for c in all_chords())


def maximal_cover(s: frozenset[int]) -> tuple[tuple[Chord, ...], bool]:
    """All triads contained in s, plus whether they jointly cover s."""
    mask = mask_of(s)
    # The returned tuple is built from a list: built from a generator, it
    # made a warm process's RSS grow by ~1.4 MB over 60000 calls.
    contained, union = [], 0
    for c, m in _triad_masks():
        if m & mask == m:
            contained.append(c)
            union |= m
    return tuple(contained), union == mask
