"""Bench-owned oracle: every answer the benchmark checks, rebuilt from
literal constants (the paper's monoid, ideals, topologies and tables) with
12-bit pitch masks and 24-entry chord image tables.

Nothing here imports triadtopos, so a defect in the library cannot hide
itself by also changing the expected answer.
"""

from __future__ import annotations

MOD = 12
FULL = (1 << MOD) - 1

ROOT_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")

# Chord index = 2 * root + (1 if minor); names are uppercase for major.
CHORD_NAMES = tuple(
    name for root in ROOT_NAMES for name in (root, root.lower())
)
CHORD_INDEX = {name: i for i, name in enumerate(CHORD_NAMES)}
TRIAD_MASKS = tuple(
    (1 << r) | (1 << (r + (3 if minor else 4)) % MOD) | (1 << (r + 7) % MOD)
    for r in range(MOD)
    for minor in (0, 1)
)

# The triadic monoid: label -> (m, b) for z -> m*z + b (Noll 2005).
MONOID = (
    ("e", 1, 0),
    ("f", 3, 7),
    ("f2", 9, 4),
    ("g", 8, 4),
    ("g2", 4, 0),
    ("a", 0, 0),
    ("b", 0, 4),
    ("c", 0, 7),
)
MONOID_LABELS = tuple(label for label, _, _ in MONOID)

# The six left ideals (the subobject classifier), in canonical order.
IDEALS = (
    ("∅", frozenset()),
    ("C", frozenset("a b c".split())),
    ("L", frozenset("a b c f f2".split())),
    ("R", frozenset("a b c g g2".split())),
    ("P", frozenset("a b c f f2 g g2".split())),
    ("T", frozenset(MONOID_LABELS)),
)
IDEAL_BY_MEMBERS = {members: name for name, members in IDEALS}
IDEAL_NAMES = tuple(name for name, _ in IDEALS)

# The six Lawvere-Tierney topologies as ideal -> ideal tables.
TOPOLOGIES = {
    "j_T": dict(zip(IDEAL_NAMES, ("∅", "C", "L", "R", "P", "T"))),
    "j_P": dict(zip(IDEAL_NAMES, ("∅", "C", "L", "R", "T", "T"))),
    "j_L": dict(zip(IDEAL_NAMES, ("∅", "R", "T", "R", "T", "T"))),
    "j_R": dict(zip(IDEAL_NAMES, ("∅", "L", "L", "T", "T", "T"))),
    "j_C": dict(zip(IDEAL_NAMES, ("∅", "T", "T", "T", "T", "T"))),
    "j_F": dict(zip(IDEAL_NAMES, ("T", "T", "T", "T", "T", "T"))),
}
TOPOLOGY_FLAGS = {
    "T": "j_T",
    "P": "j_P",
    "L": "j_L",
    "R": "j_R",
    "chromatic1": "j_C",
    "chromatic2": "j_F",
}

# The 24 T/I elements, transpositions first: name -> (m, b).
TI_NAMES = tuple(f"T{n}" for n in range(MOD)) + tuple(f"I{n}" for n in range(MOD))
TI_MAPS = {name: (1 if name[0] == "T" else 11, int(name[1:])) for name in TI_NAMES}


def mask_of(pitches) -> int:
    out = 0
    for p in pitches:
        out |= 1 << p
    return out


def pitches_of(mask: int) -> list[int]:
    return [z for z in range(MOD) if mask >> z & 1]


# ---------------------------------------------------------------------------
# pitch sets under a (conjugated) monoid action
# ---------------------------------------------------------------------------


class Action:
    """The monoid acting through phi: t acts as phi∘t∘phi^{-1}."""

    def __init__(self, phi: str | None = None):
        m, b = TI_MAPS[phi or "T0"]
        # m is a unit of Z_12 and its own inverse: phi^{-1}(z) = m*(z - b)
        self.images = {
            label: tuple(
                (m * (tm * (m * (z - b)) + tb) + b) % MOD for z in range(MOD)
            )
            for label, tm, tb in MONOID
        }
        self.orbit_masks = tuple(
            mask_of(img[z] for img in self.images.values()) for z in range(MOD)
        )

    def closure(self, mask: int) -> int:
        out = 0
        for z in pitches_of(mask):
            out |= self.orbit_masks[z]
        return out

    def is_closed(self, mask: int) -> bool:
        return self.closure(mask) == mask

    def closed_sets(self) -> list[int]:
        """Every nonempty closed mask, ascending."""
        return [s for s in range(1, FULL + 1) if self.is_closed(s)]

    def chi(self, mask: int) -> tuple[str, ...]:
        """Characteristic morphism of a closed mask, as ideal names."""
        return tuple(
            IDEAL_BY_MEMBERS[
                frozenset(l for l, img in self.images.items() if mask >> img[z] & 1)
            ]
            for z in range(MOD)
        )

    def upgrade(self, mask: int, topology: str) -> int:
        table = TOPOLOGIES[topology]
        return mask_of(z for z, v in enumerate(self.chi(mask)) if table[v] == "T")


def maximal_cover(mask: int) -> tuple[tuple[str, ...], bool]:
    """Names of the triads inside the mask, and whether they cover it."""
    inside = [i for i, t in enumerate(TRIAD_MASKS) if t & mask == t]
    union = 0
    for i in inside:
        union |= TRIAD_MASKS[i]
    return tuple(CHORD_NAMES[i] for i in inside), union == mask


def format_pcset(mask: int) -> str:
    return "{" + ",".join(str(z) for z in pitches_of(mask)) + "}"


# ---------------------------------------------------------------------------
# the T/I and PLR groups as image tables on the 24 chords
# ---------------------------------------------------------------------------


def _table(fn) -> tuple[int, ...]:
    return tuple(2 * (r % MOD) + q for r, q in (fn(i // 2, i % 2) for i in range(24)))


def ti_table(name: str) -> tuple[int, ...]:
    """T_n moves roots up n; I_n sends a root-r triad to the other
    quality at root n - r - 7."""
    m, n = TI_MAPS[name]
    if m == 1:
        return _table(lambda r, q: (r + n, q))
    return _table(lambda r, q: (n - r - 7, 1 - q))


def plr_table(name: str) -> tuple[int, ...]:
    """Q_k moves majors up and minors down k; PQ_k is P after Q_k
    (majors go to the minor at r + k); L = PQ4, R = PQ9; the slide Sl
    keeps the third (PQ1)."""
    aliases = {"Id": "Q0", "P": "PQ0", "L": "PQ4", "R": "PQ9", "Sl": "PQ1"}
    name = aliases.get(name, name)
    if name.startswith("PQ"):
        k = int(name[2:])
        return _table(lambda r, q: (r - k, 0) if q else (r + k, 1))
    k = int(name[1:])
    return _table(lambda r, q: (r - k, 1) if q else (r + k, 0))


def plr_label(table: tuple[int, ...]) -> str:
    """Canonical label of a PLR element from the image of C."""
    image = table[0]
    k = image // 2
    if image % 2 == 0:
        return f"Q{k}" if k else "Id"
    return f"PQ{k}" if k else "P"


def label_sort_key(label: str) -> tuple[int, int]:
    """Id, Q1..Q11, P, PQ1..PQ11; and T0..T11, I0..I11."""
    if label in ("Id", "P"):
        return (label == "P", 0)
    if label.startswith("PQ"):
        return (1, int(label[2:]))
    return (label[0] in "PI", int(label[1:]))


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[j] for j in inner)


def close(gens) -> frozenset[tuple[int, ...]]:
    identity = tuple(range(24))
    out = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in out:
                    out.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(out)


def subgroup(gen_names) -> frozenset[tuple[int, ...]]:
    return close([plr_table(n) for n in gen_names])


def restrict(table: tuple[int, ...], points: list[int]) -> tuple[int, ...]:
    pos = {p: i for i, p in enumerate(points)}
    return tuple(pos[table[p]] for p in points)


def cycle_notation(images: tuple[int, ...], names: list[str]) -> str:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(names[i])
            i = images[i]
        if len(cyc) > 1:
            out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


class SubDual:
    """Orbit of s0 under g0 < PLR, its T/I partner h0 and both restrictions."""

    def __init__(self, g0: frozenset[tuple[int, ...]], s0: int):
        self.s0 = s0
        self.points = sorted({p[s0] for p in g0})
        members = set(self.points)
        self.partner = sorted(
            (n for n in TI_NAMES if ti_table(n)[s0] in members), key=label_sort_key
        )
        self.g0 = {plr_label(p): p for p in g0}

    def _group_json(self, tables: dict[str, tuple[int, ...]]) -> list[dict]:
        names = [CHORD_NAMES[p] for p in self.points]
        out = []
        for label in sorted(tables, key=label_sort_key):
            images = restrict(tables[label], self.points)
            out.append(
                {"label": label, "cycles": cycle_notation(images, names), "images": list(images)}
            )
        return out

    def to_json(self) -> dict:
        return {
            "seed": CHORD_NAMES[self.s0],
            "orbit": [CHORD_NAMES[p] for p in self.points],
            "partner": self.partner,
            "g0_restricted": self._group_json(self.g0),
            "h0_restricted": self._group_json({n: ti_table(n) for n in self.partner}),
        }


GROUP_GENERATORS = {"PL": ("P", "L"), "PR": ("P", "R"), "PLR": ("P", "L", "R")}


def dual_json(group: str, seed: str) -> dict:
    return SubDual(subgroup(GROUP_GENERATORS[group]), CHORD_INDEX[seed]).to_json()


def systems_json(group: str) -> list[dict]:
    g0 = subgroup(GROUP_GENERATORS[group])
    out, claimed = [], set()
    for s0 in range(24):
        if s0 not in claimed:
            system = SubDual(g0, s0)
            claimed.update(system.points)
            out.append(system.to_json())
    return out


# ---------------------------------------------------------------------------
# fixed tables of the CLI: monoid, omega, topologies, enumerate, audit
# ---------------------------------------------------------------------------


def _monoid_label(m: int, b: int) -> str:
    return next(l for l, mm, bb in MONOID if (mm, bb) == (m % MOD, b % MOD))


def _compose_labels(outer: str, inner: str) -> str:
    _, om, ob = MONOID[MONOID_LABELS.index(outer)]
    _, im, ib = MONOID[MONOID_LABELS.index(inner)]
    return _monoid_label(om * im, om * ib + ob)


def monoid_json() -> dict:
    return {
        "elements": [{"label": l, "m": m, "b": b} for l, m, b in MONOID],
        "composition_table": [
            [_compose_labels(o, i) for i in MONOID_LABELS] for o in MONOID_LABELS
        ],
    }


def omega_json() -> dict:
    def act(m: str, members: frozenset[str]) -> str:
        return IDEAL_BY_MEMBERS[
            frozenset(n for n in MONOID_LABELS if _compose_labels(n, m) in members)
        ]

    return {
        "ideals": [{"name": n, "members": sorted(ms)} for n, ms in IDEALS],
        "action": {m: {n: act(m, ms) for n, ms in IDEALS} for m in MONOID_LABELS},
    }


def topologies_json() -> list[dict]:
    return [{"name": name, "table": table} for name, table in TOPOLOGIES.items()]


def chi_json(mask: int, phi: str | None) -> dict:
    return {"set": pitches_of(mask), "conjugate": phi, "table": list(Action(phi).chi(mask))}


def upgrade_json(mask: int, flag: str, phi: str | None) -> dict:
    j = TOPOLOGY_FLAGS[flag]
    return {
        "set": pitches_of(mask),
        "topology": j,
        "conjugate": phi,
        "upgrade": pitches_of(Action(phi).upgrade(mask, j)),
    }


# Fiore-Noll's table of closed covered sets with a simply transitive
# PLR-subgroup on the maximal cover: (carrier, name, cover, subgroup, generators).
ENUMERATION = (
    ("0,4,7", "Major Chord", "C", "{Id}", ()),
    ("0,3,4,7", "Major-Minor Mixture", "C,c", "{Id,P}", ("P",)),
    ("0,3,4,7,8,11", "Hexatonic", "C,c,E,e,Ab,ab", "<P,L>", ("P", "L")),
    ("0,1,3,4,6,7,9,10", "Octatonic", "C,c,Eb,eb,Gb,gb,A,a", "<P,R>", ("P", "R")),
    ("0,1,4,6,7,10", "Major Triad Tritone Mixture", "C,Gb", "{Id,Q6}", ("Q6",)),
    (
        "0,1,2,4,6,7,8,10",
        "Prometheus Tritone Mixture",
        "C,db,Gb,g",
        "{Id,Q6,Sl,Q6Sl}",
        ("Q6", "Sl"),
    ),
    ("0,1,2,3,4,5,6,7,8,9,10,11", "Chromatic Scale", ",".join(CHORD_NAMES), "PLR-group", ("P", "L", "R")),
)


def enumerate_json() -> list[dict]:
    return [
        {
            "carrier": [int(z) for z in carrier.split(",")],
            "name": name,
            "cover": cover.split(","),
            "subgroup": sub,
            "subgroup_elements": sorted(
                (plr_label(p) for p in subgroup(gens)), key=label_sort_key
            ),
        }
        for carrier, name, cover, sub, gens in ENUMERATION
    ]


# Case 1 of the completeness argument: <P, Q_i> for i in (0,1,2,3,4,6),
# with the pitch union of the C-orbit, its closedness and whether the
# subgroup is simply transitive on the union's maximal cover.
AUDIT_CASE1 = (
    (0, "0,3,4,7", True, True),
    (1, "0,1,2,3,4,5,6,7,8,9,10,11", True, True),
    (2, "0,1,2,3,4,5,6,7,8,9,10,11", True, False),
    (3, "0,1,3,4,6,7,9,10", True, True),
    (4, "0,3,4,7,8,11", True, True),
    (6, "0,1,3,4,6,7,9,10", True, False),
)
AUDIT_CASE2 = {
    "excluded_pitches": {"3": ["C", "c"], "5": ["Db", "db"], "9": ["Gb", "gb"]},
    "h_candidates": [["T0", "T6"], ["T0", "T6", "I2", "I8"]],
}


def audit_json() -> dict:
    case1 = []
    for i, union, closed, simply in AUDIT_CASE1:
        g = subgroup(("P",) if i == 0 else ("P", f"Q{i}"))
        case1.append(
            {
                "subgroup": f"<P,Q{i}>" if i else "<P>",
                "elements": sorted((plr_label(p) for p in g), key=label_sort_key),
                "c_orbit": [CHORD_NAMES[c] for c in sorted({p[0] for p in g})],
                "pitch_union": [int(z) for z in union.split(",")],
                "closed": closed,
                "simply_transitive_on_max_cover": simply,
            }
        )
    return {"case1": case1, "case2": AUDIT_CASE2}
