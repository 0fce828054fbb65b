"""Command-line front end: every table the library computes, as stable
text or JSON on stdout."""

from __future__ import annotations

import argparse
import json
import sys

from . import duality, enumeration, monoid, permgroup, topos, zmod
from .duality import in_label_order, plr_group, sub_dual, ti_group
from .monoid import conjugated_action, natural_action, triadic_monoid
from .permgroup import SearchBoundExceeded
from .zmod import chord, format_pcset, parse_pcset, parse_ti

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_USAGE = 2

TOPOLOGY_FLAGS = {
    "T": "j_T",
    "P": "j_P",
    "L": "j_L",
    "R": "j_R",
    "chromatic1": "j_C",
    "chromatic2": "j_F",
}


def _sorted_labels(group: permgroup.PermGroup) -> list[str]:
    return [p.label for p in in_label_order(group)]


def _group_lines(group: permgroup.PermGroup) -> list[str]:
    width = max(len(p.label) for p in group.elements)
    return [
        f"  {p.label.ljust(width)}  {p.cycle_notation()}" for p in in_label_order(group)
    ]


def _group_json(group: permgroup.PermGroup) -> list[dict]:
    return [
        {"label": p.label, "cycles": p.cycle_notation(), "images": list(p.images)}
        for p in in_label_order(group)
    ]


def _emit(args, text_fn, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=False))
    else:
        print(text_fn())


def _action_from_args(args):
    phi_name = getattr(args, "conjugate", None)
    if phi_name is None:
        return natural_action()
    return conjugated_action(parse_ti(phi_name))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_monoid(args) -> int:
    m = triadic_monoid()
    payload = {
        "elements": [
            {"label": l, "m": a.m, "b": a.b} for l, a in zip(m.labels, m.maps)
        ],
        "composition_table": [list(row) for row in m.composition_table()],
    }

    def text():
        lines = ["Triadic monoid elements (z -> m*z + b):"]
        for l, a in zip(m.labels, m.maps):
            lines.append(f"  {l.ljust(2)}  m={a.m:<2} b={a.b}")
        lines.append("")
        lines.append("Composition table (row∘column, column applied first):")
        lines.append(monoid.render_composition_table(m))
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_omega(args) -> int:
    ideals = topos.left_ideals()
    m = triadic_monoid()
    act = topos.omega_action_table()
    payload = {
        "ideals": [{"name": o.name, "members": sorted(o.members)} for o in ideals],
        "action": {
            ml: {o.name: act[(ml, o.name)] for o in ideals} for ml in m.labels
        },
    }

    def text():
        lines = ["Left ideals of the triadic monoid:"]
        for o in ideals:
            members = ",".join(sorted(o.members)) if o.members else "-"
            lines.append(f"  {o.name}  {{{members}}}")
        lines.append("")
        lines.append("Classifier action m.B = {n : n∘m in B}:")
        head = "  m  | " + " ".join(o.name.ljust(2) for o in ideals)
        lines.append(head)
        lines.append("  " + "-" * (len(head) - 2))
        for ml in m.labels:
            row = " ".join(act[(ml, o.name)].ljust(2) for o in ideals)
            lines.append(f"  {ml.ljust(2)} | {row}")
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_topologies(args) -> int:
    ideals = topos.left_ideals()
    js = topos.lt_topologies()
    payload = [{"name": j.name, "table": j.mapping()} for j in js]

    def text():
        lines = []
        for j in js:
            mapping = j.mapping()
            lines.append(f"{j.name}:")
            lines.append("  " + "  ".join(f"{o.name}->{mapping[o.name]}" for o in ideals))
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_chi(args) -> int:
    s = parse_pcset(args.set)
    act = _action_from_args(args)
    chi = topos.characteristic_morphism(s, act)
    payload = {
        "set": sorted(s),
        "conjugate": getattr(args, "conjugate", None),
        "table": list(chi.table),
    }

    def text():
        head = "t      | " + " ".join(f"{z:<2}" for z in range(12))
        row = "chi(t) | " + " ".join(v.ljust(2) for v in chi.table)
        return head + "\n" + row

    _emit(args, text, payload)
    return EXIT_OK


def cmd_upgrade(args) -> int:
    s = parse_pcset(args.set)
    act = _action_from_args(args)
    j = topos.topology_by_name(TOPOLOGY_FLAGS[args.topology])
    result = topos.upgrade(s, act, j)
    payload = {
        "set": sorted(s),
        "topology": j.name,
        "conjugate": getattr(args, "conjugate", None),
        "upgrade": sorted(result),
    }
    _emit(args, lambda: format_pcset(result), payload)
    return EXIT_OK


def _system_json(sys_: duality.SubDualSystem) -> dict:
    return {
        "seed": str(sys_.s0),
        "orbit": [str(c) for c in sys_.points],
        "partner": _sorted_labels(sys_.h0),
        "g0_restricted": _group_json(sys_.g0_restricted),
        "h0_restricted": _group_json(sys_.h0_restricted),
    }


def cmd_dual(args) -> int:
    g0 = duality.plr_subgroup_named(args.group)
    seed = chord(args.seed)
    system = sub_dual(plr_group(), ti_group(), g0, seed)
    payload = _system_json(system)

    def text():
        lines = [
            f"Orbit of {system.s0} under the {args.group}-group:",
            "  {" + ",".join(str(c) for c in system.points) + "}",
            "Partner subgroup of the T/I-group:",
            "  {" + ",".join(_sorted_labels(system.h0)) + "}",
            "G0|S0:",
            *_group_lines(system.g0_restricted),
            "H0|S0:",
            *_group_lines(system.h0_restricted),
        ]
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_systems(args) -> int:
    g0 = duality.plr_subgroup_named(args.group)
    systems = duality.all_orbits(plr_group(), ti_group(), g0)
    payload = [_system_json(s) for s in systems]

    def text():
        lines = []
        for i, s in enumerate(systems, 1):
            lines.append(
                f"System {i}: orbit {{{','.join(str(c) for c in s.points)}}}"
                f"  partner {{{','.join(_sorted_labels(s.h0))}}}"
            )
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def _rows_json(rows) -> list[dict]:
    return [
        {
            "carrier": sorted(r.carrier),
            "name": r.type_label,
            "cover": [str(c) for c in r.cover],
            "subgroup": r.subgroup_name,
            "subgroup_elements": _sorted_labels(r.subgroup),
        }
        for r in rows
    ]


def cmd_enumerate(args) -> int:
    rows = enumeration.enumerate_rows()
    payload = _rows_json(rows)

    def text():
        cells = [
            (
                format_pcset(r.carrier),
                r.type_label,
                ",".join(str(c) for c in r.cover),
                r.subgroup_name,
            )
            for r in rows
        ]
        headers = ("Carrier Set", "Type", "Maximal Cover", "PLR-Subgroup")
        widths = [
            max(len(row[i]) for row in cells + [headers]) for i in range(4)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_audit(args) -> int:
    audit = enumeration.case_audit()
    payload = {
        "case1": [
            {
                "subgroup": l.name,
                "elements": _sorted_labels(l.subgroup),
                "c_orbit": [str(c) for c in l.c_orbit],
                "pitch_union": sorted(l.pitch_union),
                "closed": l.closed,
                "simply_transitive_on_max_cover": l.simply_transitive_on_max_cover,
            }
            for l in audit.case1
        ],
        "case2": {
            "excluded_pitches": {
                str(p): list(pair) for p, pair in audit.case2.excluded_pitches.items()
            },
            "h_candidates": [list(c) for c in audit.case2.h_candidates],
        },
    }

    def text():
        lines = ["Case 1 (subgroups containing P):"]
        for l in audit.case1:
            lines.append(
                f"  {l.name.ljust(7)} orbit {{{','.join(str(c) for c in l.c_orbit)}}}"
            )
            lines.append(
                f"          pitch union {format_pcset(l.pitch_union)}"
                f"  closed={str(l.closed).lower()}"
                f"  simply_transitive={str(l.simply_transitive_on_max_cover).lower()}"
            )
        lines.append("Case 2 (P-free subgroups):")
        for pitch, (major, minor) in audit.case2.excluded_pitches.items():
            lines.append(
                f"  pitch {pitch} excluded: forces parallel pair {major}/{minor}"
            )
        for cand in audit.case2.h_candidates:
            lines.append("  H candidate: {" + ",".join(cand) + "}")
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Re-prove the invariants of enumeration rows from their JSON form."""
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    else:
        rows = json.load(sys.stdin)
    act = natural_action()
    failures = []
    for i, row in enumerate(rows):
        tag = f"row {i} ({row.get('name')})"
        stated = row["carrier"]
        in_range = isinstance(stated, list) and all(
            type(z) is int and 0 <= z < zmod.MOD for z in stated
        )
        if not (in_range and stated == sorted(set(stated))):
            failures.append(f"{tag}: carrier {stated} is not sorted distinct pitch classes")
            continue
        carrier = frozenset(stated)
        name = enumeration.CARRIER_NAMES.get(carrier)
        if row.get("name") != name:
            failures.append(f"{tag}: stated name is not {name!r}")
        if not monoid.is_closed(carrier, act):
            failures.append(f"{tag}: carrier not closed under the monoid")
        cover, covered = zmod.maximal_cover(carrier)
        if not covered:
            failures.append(f"{tag}: carrier not covered by its triads")
        if sorted(str(c) for c in cover) != sorted(row["cover"]):
            failures.append(f"{tag}: stated cover is not the maximal cover")
        try:
            elems = frozenset(duality.plr_by_label()[l] for l in row["subgroup_elements"])
        except KeyError as exc:
            failures.append(f"{tag}: unknown PLR element {exc}")
            continue
        sub = permgroup.PermGroup(duality.CHORD_CARRIER, elems)
        if not sub.is_group():
            failures.append(f"{tag}: stated elements do not form a group")
        elif not permgroup.is_simply_transitive(sub, cover):
            failures.append(f"{tag}: subgroup not simply transitive on the cover")
        named = duality.subgroup_name(sub)
        if row.get("subgroup") != named:
            failures.append(f"{tag}: stated subgroup name is not {named!r}")
    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return EXIT_REFUSED
    print(f"OK: {len(rows)} rows verified")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadtopos",
        description="Dual groups, the triadic monoid, and its topos machinery on Z_12.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    add("monoid", cmd_monoid, "the 8-element triadic monoid and its table")
    add("omega", cmd_omega, "left ideals and the classifier action")
    add("topologies", cmd_topologies, "the six Lawvere-Tierney topologies")

    p = add("chi", cmd_chi, "characteristic morphism of a closed pitch set")
    p.add_argument("--set", required=True, help="pitch set, e.g. 0,4,7")
    p.add_argument("--conjugate", help="conjugate the action by a T/I element, e.g. T5")

    p = add("upgrade", cmd_upgrade, "topology upgrade of a closed pitch set")
    p.add_argument("--set", required=True)
    p.add_argument("--topology", required=True, choices=sorted(TOPOLOGY_FLAGS))
    p.add_argument("--conjugate")

    p = add("dual", cmd_dual, "sub-dual system of a PLR subgroup at a seed chord")
    p.add_argument("--group", required=True, choices=("PL", "PR", "PLR"))
    p.add_argument("--seed", required=True, help="chord name, e.g. Eb or eb")

    p = add("systems", cmd_systems, "all orbit systems of a PLR subgroup")
    p.add_argument("--group", required=True, choices=("PL", "PR"))

    add("enumerate", cmd_enumerate, "closed covered sets with simply transitive covers")
    add("audit", cmd_audit, "machine replay of the enumeration case analysis")

    p = add("verify", cmd_verify, "re-prove invariants of enumerate JSON rows")
    p.add_argument("--input", help="JSON file (default: stdin)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SearchBoundExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
