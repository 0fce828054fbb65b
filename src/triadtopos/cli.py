"""Command-line front end: every table the library computes, as stable
text or JSON on stdout.  Each table has a builder, the only code that calls
the library, and a renderer that reads only its JSON payload and argv.
Library modules are imported where they are used, so a subcommand loads
only the modules it needs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


def _sorted_labels(group) -> list[str]:
    from .duality import in_label_order
    return [p.label for p in in_label_order(group)]


def _group_json(group) -> list[dict]:
    from .duality import in_label_order
    return [
        {"label": p.label, "cycles": p.cycle_notation(), "images": list(p.images)}
        for p in in_label_order(group)
    ]


def _group_lines(elements: list[dict]) -> list[str]:
    width = max(len(e["label"]) for e in elements)
    return [f"  {e['label'].ljust(width)}  {e['cycles']}" for e in elements]


def _braced(items: list[str]) -> str:
    return "{" + ",".join(items) + "}"


def _action_from_args(args):
    from .monoid import conjugated_action, natural_action
    from .zmod import parse_ti
    if args.conjugate is None:
        return natural_action()
    return conjugated_action(parse_ti(args.conjugate))


def monoid_payload(args) -> dict:
    from .monoid import triadic_monoid
    m = triadic_monoid()
    return {
        "elements": [{"label": l, "m": a.m, "b": a.b} for l, a in zip(m.labels, m.maps)],
        "composition_table": [list(row) for row in m.composition_table()],
    }


def monoid_text(payload, args) -> str:
    from .monoid import render_composition_table
    lines = ["Triadic monoid elements (z -> m*z + b):"]
    for e in payload["elements"]:
        lines.append(f"  {e['label'].ljust(2)}  m={e['m']:<2} b={e['b']}")
    lines += ["", "Composition table (row∘column, column applied first):"]
    labels = [e["label"] for e in payload["elements"]]
    lines.append(render_composition_table(labels, payload["composition_table"]))
    return "\n".join(lines)


def omega_payload(args) -> dict:
    from . import topos
    from .monoid import triadic_monoid
    ideals = topos.left_ideals()
    m = triadic_monoid()
    act = topos.omega_action_table()
    return {
        "ideals": [{"name": o.name, "members": sorted(o.members)} for o in ideals],
        "action": {
            ml: {o.name: ideals[k].name for o, k in zip(ideals, row)}
            for ml, row in zip(m.labels, act)
        },
    }


def omega_text(payload, args) -> str:
    lines = ["Left ideals of the triadic monoid:"]
    for o in payload["ideals"]:
        lines.append(f"  {o['name']}  {{{','.join(o['members']) or '-'}}}")
    head = "  m  | " + " ".join(o["name"].ljust(2) for o in payload["ideals"])
    lines += ["", "Classifier action m.B = {n : n∘m in B}:"]
    lines += [head, "  " + "-" * (len(head) - 2)]
    for ml, row in payload["action"].items():
        lines.append(f"  {ml.ljust(2)} | " + " ".join(v.ljust(2) for v in row.values()))
    return "\n".join(lines)


def topologies_payload(args) -> list:
    from . import topos
    return [{"name": j.name, "table": j.mapping()} for j in topos.lt_topologies()]


def topologies_text(payload, args) -> str:
    lines = []
    for j in payload:
        lines.append(f"{j['name']}:")
        lines.append("  " + "  ".join(f"{o}->{v}" for o, v in j["table"].items()))
    return "\n".join(lines)


def chi_payload(args) -> dict:
    from . import topos
    from .zmod import parse_pcset
    s = parse_pcset(args.set)
    chi = topos.characteristic_morphism(s, _action_from_args(args))
    return {"set": sorted(s), "conjugate": args.conjugate, "table": list(chi.table)}


def chi_text(payload, args) -> str:
    table = payload["table"]
    head = "t      | " + " ".join(f"{z:<2}" for z in range(len(table)))
    return head + "\nchi(t) | " + " ".join(v.ljust(2) for v in table)


def upgrade_payload(args) -> dict:
    from . import topos
    from .zmod import parse_pcset
    s = parse_pcset(args.set)
    j = topos.topology_by_name(TOPOLOGY_FLAGS[args.topology])
    return {"set": sorted(s), "topology": j.name, "conjugate": args.conjugate,
            "upgrade": sorted(topos.upgrade(s, _action_from_args(args), j))}


def upgrade_text(payload, args) -> str:
    from .zmod import format_pcset
    return format_pcset(payload["upgrade"])


def _system_json(sys_) -> dict:
    return {
        "seed": str(sys_.s0),
        "orbit": [str(c) for c in sys_.points],
        "partner": _sorted_labels(sys_.h0),
        "g0_restricted": _group_json(sys_.g0_restricted),
        "h0_restricted": _group_json(sys_.h0_restricted),
    }


def dual_payload(args) -> dict:
    from . import duality
    from .zmod import chord
    g0 = duality.plr_subgroup(*args.group)
    return _system_json(
        duality.sub_dual(duality.plr_group(), duality.ti_group(), g0, chord(args.seed))
    )


def dual_text(payload, args) -> str:
    lines = [
        f"Orbit of {payload['seed']} under the {args.group}-group:",
        "  " + _braced(payload["orbit"]),
        "Partner subgroup of the T/I-group:",
        "  " + _braced(payload["partner"]),
    ]
    lines += ["G0|S0:", *_group_lines(payload["g0_restricted"])]
    lines += ["H0|S0:", *_group_lines(payload["h0_restricted"])]
    return "\n".join(lines)


def systems_payload(args) -> list:
    from . import duality
    g0 = duality.plr_subgroup(*args.group)
    systems = duality.all_orbits(duality.plr_group(), duality.ti_group(), g0)
    return [_system_json(s) for s in systems]


def systems_text(payload, args) -> str:
    return "\n".join(
        f"System {i}: orbit {_braced(s['orbit'])}  partner {_braced(s['partner'])}"
        for i, s in enumerate(payload, 1)
    )


def enumerate_payload(args) -> list:
    from . import enumeration
    return [
        {
            "carrier": sorted(r.carrier),
            "name": r.type_label,
            "cover": [str(c) for c in r.cover],
            "subgroup": r.subgroup_name,
            "subgroup_elements": _sorted_labels(r.subgroup),
        }
        for r in enumeration.enumerate_rows()
    ]


def enumerate_text(payload, args) -> str:
    from .zmod import format_pcset
    cells = [("Carrier Set", "Type", "Maximal Cover", "PLR-Subgroup")]
    for r in payload:
        cover = ",".join(r["cover"])
        cells.append((format_pcset(r["carrier"]), r["name"], cover, r["subgroup"]))
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = [" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def audit_payload(args) -> dict:
    from . import enumeration
    audit = enumeration.case_audit()
    return {
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


def audit_text(payload, args) -> str:
    from .zmod import format_pcset
    lines = ["Case 1 (subgroups containing P):"]
    for l in payload["case1"]:
        lines.append(f"  {l['subgroup'].ljust(7)} orbit {_braced(l['c_orbit'])}")
        lines.append(
            f"          pitch union {format_pcset(l['pitch_union'])}"
            f"  closed={str(l['closed']).lower()}"
            f"  simply_transitive={str(l['simply_transitive_on_max_cover']).lower()}"
        )
    lines.append("Case 2 (P-free subgroups):")
    case2 = payload["case2"]
    for pitch, (major, minor) in case2["excluded_pitches"].items():
        lines.append(f"  pitch {pitch} excluded: forces parallel pair {major}/{minor}")
    lines += ["  H candidate: " + _braced(cand) for cand in case2["h_candidates"]]
    return "\n".join(lines)


#: The JSON type of each field of an enumerate row; [t] is a list of t.
ROW_FIELDS = {"carrier": [int], "name": str, "cover": [str], "subgroup": str,
              "subgroup_elements": [str]}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(type(v) is kind[0] for v in value)
    return type(value) is kind


def cmd_verify(args) -> int:
    """Re-prove the invariants of enumeration rows from their JSON form."""
    from . import duality, enumeration, monoid, permgroup, zmod
    source = args.input or "<stdin>"
    try:
        path = Path(args.input) if args.input else None
        rows = json.loads(path.read_text(encoding="utf-8") if path else sys.stdin.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON rows from {source}: {exc}") from None
    if not isinstance(rows, list):
        raise ValueError(f"{source} is not a JSON list of rows")
    act = monoid.natural_action()
    failures = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            failures.append(f"row {i} (None): not a JSON object")
            continue
        tag = f"row {i} ({row.get('name')})"
        wrong = [f for f, kind in ROW_FIELDS.items() if not _has_type(row.get(f), kind)]
        if wrong:
            failures.append(f"{tag}: field {wrong[0]!r} is missing or not of its JSON type")
            continue
        stated = row["carrier"]
        if not stated or stated != sorted(set(stated) & set(range(zmod.MOD))):
            failures.append(f"{tag}: carrier {stated} is not nonempty, sorted,"
                            " distinct pitch classes")
            continue
        carrier = frozenset(stated)
        name = enumeration.CARRIER_NAMES.get(carrier)
        if row["name"] != name:
            failures.append(f"{tag}: stated name is not {name!r}")
        if not monoid.is_closed(carrier, act):
            failures.append(f"{tag}: carrier not closed under the monoid")
        cover, covered = zmod.maximal_cover(carrier)
        if not covered:
            failures.append(f"{tag}: carrier not covered by its triads")
        if row["cover"] != [str(c) for c in cover]:
            failures.append(f"{tag}: stated cover is not the maximal cover in triad order")
        try:
            elems = frozenset(duality.plr_by_label()[l] for l in row["subgroup_elements"])
        except KeyError as exc:
            failures.append(f"{tag}: unknown PLR element {exc}")
            continue
        sub = permgroup.PermGroup(duality.CHORD_CARRIER, elems)
        if row["subgroup_elements"] != _sorted_labels(sub):
            failures.append(f"{tag}: stated subgroup elements are not distinct labels"
                            " in label order")
        if not sub.is_group():
            failures.append(f"{tag}: stated elements do not form a group")
        elif cover and not permgroup.is_simply_transitive(sub, cover):
            failures.append(f"{tag}: subgroup not simply transitive on the cover")
        named = duality.subgroup_name(sub)
        if row["subgroup"] != named:
            failures.append(f"{tag}: stated subgroup name is not {named!r}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return EXIT_REFUSED
    print(f"OK: {len(rows)} rows verified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadtopos",
        description="Dual groups, the triadic monoid, and its topos machinery on Z_12.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def table(name, build, render, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(build=build, render=render)
        return p

    table("monoid", monoid_payload, monoid_text,
          "the 8-element triadic monoid and its table")
    table("omega", omega_payload, omega_text, "left ideals and the classifier action")
    table("topologies", topologies_payload, topologies_text,
          "the six Lawvere-Tierney topologies")

    p = table("chi", chi_payload, chi_text, "characteristic morphism of a closed pitch set")
    p.add_argument("--set", required=True, help="pitch set, e.g. 0,4,7")
    p.add_argument("--conjugate", help="conjugate the action by a T/I element, e.g. T5")

    p = table("upgrade", upgrade_payload, upgrade_text,
              "topology upgrade of a closed pitch set")
    p.add_argument("--set", required=True)
    p.add_argument("--topology", required=True, choices=sorted(TOPOLOGY_FLAGS))
    p.add_argument("--conjugate")

    p = table("dual", dual_payload, dual_text,
              "sub-dual system of a PLR subgroup at a seed chord")
    p.add_argument("--group", required=True, choices=("PL", "PR", "PLR"))
    p.add_argument("--seed", required=True, help="chord name, e.g. Eb or eb")

    p = table("systems", systems_payload, systems_text,
              "all orbit systems of a PLR subgroup")
    p.add_argument("--group", required=True, choices=("PL", "PR"))

    table("enumerate", enumerate_payload, enumerate_text,
          "closed covered sets with simply transitive covers")
    table("audit", audit_payload, audit_text,
          "machine replay of the enumeration case analysis")

    p = sub.add_parser("verify", help="re-prove invariants of enumerate JSON rows")
    p.add_argument("--input", help="JSON file (default: stdin)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that turns exceptions into exit codes."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        payload = args.build(args)
    except RuntimeError as exc:
        from .permgroup import SearchBoundExceeded  # raised only once permgroup is loaded
        if not isinstance(exc, SearchBoundExceeded):
            raise
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(args.render(payload, args))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
