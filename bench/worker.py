"""Warm library process for the pcset-queries and system-queries workloads.

    python bench/worker.py <workload> [<spans file>]

Imports triadtopos, answers one warm-up query, prints "ready", then
answers one JSON request per stdin line ({"op": id, "q": [query, ...]})
with one JSON line ({"r": [answer, ...]}).  An empty line ends it: the
worker then prints {"peak_rss_kb": n} and, with a spans file, appends the
spans of every op there.
"""

from __future__ import annotations

import json
import sys

from cli_op import peak_rss_kb
from oracle import mask_of
from triadtopos import duality, monoid, topos, zmod

TI_MAPS = zmod.ti_group_maps()


def pcset_query(mask: int, phi: int, topology: str) -> list:
    """Cover, closedness and closure of a pitch set under a T/I-conjugated
    action, then chi and one topology upgrade of the closure."""
    s = frozenset(z for z in range(zmod.MOD) if mask >> z & 1)
    act = monoid.conjugated_action(TI_MAPS[phi])
    cover, covered = zmod.maximal_cover(s)
    closed = monoid.is_closed(s, act)
    c = monoid.closure(s, act)
    chi = topos.characteristic_morphism(c, act)
    up = topos.upgrade(c, act, topos.topology_by_name(topology))
    return [[str(t) for t in cover], covered, closed, mask_of(c), list(chi.table), mask_of(up)]


def _system_json(system: duality.SubDualSystem) -> list:
    def tables(group):
        return sorted(p.images for p in group.elements)

    return [
        str(system.s0),
        [str(p) for p in system.points],
        sorted(p.label for p in system.h0.elements),
        tables(system.g0_restricted),
        tables(system.h0_restricted),
    ]


def system_query(gens: list, seed: str, k: str, side: str, pick: int) -> list:
    """A sub-dual system, moved by a T/I element, and the ambient extension
    of one element of the moved system's restriction."""
    g0 = duality.plr_subgroup(*gens)
    system = duality.sub_dual(duality.plr_group(), duality.ti_group(), g0, zmod.chord(seed))
    mover = next(p for p in system.h.elements if p.label == k)
    moved = duality.transform_orbit(system, mover)
    pool = moved.g0_restricted if side == "toG" else moved.h0_restricted
    p = sorted(pool.elements, key=lambda q: q.images)[pick % len(pool)]
    ext = duality.extend_commuting(p, moved, side)
    return [
        sorted(q.images for q in g0.elements),
        _system_json(system),
        _system_json(moved),
        list(p.images),
        list(ext.images),
    ]


QUERIES = {"pcset-queries": pcset_query, "system-queries": system_query}
WARM_UP = {
    "pcset-queries": [0b000010010001, 0, "j_T"],
    "system-queries": [["P", "L"], "Eb", "T1", "toG", 0],
}


def main() -> int:
    workload = sys.argv[1]
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    query = QUERIES[workload]
    query(*WARM_UP[workload])
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout.buffer
    out.write(b"ready\n")
    out.flush()
    for line in sys.stdin.buffer:
        if not line.strip():
            break
        request = json.loads(line)
        if tracer:
            tracer.begin_op(request["op"])
        try:
            reply = {"r": [query(*q) for q in request["q"]]}
        except Exception as exc:  # reported to run.py as a failed op
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        if tracer:
            tracer.end_op()
        out.write(json.dumps(reply, separators=(",", ":")).encode() + b"\n")
        out.flush()
    out.write(json.dumps({"peak_rss_kb": peak_rss_kb()}).encode() + b"\n")
    out.flush()
    if tracer:
        tracer.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
