"""The benchmark's own checks: its oracle agrees with the library over the
complete finite domains, its answer checks reject wrong answers, and the
tracer's span tree is consistent.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from triadtopos import cli, duality, monoid, topos, zmod  # noqa: E402


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def test_cover_matches_library_on_all_sets():
    for mask in range(1 << zmod.MOD):
        cover, covered = zmod.maximal_cover(frozenset(oracle.pitches_of(mask)))
        assert oracle.maximal_cover(mask) == (tuple(str(c) for c in cover), covered)


@pytest.mark.parametrize("phi", oracle.TI_NAMES)
def test_action_matches_library_on_all_sets(phi):
    """is_closed and closure on all 4096 sets, then chi and all six
    upgrades on every closed set, under one conjugation."""
    act = monoid.conjugated_action(zmod.parse_ti(phi))
    ours = oracle.Action(phi)
    closed = set()
    for mask in range(1 << zmod.MOD):
        s = frozenset(oracle.pitches_of(mask))
        assert ours.is_closed(mask) == monoid.is_closed(s, act)
        assert ours.closure(mask) == oracle.mask_of(monoid.closure(s, act))
        closed.add(ours.closure(mask))
    for mask in closed:
        s = frozenset(oracle.pitches_of(mask))
        assert ours.chi(mask) == topos.characteristic_morphism(s, act).table
        for j in topos.lt_topologies():
            assert ours.upgrade(mask, j.name) == oracle.mask_of(topos.upgrade(s, act, j))


def test_group_tables_match_library():
    for name in run.PLR_GENERATORS:
        assert oracle.plr_table(name) == duality.plr_named(name).images
    for p in duality.plr_group().elements:
        assert oracle.plr_label(p.images) == p.label
    for p in duality.ti_group().elements:
        assert oracle.ti_table(p.label) == p.images


def test_fixed_tables_match_cli():
    assert cli_json("monoid") == oracle.monoid_json()
    assert cli_json("omega") == oracle.omega_json()
    assert cli_json("topologies") == oracle.topologies_json()
    assert cli_json("enumerate") == oracle.enumerate_json()
    assert cli_json("audit") == oracle.audit_json()


@pytest.mark.parametrize("group", ["PL", "PR", "PLR"])
def test_sub_dual_systems_match_cli(group):
    for seed in oracle.CHORD_NAMES:
        assert cli_json("dual", "--group", group, "--seed", seed) == oracle.dual_json(group, seed)
    if group != "PLR":
        assert cli_json("systems", "--group", group) == oracle.systems_json(group)


def test_every_mutation_is_refused(monkeypatch):
    for i in range(len(oracle.ENUMERATION)):
        for kind in run.MUTATIONS:
            for first in (True, False):
                rows = oracle.enumerate_json()

                class Pick:
                    """Stands in for the seeded rng: row i, this mutation,
                    first or last position."""

                    def choice(self, seq):
                        return rows[i] if seq is rows else kind

                    def randrange(self, n):
                        return 0 if first else n - 1

                run.mutate(rows, Pick())
                monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(["verify"]) == 1, (i, kind, first)


def test_answer_checks_reject_wrong_answers():
    pcset = run.PcsetQueries(seed=1)
    query = [0b000010010001, 5, "j_L"]
    answer = json.loads(json.dumps(_worker_answer("pcset_query", query)))
    assert pcset.check(query, answer) is None
    answer[3] ^= 1 << 11
    assert pcset.check(query, answer) is not None

    system = run.SystemQueries(seed=1)
    query = [["P", "L"], "Eb", "T1", "toG", 3]
    answer = json.loads(json.dumps(_worker_answer("system_query", query)))
    assert system.check(query, answer) is None
    answer[2][2] = answer[1][2]  # partner of the unmoved system
    assert system.check(query, answer) is not None


def _worker_answer(fn, query):
    import worker

    return getattr(worker, fn)(*query)


def test_cli_cold_cycle_checks_pass_on_library(monkeypatch):
    """Every op of one cycle, run in-process, passes its check."""
    workload = run.CliCold(seed=3)
    for op in workload.cycle():
        monkeypatch.setattr("sys.stdin", io.StringIO(op.stdin.decode()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        assert op.check(code, out.getvalue().encode(), err.getvalue().encode()) is None, op.argv


def test_cli_op_runs_cli_and_records_peak_rss(tmp_path):
    rss_path = tmp_path / "rss"
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_op.py"), str(rss_path), "monoid"],
            capture_output=True,
            env=run.ENV,
            cwd=ROOT,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == (ROOT / "tests" / "goldens" / "monoid.txt").read_bytes()
    peaks = [int(kb) for kb in rss_path.read_text().split()]
    assert len(peaks) == 2 and all(kb > 1024 for kb in peaks)


def test_traced_enumerate_span_tree(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_op.py"), str(tmp_path / "rss"), "--spans", str(spans_path), "7", "enumerate"],
        capture_output=True,
        env=run.ENV,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout == (ROOT / "tests" / "goldens" / "enumerate.txt").read_bytes()
    spans = list(tracer.read_spans(spans_path))
    ids = {s[1] for s in spans}
    roots = [s for s in spans if s[3] == tracer.ROOT]
    assert len(roots) == 1 and all(s[0] == 7 for s in spans)
    for op, sid, parent, name, start, end, own, _ in spans:
        assert 0 <= own <= end - start
        assert name == tracer.ROOT or parent in ids
    metrics = tracer.summarize(spans, 1, 1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["permgroup.all_subgroups.yield"] == 34 / 577
    assert metrics["enumeration.closed_covered_sets.calls"] == 1
    assert metrics["monoid.is_closed.calls"] >= 4095
    assert 0 < metrics["monoid.is_closed.yield"] < 1
