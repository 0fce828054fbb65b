"""triadtopos benchmark runner (stdlib only).

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
`src/`.  Each workload is a closed loop with one client: this process plus
at most one child process at a time.  Inputs come from --seed.  Every
answer is checked against `oracle.py` or the CLI goldens after the timed
loop.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 if any op failed
and 2 if the checkout has no library.

--trace 0 reports the end-to-end metrics, measured in PARTS parts with
set-up samples before each.  --trace 1 runs half the time
untraced and half with every spanned library function wrapped
(tracer.py), and reports per-layer metrics plus the tracing overhead.
A record of each run, with its environment, and the spans of the latest
traced run of each workload are written to `.bench_out/`.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDENS = ROOT / "tests" / "goldens"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
CHILD_TIMEOUT_S = 60

# A --trace 0 run measures in PARTS parts of equal length and takes
# set-up samples before each, so that set-up time is sampled across the
# run and not only at its start: on a shared host the speed drifts over
# tens of seconds.
PARTS = 3
SETUP_SAMPLES = {"cli-cold": 4, "pcset-queries": 3, "system-queries": 3}  # per part
# Queries per op: enough that an op's cost is unimodal.
BATCH = {"pcset-queries": 100, "system-queries": 2}


def child(cmd, stdin=b""):
    return subprocess.run(
        cmd, input=stdin, capture_output=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per op
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    latencies: list[float]  # seconds per op
    failures: list[str]
    loop_s: float  # wall time of the timed loop
    peak_rss_kb: int | None  # largest peak RSS of the processes that ran the ops


@dataclass
class CliOp:
    argv: list[str]
    check: Callable[[int, bytes, bytes], str | None]  # error message or None
    stdin: bytes = b""


def expect_text(expected: bytes):
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}, stderr {err[:200]!r}"
        if out != expected:
            return f"stdout differs: {out[:200]!r}"
        return None

    return check


def expect_json(expected):
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}, stderr {err[:200]!r}"
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:200]!r}"
        return None if got == expected else f"JSON differs: {out[:200]!r}"

    return check


def expect_exit(expected_code):
    """A refusal (1) or usage error (2): nothing on stdout, a message on stderr."""

    def check(code, out, err):
        if code != expected_code or out or not err:
            return f"expected exit {expected_code}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"
        return None

    return check


GOLDEN_ARGS = {
    "monoid.txt": ["monoid"],
    "omega.txt": ["omega"],
    "topologies.txt": ["topologies"],
    "chi_c.txt": ["chi", "--set", "0,4,7"],
    "dual_pl_eb.txt": ["dual", "--group", "PL", "--seed", "Eb"],
    "systems_pr.txt": ["systems", "--group", "PR"],
    "enumerate.txt": ["enumerate"],
    "audit.txt": ["audit"],
}
FIXED_JSON = {
    "monoid": oracle.monoid_json,
    "omega": oracle.omega_json,
    "topologies": oracle.topologies_json,
    "enumerate": oracle.enumerate_json,
    "audit": oracle.audit_json,
}
MUTATIONS = ("drop-cover", "drop-element", "unknown-element")


def mutate(rows, rng):
    """One row of `rows` made invalid in a way verify must refuse."""
    row = rng.choice(rows)
    kind = rng.choice(MUTATIONS)
    if kind == "drop-cover":
        row["cover"].pop(rng.randrange(len(row["cover"])))
    elif kind == "drop-element":
        row["subgroup_elements"].pop(rng.randrange(len(row["subgroup_elements"])))
    else:
        row["subgroup_elements"][rng.randrange(len(row["subgroup_elements"]))] = "Q12"


class CliCold:
    """Cycles of 21 fresh CLI processes: the nine table subcommands in text
    (golden args, or seeded for upgrade) and json (seeded where the
    subcommand takes args), a third enumerate in a seeded format, one
    verify of the seven enumerate rows (valid and mutated on alternate
    cycles) and one chi of a seeded set that is not closed, a usage error.
    Only whole cycles run, so every run has the same mix.

    enumerate, the slowest subcommand, is 3 of the 21 ops: with 2 of 20 the
    90th percentile fell on the border between enumerate and audit latencies
    and jumped between them from run to run."""

    name = "cli-cold"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.goldens = {f: (GOLDENS / f).read_bytes() for f in GOLDEN_ARGS}
        self.actions = {phi: oracle.Action(phi) for phi in (None, *oracle.TI_NAMES)}
        self.closed = {phi: a.closed_sets() for phi, a in self.actions.items()}
        self.mutated_next = self.rng.random() < 0.5

    def _set_args(self, closed=True):
        """A seeded action and a nonempty set that is (or is not) closed under it."""
        phi = self.rng.choice((None, *oracle.TI_NAMES))
        if closed:
            mask = self.rng.choice(self.closed[phi])
        else:
            mask = 0
            while self.actions[phi].is_closed(mask):
                mask = self.rng.getrandbits(12)
        argv = ["--set", ",".join(map(str, oracle.pitches_of(mask)))]
        return phi, mask, argv + (["--conjugate", phi] if phi else [])

    def cycle(self):
        rng = self.rng
        ops = [CliOp(argv, expect_text(self.goldens[f])) for f, argv in GOLDEN_ARGS.items()]
        ops += [CliOp([c, "--format", "json"], expect_json(fn())) for c, fn in FIXED_JSON.items()]
        ops.append(rng.choice([op for op in ops if op.argv[0] == "enumerate"]))

        phi, mask, argv = self._set_args()
        ops.append(CliOp(["chi", *argv, "--format", "json"], expect_json(oracle.chi_json(mask, phi))))
        ops.append(CliOp(["chi", *self._set_args(closed=False)[2]], expect_exit(2)))
        for fmt in ("text", "json"):
            phi, mask, argv = self._set_args()
            flag = rng.choice(sorted(oracle.TOPOLOGY_FLAGS))
            expected = oracle.upgrade_json(mask, flag, phi)
            check = (
                expect_json(expected)
                if fmt == "json"
                else expect_text(oracle.format_pcset(oracle.mask_of(expected["upgrade"])).encode() + b"\n")
            )
            ops.append(CliOp(["upgrade", *argv, "--topology", flag, "--format", fmt], check))
        group, seed = rng.choice(("PL", "PR", "PLR")), rng.choice(oracle.CHORD_NAMES)
        ops.append(
            CliOp(
                ["dual", "--group", group, "--seed", seed, "--format", "json"],
                expect_json(oracle.dual_json(group, seed)),
            )
        )
        group = rng.choice(("PL", "PR"))
        ops.append(
            CliOp(["systems", "--group", group, "--format", "json"], expect_json(oracle.systems_json(group)))
        )

        rows = oracle.enumerate_json()
        rng.shuffle(rows)
        if self.mutated_next:
            mutate(rows, rng)
            check = expect_exit(1)
        else:
            check = expect_text(f"OK: {len(rows)} rows verified\n".encode())
        self.mutated_next = not self.mutated_next
        ops.append(CliOp(["verify"], check, json.dumps(rows).encode()))
        rng.shuffle(ops)
        return ops

    def setup_samples(self):
        out = []
        for _ in range(SETUP_SAMPLES[self.name]):
            start = time.perf_counter()
            proc = child([PY, "-c", "import triadtopos.cli"])
            out.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"import triadtopos.cli failed: {proc.stderr[-400:]!r}")
        return out

    def run(self, seconds, spans_path=None):
        """Whole cycles for about `seconds`: a cycle starts only if it is
        expected to end less than half a cycle after `seconds`."""
        latencies, done = [], []
        rss_path = OUT / f"{self.name}.rss"
        rss_path.unlink(missing_ok=True)
        start_loop = time.perf_counter()
        cycles = 0
        while True:
            elapsed = time.perf_counter() - start_loop
            if cycles and elapsed + elapsed / cycles / 2 > seconds:
                break
            cycles += 1
            for op in self.cycle():
                cmd = [PY, str(BENCH / "cli_op.py"), str(rss_path)]
                if spans_path:
                    cmd += ["--spans", spans_path, str(len(latencies))]
                cmd += op.argv
                start = time.perf_counter()
                try:
                    proc = child(cmd, op.stdin)
                except subprocess.TimeoutExpired:
                    proc = None
                latencies.append(time.perf_counter() - start)
                done.append((op, proc))
        loop_s = time.perf_counter() - start_loop
        failures = []
        for op, proc in done:
            error = op.check(proc.returncode, proc.stdout, proc.stderr) if proc else "timed out"
            if error:
                failures.append(f"{' '.join(op.argv)}: {error}")
        peak = max(map(int, rss_path.read_text().split())) if rss_path.exists() else None
        return RunResult(latencies, failures, loop_s, peak)


# ---------------------------------------------------------------------------
# warm workloads: one long-lived worker answering batches of queries
# ---------------------------------------------------------------------------


class Worker:
    """bench/worker.py as a child process; `ready_s` is start to ready.
    Every read from the worker waits at most CHILD_TIMEOUT_S; a worker that
    does not answer in time is killed."""

    def __init__(self, workload, spans_path=None):
        cmd = [PY, str(BENCH / "worker.py"), workload] + ([spans_path] if spans_path else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, cwd=ROOT
        )
        line = self._readline()
        self.ready_s = time.perf_counter() - start
        self.peak_rss_kb = None
        if line != b"ready\n":
            self.close()
            raise RuntimeError(f"worker for {workload} did not start: {line!r}")

    def _readline(self) -> bytes:
        """One line of the worker's stdout, or b"" at its end or on timeout.
        The worker writes one line per request, so nothing sits unread in
        the pipe's buffer when select() is asked."""
        if not select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            self.proc.kill()
            self.proc.wait()
            return b""
        return self.proc.stdout.readline()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def call(self, request):
        try:
            self.proc.stdin.write(json.dumps(request, separators=(",", ":")).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"error": "worker exited"}
        line = self._readline()
        return json.loads(line) if line else {"error": f"worker exited or gave no answer in {CHILD_TIMEOUT_S} s"}

    def close(self):
        """End the worker; sets `peak_rss_kb` from its last line."""
        try:
            self.proc.stdin.write(b"\n")
            self.proc.stdin.close()
            self.peak_rss_kb = json.loads(self._readline())["peak_rss_kb"]
        except (BrokenPipeError, ValueError, KeyError):
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class WarmWorkload:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup_samples(self):
        out = []
        for _ in range(SETUP_SAMPLES[self.name]):
            worker = Worker(self.name)
            out.append(worker.ready_s)
            worker.close()
        return out

    def run(self, seconds, spans_path=None):
        """The batches sent within `seconds` to a fresh worker."""
        latencies, done = [], []
        worker = Worker(self.name, spans_path)
        try:
            start_loop = time.perf_counter()
            while time.perf_counter() < start_loop + seconds:
                queries = [self.query() for _ in range(BATCH[self.name])]
                start = time.perf_counter()
                reply = worker.call({"op": len(latencies), "q": queries})
                latencies.append(time.perf_counter() - start)
                done.append((queries, reply))
                if not worker.alive:
                    break
            loop_s = time.perf_counter() - start_loop
        finally:
            worker.close()
        failures = []
        for queries, reply in done:
            answers = reply.get("r", [])
            errors = [reply["error"]] if "error" in reply else []
            if len(answers) != len(queries):
                errors.append(f"{len(answers)} answers to {len(queries)} queries")
            errors += filter(None, map(self.check, queries, answers))
            if errors:
                failures.append("; ".join(errors))
        return RunResult(latencies, failures, loop_s, worker.peak_rss_kb)


class PcsetQueries(WarmWorkload):
    """Batches of random 12-bit sets: cover, is_closed and closure under a
    random T/I-conjugated action, then chi and one random topology upgrade."""

    name = "pcset-queries"

    def __init__(self, seed):
        super().__init__(seed)
        self.actions = [oracle.Action(phi) for phi in oracle.TI_NAMES]

    def query(self):
        rng = self.rng
        return [rng.getrandbits(12), rng.randrange(24), rng.choice(sorted(oracle.TOPOLOGIES))]

    def check(self, query, answer):
        mask, phi, topology = query
        act = self.actions[phi]
        cover, covered = oracle.maximal_cover(mask)
        closure = act.closure(mask)
        expected = [
            list(cover),
            covered,
            closure == mask,
            closure,
            list(act.chi(closure)),
            act.upgrade(closure, topology),
        ]
        return None if answer == expected else f"pcset {query}: got {answer}, expected {expected}"


PLR_GENERATORS = (
    ("P", "L", "R", "Sl", "Id")
    + tuple(f"Q{k}" for k in range(1, 12))
    + tuple(f"PQ{k}" for k in range(1, 12))
)


TI_TABLES = frozenset(oracle.ti_table(n) for n in oracle.TI_NAMES)


def _commute(a, b):
    return oracle.compose(a, b) == oracle.compose(b, a)


class SystemQueries(WarmWorkload):
    """Batches of sub_dual(plr_group(), ti_group(), plr_subgroup(*gens),
    chord(seed)), moved by a T/I element, then the ambient extension of one
    element of a restriction."""

    name = "system-queries"

    def query(self):
        rng = self.rng
        gens = rng.sample(PLR_GENERATORS, rng.choice((1, 2)))
        return [
            gens,
            rng.choice(oracle.CHORD_NAMES),
            rng.choice(oracle.TI_NAMES),
            rng.choice(("toG", "toH")),
            rng.randrange(48),
        ]

    @staticmethod
    def _check_system(g0, s0, answer):
        """Invariants of one sub-dual system against image tables."""
        seed, orbit, partner, g0_restricted, h0_restricted = answer
        points = sorted({p[s0] for p in g0})
        if seed != oracle.CHORD_NAMES[s0]:
            return f"seed {seed} is not {oracle.CHORD_NAMES[s0]}"
        if orbit != [oracle.CHORD_NAMES[p] for p in points]:
            return f"orbit {orbit} is not the g0-orbit of {seed}"
        if len(partner) != len(orbit):
            return f"|h0| = {len(partner)} but |orbit| = {len(orbit)}"
        if any(oracle.ti_table(h)[s0] not in points for h in partner):
            return f"partner {partner} moves {seed} off the orbit"
        g0r = sorted(oracle.restrict(p, points) for p in g0)
        h0r = sorted(oracle.restrict(oracle.ti_table(h), points) for h in partner)
        if [tuple(t) for t in g0_restricted] != g0r or [tuple(t) for t in h0_restricted] != h0r:
            return "restrictions are not the restricted groups"
        if not all(_commute(a, b) for a in g0r for b in h0r):
            return "restrictions do not commute"
        return None

    def check(self, query, answer):
        gens, seed, mover, side, _ = query
        g0_tables, system, moved, p, ext = answer
        g0 = oracle.subgroup(gens)
        if {tuple(t) for t in g0_tables} != g0:
            return f"system {query}: g0 is not <{','.join(gens)}>"
        s0 = oracle.CHORD_INDEX[seed]
        errors = [
            self._check_system(g0, s0, system),
            self._check_system(g0, oracle.ti_table(mover)[s0], moved),
        ]
        points = [oracle.CHORD_INDEX[c] for c in moved[1]]
        if side == "toG":
            pool, in_ambient = moved[3], tuple(ext) == oracle.plr_table(oracle.plr_label(ext))
        else:
            pool, in_ambient = moved[4], tuple(ext) in TI_TABLES
        if p not in pool:
            errors.append("extended element is not in the restriction")
        elif list(oracle.restrict(tuple(ext), points)) != p:
            errors.append("extension does not restrict back to its input")
        elif not in_ambient:
            errors.append(f"extension is not in the ambient group of side {side}")
        errors = [e for e in errors if e]
        return f"system {query}: {'; '.join(errors)}" if errors else None


WORKLOADS = {w.name: w for w in (CliCold, PcsetQueries, SystemQueries)}


# ---------------------------------------------------------------------------
# environment, metrics, output
# ---------------------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, from the loose or the packed ref."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def ops_per_s(result: RunResult) -> float:
    return (len(result.latencies) - len(result.failures)) / result.loop_s


# Printed and recorded, but left out of the result line and BENCHMARK.json:
# on a shared host the share of a run spent in the host's fast phases
# varies, and these two follow it (README.md, "Noise").  op_p90_ms falls
# in the slow phases and stays steady.
UNBOUNDED = ("ops_per_s", "op_p50_ms")


def end_to_end(workload, seconds):
    setup, parts = [], []
    for _ in range(PARTS):
        setup += workload.setup_samples()
        parts.append(workload.run(seconds / PARTS))
    peaks = [part.peak_rss_kb for part in parts]
    result = RunResult(
        latencies=[t for part in parts for t in part.latencies],
        failures=[f for part in parts for f in part.failures],
        loop_s=sum(part.loop_s for part in parts),
        peak_rss_kb=None if None in peaks else max(peaks),
    )
    latencies = result.latencies
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(result), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
    }
    if result.peak_rss_kb is not None:  # None only if the processes that ran the ops died
        metrics["peak_rss_mb"] = (result.peak_rss_kb / 1024, "MB")
    samples = {
        "setup": len(setup),
        "parts": PARTS,
        "ops": len(latencies),
        "queries_per_op": BATCH.get(workload.name, 1),
    }
    return metrics, latencies, result.failures, samples


def per_layer(workload, seconds, spans_path):
    plain = workload.run(seconds / 2)
    spans_path.unlink(missing_ok=True)
    traced = workload.run(seconds / 2, str(spans_path))
    spans = tracer.read_spans(spans_path) if spans_path.exists() else []  # none if the worker died
    raw = tracer.summarize(spans, len(traced.latencies), statistics.fmean(traced.latencies) * 1e3)
    metrics = {}
    for name, value in raw.items():
        unit = "calls/op" if name.endswith(".calls") else "ms/op" if name.endswith("_ms") else "fraction"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ops_per_s"] = (ops_per_s(plain) - ops_per_s(traced), "1/s")
    samples = {"untraced_ops": len(plain.latencies), "traced_ops": len(traced.latencies)}
    return metrics, plain.latencies + traced.latencies, plain.failures + traced.failures, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triadtopos" / "cli.py").is_file() or not GOLDENS.is_dir():
        print(f"error: no triadtopos sources or goldens under {ROOT}", file=sys.stderr)
        return 2
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child([PY, "-c", "import triadtopos.cli"])  # compile bytecode before timing

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_path = OUT / f"{args.workload}.spans.jsonl"  # the latest traced run only
        metrics, latencies, failures, samples = per_layer(workload, args.seconds, spans_path)
    else:
        metrics, latencies, failures, samples = end_to_end(workload, args.seconds)

    attempted = len(latencies)
    record = {
        "workload": args.workload,
        "environment": env,
        "samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in UNBOUNDED},
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in UNBOUNDED},
        "failures": failures[:50],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n")

    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(env)}")
    print(f"# samples {json.dumps(samples)} failed_frac={record['failed_frac']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": record["metrics"],
            },
            ensure_ascii=False,
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
