"""One cli-cold op.

    python bench/cli_op.py <rss file> [--spans <spans file> <op id>] <cli args...>

Imports triadtopos.cli, runs its `main` on the CLI arguments and exits
with its exit code, as `python -m triadtopos.cli <cli args...>` does.  At
exit it appends this process's peak resident memory in kB to the rss
file.  The peak is read from /proc because getrusage's ru_maxrss also
counts the parent's memory at spawn time.  With --spans, the library's
public functions are spanned (tracer.py) from before the import to the
end of `main`, and the op's spans are appended to the spans file; the
untraced and traced ops of a run take the same path otherwise.
"""

from __future__ import annotations

import atexit
import sys


def peak_rss_kb() -> int:
    """VmHWM of this process, in kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    rss_path, argv = sys.argv[1], sys.argv[2:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, op, argv = argv[1], int(argv[2]), argv[3:]

    def report() -> None:
        with open(rss_path, "a", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kb()}\n")

    atexit.register(report)
    if spans_path is None:
        import triadtopos.cli

        return triadtopos.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.begin_op(op)
    import triadtopos.cli

    tracer.install()
    try:
        return triadtopos.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.end_op()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
