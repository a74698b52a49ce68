"""Start one `altperms` command the way the installed console script does.

Usage: python3 benchmarks/child.py <trace 0|1> <altperms arguments...>

After the command's own stderr come marked lines for the parent: the peak
resident memory of this process, and, with trace 1, the spans recorded by the
layer wrappers, which are installed before the command runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Prefix of the stderr line that carries VmHWM, in KiB.  It is read from
#: /proc because ru_maxrss of a process started by fork or vfork also counts
#: the parent's pages from before the exec.
PEAK_MARK = b"\x1ebench-peak-kib "


def _peak_kib() -> int:
    with open("/proc/self/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    traced = sys.argv[1] == "1"
    if traced:
        import json

        import tracing
        from altperms import cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracing.span_wrapper(tracer, cli.run, "cli", "cli.run")
        tracer.active = True
    else:
        from altperms.cli import run
    try:
        return run(sys.argv[2:])
    finally:
        sys.stderr.flush()
        err = sys.stderr.buffer
        err.write(PEAK_MARK + str(_peak_kib()).encode() + b"\n")
        if traced:
            tracer.active = False
            err.write(tracing.SPANS_MARK + json.dumps(tracer.export()).encode() + b"\n")


if __name__ == "__main__":
    sys.exit(main())
