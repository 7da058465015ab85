"""Start ``repro-scan serve`` for the benchmark, traced or not.

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- <serve flags>

With ``--trace-out`` the layer entry points are wrapped (see
:mod:`layers`) before the server starts, ``SIGUSR1`` clears what was
recorded so far (the client sends it when its timed phase begins), and the
spans and counters are written to FILE once the server has shut down.
Without it the launcher only runs the CLI, so both kinds of run start the
server the same way.
"""

from __future__ import annotations

import signal
import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    recorder = None
    if trace_out is not None:
        import layers

        recorder = layers.instrument()
        recorder.active = True
        signal.signal(signal.SIGUSR1, lambda _sig, _frame: recorder.reset())
    from repro.cli import main as repro_scan

    status = repro_scan(["serve", *argv])
    if recorder is not None:
        import spans

        recorder.active = False
        spans.write_json(trace_out, recorder.dump())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
