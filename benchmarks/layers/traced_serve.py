"""``repro serve`` under the span recorder (the traced run's launcher).

``python traced_serve.py TRACE_FILE <repro serve arguments…>`` imports
``repro``, rebinds the public callables listed in :mod:`tracing`, then
hands control to the unmodified CLI. ``SIGTERM`` stops the server the way
``Ctrl-C`` does (graceful drain) and the spans are written to
``TRACE_FILE`` on the way out.
"""

from __future__ import annotations

import signal
import sys
import time


def main(argv) -> int:
    trace_file, serve_args = argv[0], argv[1:]
    started = time.perf_counter()
    import repro.cli
    import repro.server  # noqa: F401 - so its names are loaded before rebinding
    import repro.tpch  # noqa: F401

    import_s = time.perf_counter() - started

    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        recorder.dump(trace_file, {"process.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
