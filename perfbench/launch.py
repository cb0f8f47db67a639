"""Start an HTTP server or a trial worker for the benchmark.

    python3 perfbench/launch.py server --store PATH [--trace-out PATH]
    python3 perfbench/launch.py worker [--trace-out PATH]

Prints ``READY <port>`` once it accepts connections and serves until
SIGTERM.  With ``--trace-out`` the span wrappers are installed before
``make_server``/``make_worker`` is called, and the spans are written to
that file on the way out.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import prepare_process  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("server", "worker"))
    parser.add_argument("--store", help="label store file (server)")
    parser.add_argument("--trace-out", help="write spans here at exit")
    args = parser.parse_args(argv)
    prepare_process()

    import tracer as tracing

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    spans = None
    if args.trace_out:
        spans = tracing.Tracer().install(tracing.PATCHES)
        spans.install(
            tracing.SERVER_PATCHES if args.role == "server" else tracing.WORKER_PATCHES
        )
    if args.role == "server":
        from repro.app.server import make_server

        handle = make_server(store_path=args.store)
        port = handle.address[1]
    else:
        from repro.cluster.worker import make_worker

        handle = make_worker()
        port = int(handle.address.rsplit(":", 1)[1])
    with handle:
        print(f"READY {port}", flush=True)
        stop.wait()
    if spans is not None:
        spans.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
