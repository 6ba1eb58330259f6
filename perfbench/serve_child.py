"""The logit service process of the benchmark.

Builds the synthetic world from the seed it is given, trains the large
backend and serves it over loopback with ``cogen.service.serve``. It
prints its address as one JSON line, then answers one JSON line per
command read from standard input:

- ``capture``: start capturing request payloads for the privacy audit;
- ``drain``: return the payloads captured since the last drain, in hex;
- ``reset``: forget the request sizes and backend timings seen so far;
- ``stats``: request sizes and backend call timings since the last reset;
- ``quit`` (or end of input): stop the service and exit.

With ``--trace`` the backend passed to ``serve`` is wrapped in a
``TimedBackend``, so ``stats`` reports the large backend's own time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cogen.service import ServeConfig, serve  # noqa: E402
from cogen.synthetic import build_world, large_backend  # noqa: E402

from tracing import Meter, TimedBackend  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--history-len", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    backend = large_backend(build_world(args.seed, history_len=args.history_len))
    meter = Meter()
    if args.trace:
        backend = TimedBackend(backend, "llm", meter)
    handle = serve(backend, ("127.0.0.1", 0), ServeConfig())
    service = handle.service
    seen = 0
    try:
        print(json.dumps({"address": list(handle.address)}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            reply: dict = {}
            if command == "capture":
                service.config.capture_payloads = True
            elif command == "drain":
                records = service.request_log.records
                reply["payloads"] = [r.payload.hex() for r in records]
                records.clear()
            elif command == "reset":
                seen = len(service.entries)
                meter.calls["llm"].clear()
                meter.requests.clear()
            elif command == "stats":
                entries = service.entries[seen:]
                reply["request_bytes"] = [e.payload_size for e in entries if e.kind != "hello"]
                reply["backend_ns"] = list(meter.calls["llm"])
            else:
                reply["error"] = f"unknown command {command!r}"
            print(json.dumps(reply), flush=True)
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
