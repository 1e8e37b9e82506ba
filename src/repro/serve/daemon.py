"""The serve daemon's HTTP layer.

:class:`ServeHandler` extends the metrics exposition handler with
``POST /compile`` (and a small ``GET /`` API description), so one
hardened :class:`~repro.obs.exposition.HardenedHTTPServer` serves the
compile API and ``/metrics`` + ``/healthz`` + ``/state`` together —
the scrape config that works for campaigns works for the daemon.

Responses are JSON with **sorted keys** — the body is exactly
``json.dumps(envelope, sort_keys=True) + "\\n"``, so clients (and the
golden tests) can byte-compare artifacts::

    {"artifact": {...}, "cached": false, "elapsed_seconds": 0.41,
     "fingerprint": "7de0a211319dfa71", "source": "computed"}

Error statuses: 400 (malformed request), 404 (unknown path or
benchmark), 413 (table too large), 429 (+ ``Retry-After``, rate
limited), 500 (compile failed), 503 (shutting down), 504 (timed out).
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from typing import Any, Dict, Optional, Tuple

from .. import obs
from ..obs import exposition
from ..obs.exposition import MetricsHub, MetricsServer
from .ratelimit import TokenBucket
from .schema import RequestError, parse_compile_request
from .service import CompileService, ServeConfig, ServiceError

__all__ = ["ServeDaemon", "ServeHandler"]

#: largest accepted request body (a 16-bit table of 64k words is ~400 KiB)
MAX_BODY_BYTES = 4 << 20

_API_DOC = {
    "service": "repro serve",
    "endpoints": {
        "POST /compile": "compile a truth table / workload / spec",
        "GET /metrics": "Prometheus text exposition",
        "GET /healthz": "health document",
        "GET /state": "full metrics snapshot",
    },
    "docs": "docs/serving.md",
}


class ServeHandler(exposition._Handler):
    """Exposition handler + the compile API (subclass-injected deps)."""

    service: CompileService
    bucket: Optional[TokenBucket] = None

    def route_get(self, path: str) -> Optional[Tuple[bytes, str]]:
        if path == "/":
            return (
                json.dumps(_API_DOC, sort_keys=True).encode(),
                "application/json",
            )
        routed = super().route_get(path)
        if path == "/state" and routed is not None:
            # graft the queue/cache/pool snapshot onto the hub document
            document = json.loads(routed[0])
            document["serve"] = self.service.state()
            routed = (
                json.dumps(document, sort_keys=True).encode(),
                routed[1],
            )
        return routed

    def _send_json(
        self,
        status: int,
        document: Dict[str, Any],
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path != "/compile":
            self.send_error(404, "unknown path (POST /compile)")
            return
        started = time.perf_counter()
        if self.bucket is not None:
            allowed, retry_after = self.bucket.try_acquire()
            if not allowed:
                obs.incr("serve.throttled")
                self._send_json(
                    429,
                    {
                        "error": "rate limited",
                        "retry_after": round(retry_after, 3),
                    },
                    extra_headers=(
                        ("Retry-After", str(max(1, int(retry_after + 0.5)))),
                    ),
                )
                return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            self._send_json(400, {"error": "a JSON request body is required"})
            return
        if length > MAX_BODY_BYTES:
            self._send_json(
                413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}
            )
            return
        try:
            document = json.loads(self.rfile.read(length))
        except (ValueError, RecursionError):
            # ValueError covers JSONDecodeError, UnicodeDecodeError and
            # integer literals over the int-conversion digit limit;
            # RecursionError is deeply nested arrays or objects
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        try:
            request = parse_compile_request(document)
        except RequestError as exc:
            self._send_json(exc.status, {"error": str(exc)})
            return
        try:
            payload, source = self.service.submit(request).result(
                self.service.config.request_timeout
            )
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})
            return
        elapsed = time.perf_counter() - started
        self.service.record_request(elapsed)
        self._send_json(
            200,
            {
                "artifact": payload,
                "cached": source in ("memory", "disk"),
                "source": source,
                "fingerprint": payload["fingerprint"],
                "elapsed_seconds": round(elapsed, 6),
            },
        )


class ServeDaemon:
    """Wires service + hub + HTTP server into one start/stop lifecycle.

    ::

        with ServeDaemon(ServeConfig(backend="inline"), port=0) as daemon:
            print(daemon.url)  # POST {url}/compile

    When no telemetry session is active one is opened on a
    :class:`~repro.obs.sinks.NullSink` so ``serve.*`` counters and the
    request-latency histogram exist for ``/metrics`` — the same
    pattern the campaign engine uses for ``--metrics-port``.
    """

    def __init__(
        self,
        config: ServeConfig,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config
        self._requested = (host, port)
        self._stack: Optional[ExitStack] = None
        self.hub: Optional[MetricsHub] = None
        self.service: Optional[CompileService] = None
        self.server: Optional[MetricsServer] = None

    @property
    def url(self) -> str:
        if self.server is None:
            raise RuntimeError("daemon is not running")
        return self.server.url

    def start(self) -> "ServeDaemon":
        if self._stack is not None:
            raise RuntimeError("daemon already started")
        host, port = self._requested
        stack = ExitStack()
        try:
            if obs.current() is None:
                stack.enter_context(obs.session(obs.NullSink()))
            self.hub = MetricsHub(telemetry=obs.current())
            stack.enter_context(exposition.activated(self.hub))
            self.service = CompileService(self.config, hub=self.hub)
            stack.enter_context(self.service)
            bucket = (
                TokenBucket(self.config.rate, self.config.burst)
                if self.config.rate is not None
                else None
            )
            handler = type(
                "_BoundServeHandler",
                (ServeHandler,),
                {"service": self.service, "bucket": bucket},
            )
            self.server = MetricsServer(
                self.hub, port=port, host=host, handler_base=handler
            )
            stack.enter_context(self.server)
        except BaseException:
            stack.close()
            self.hub = self.service = self.server = None
            raise
        self._stack = stack
        return self

    def stop(self) -> None:
        if self._stack is None:
            return
        stack, self._stack = self._stack, None
        try:
            stack.close()
        finally:
            self.hub = self.service = self.server = None

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Block until interrupted (the CLI's foreground mode)."""
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
