"""A tiny stdlib Prometheus scrape endpoint: ``GET /metrics``.

One daemon-threaded :class:`~http.server.ThreadingHTTPServer` serving
exactly two routes — ``/metrics`` (the text exposition a Prometheus
scraper pulls) and ``/healthz`` (liveness for load balancers) — over a
callback so the exporter stays decoupled from the service layer:
whoever starts it decides what a scrape renders (the job server passes
a closure that refreshes the gauges first).

No third-party dependency, by design: the container bakes in only the
scientific python stack, and a scrape endpoint needs nothing more than
``http.server``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, cast

from repro.obs.metrics import CONTENT_TYPE

__all__ = ["POLL_INTERVAL", "MetricsExporter"]

#: seconds a ``serve_forever`` loop waits between shutdown checks;
#: socketserver's 0.5 s default would add up to that much to every stop
POLL_INTERVAL = 0.05


class _ScrapeHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] == "/metrics":
            try:
                render = self.server.render  # type: ignore[attr-defined]
                body = render().encode("utf-8")
            except Exception as exc:  # noqa: BLE001 - keep serving
                self.send_error(500, explain=f"{type(exc).__name__}: {exc}")
                return
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.split("?", 1)[0] == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404, explain="try /metrics or /healthz")

    def log_message(self, format: str, *args: Any) -> None:
        """Scrapes are periodic background noise; keep stdout clean."""


class MetricsExporter:
    """Background HTTP listener rendering a registry on each scrape.

    Parameters
    ----------
    render:
        Zero-argument callable returning the exposition text; invoked
        per scrape (the caller refreshes gauges inside it).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address`).
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = ThreadingHTTPServer((host, port), _ScrapeHandler)
        self._server.daemon_threads = True
        self._server.render = render  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return cast("tuple[str, int]", self._server.server_address[:2])

    @property
    def url(self) -> str:
        """The scrape URL."""
        host, port = self.address
        return f"http://{host}:{port}/metrics"

    def start(self) -> "MetricsExporter":
        """Serve scrapes on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(POLL_INTERVAL,),
            name="metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the listener and join its thread; idempotent."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._server.shutdown()
            thread.join()
        self._server.server_close()
