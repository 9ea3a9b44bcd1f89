"""The monitor's HTTP endpoints: :func:`~repro.telemetry.monitor.exporters.
serve_monitor_http` imports this module, so only a process that serves
them loads ``http.server``."""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.telemetry.monitor.exporters import render_prometheus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.telemetry.monitor.service import Monitor


class MonitorHandler(BaseHTTPRequestHandler):
    """Read-only monitor endpoints; logging silenced (stderr is the
    structured logger's channel, not the scrape log's)."""

    server: "MonitorServer"

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        return

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        monitor = self.server.monitor
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = render_prometheus(monitor.registry_snapshot())
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.encode("utf-8"),
                )
            elif path == "/monitor.json":
                body = json.dumps(monitor.dump(), indent=2)
                self._send(
                    200, "application/json", body.encode("utf-8")
                )
            elif path == "/healthz":
                self._send(200, "text/plain", b"ok\n")
            else:
                self._send(404, "text/plain", b"not found\n")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass


class MonitorServer(ThreadingHTTPServer):
    daemon_threads = True
    monitor: "Monitor"
