"""Loopback stand-ins for an MT provider and an HTTP proxy.

`MTServer` answers `HttpMTClient`'s POSTs on 127.0.0.1, translating
each text the way `FakeReversingClient` does (so its output equals
`translate --fake`'s), and records every request and the client
address of every connection it accepted. `Proxy` forwards
absolute-URL requests to their server and answers CONNECT with 200
before closing, so a test can see which requests it carried.

Run as a script, `python3 tests/mt_server.py URL_FILE` serves an
`MTServer` until killed and writes its base URL to URL_FILE once it
accepts connections.
"""

from __future__ import annotations

import http.client
import http.server
import json
import os
import sys
import threading
from urllib.parse import urlsplit

# The variables urllib.request reads a proxy from; tests clear them so
# the machine's own proxy settings cannot reroute loopback requests.
PROXY_VARS = ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY")


def reverse_words(text: str) -> str:
    return " ".join(reversed(text.split()))


class _Loopback:
    """A threading HTTP/1.1 server on a free loopback port, run as a context manager."""

    def __init__(self, handler: type) -> None:
        self.lock = threading.Lock()
        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.httpd.owner = self
        self.url = f"http://127.0.0.1:{self.httpd.server_port}"
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keeps connections alive between requests
    # buffered, so that headers and body leave in one send: a second small
    # send would wait out the client's delayed ACK (Nagle)
    wbufsize = -1

    def answer(self, status: int, body: bytes, headers: dict) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


class _MTHandler(_Handler):
    def do_POST(self) -> None:
        server = self.server.owner
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.peers.add(self.client_address)
            server.requests.append((self.path, dict(self.headers), payload))
            status = server.statuses.pop(0) if server.statuses else 200
        headers = {"Content-Type": "application/json"}
        if 300 <= status < 400:
            headers["Location"] = server.location
        translations = [server.translate(text) for text in payload["texts"]]
        body = {"translations": translations} if status == 200 else {"error": status}
        self.answer(status, json.dumps(body).encode(), headers)


class MTServer(_Loopback):
    """Answers the statuses given in order, then 200 with translations.

    `peers` holds one client address per connection accepted;
    `requests` holds (request target, headers, JSON payload) per POST.
    """

    location = "http://127.0.0.1:9/elsewhere"

    def __init__(self, statuses=(), translate=reverse_words) -> None:
        super().__init__(_MTHandler)
        self.statuses = list(statuses)
        self.translate = translate
        self.peers: set = set()
        self.requests: list = []


class _ProxyHandler(_Handler):
    def record(self) -> None:
        with self.server.owner.lock:
            self.server.owner.seen.append(
                (self.command, self.path, self.headers.get("Proxy-Authorization"))
            )

    def do_POST(self) -> None:
        self.record()
        url = urlsplit(self.path)
        body = self.rfile.read(int(self.headers["Content-Length"]))
        forwarded = {name: self.headers[name] for name in ("Authorization", "Content-Type")}
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", url.path, body, forwarded)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        self.answer(response.status, data, {"Content-Type": response.getheader("Content-Type")})

    def do_CONNECT(self) -> None:
        self.record()
        self.send_response(200)
        self.end_headers()
        self.close_connection = True  # no TLS here: the tunnel ends at once


class Proxy(_Loopback):
    """`seen` holds (method, request target, Proxy-Authorization) per request."""

    def __init__(self) -> None:
        super().__init__(_ProxyHandler)
        self.seen: list = []


if __name__ == "__main__":
    with MTServer() as server:
        partial = sys.argv[1] + ".partial"
        with open(partial, "w", encoding="utf-8") as f:
            f.write(server.url)
        os.replace(partial, sys.argv[1])
        server.thread.join()
