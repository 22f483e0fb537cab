"""Machine-translation client plumbing: batching, retries, caching.

The provider is reached through a narrow protocol so tests and dry
runs can swap in offline fakes. Failures are split into three kinds:
transient (retry with backoff), permanent (bisect the batch to isolate
and reject the offending examples), and authentication (fatal, no
retry will ever help).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol, Sequence

from lusokit import jsonlog
from lusokit.errors import ConfigurationError
from lusokit.fanout import fan_out
from lusokit.textutil import blake2b

if TYPE_CHECKING:
    import http.client

AUTH_KEY_ENV_VAR = "LUSOKIT_MT_AUTH_KEY"

# A batch that fails transiently is sent again up to MAX_RETRIES times,
# after sleeping BACKOFF_BASE_S * 2**attempt seconds.
MAX_RETRIES = 4
BACKOFF_BASE_S = 0.5

# Seconds a provider request may take before it counts as a transient failure.
REQUEST_TIMEOUT_S = 30.0

# Cache lines key a text by a BLAKE2b digest of this many bytes.
DIGEST_BYTES = 16


class TranslationError(Exception):
    """Base for translation failures."""


class TransientTranslationError(TranslationError):
    """Retryable failure: rate limit, server hiccup, network timeout."""


class PermanentTranslationError(TranslationError):
    """Non-retryable failure tied to the request content."""


class AuthenticationError(TranslationError, ConfigurationError):
    """Credentials missing or rejected; retrying cannot succeed."""


class MTClient(Protocol):
    def translate_batch(self, texts: Sequence[str], target: str) -> list[str]:
        """Translate texts into the target variant code, order-preserving."""
        ...


class FakeReversingClient:
    """Offline stand-in that reverses word order and tags the target.

    Deterministic and dependency-free, so pipelines can be exercised
    end to end without a provider account.
    """

    def translate_batch(self, texts: Sequence[str], target: str) -> list[str]:
        return [" ".join(reversed(text.split())) for text in texts]


class HttpMTClient:
    """JSON-over-HTTP provider client on the standard library.

    Auth key comes from the constructor or the LUSOKIT_MT_AUTH_KEY
    environment variable. Status mapping: 401/403 authentication, 3xx
    fatal (redirects are not followed), 429/5xx transient, other 4xx
    permanent; connection-level errors are transient. A connection
    serves one request at a time and is kept alive for the next, so no
    more are opened than there are concurrent requests.
    """

    def __init__(
        self,
        endpoint: str,
        auth_key: Optional[str] = None,
        connect: Optional[Callable[[], http.client.HTTPConnection]] = None,
    ) -> None:
        self.endpoint = endpoint
        default_connect, self._target, self._headers = _connector(endpoint)
        self.auth_key = auth_key if auth_key is not None else os.environ.get(AUTH_KEY_ENV_VAR)
        if not self.auth_key:
            raise AuthenticationError(
                f"no auth key: pass one or set {AUTH_KEY_ENV_VAR}"
            )
        self._headers["Authorization"] = f"Bearer {self.auth_key}"
        self._headers["Content-Type"] = "application/json"
        self._connect = connect if connect is not None else default_connect
        self._idle: list[http.client.HTTPConnection] = []  # pop and append are atomic

    def translate_batch(self, texts: Sequence[str], target: str) -> list[str]:
        import http.client
        import select

        body = json.dumps({"texts": list(texts), "target": target}).encode()
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # the server closed it while idle; request() reconnects
        data = None
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransientTranslationError(f"request failed: {exc}") from exc
        finally:
            if data is None:
                conn.close()
            self._idle.append(conn)
        status = response.status
        if status in (401, 403):
            raise AuthenticationError(f"auth rejected with status {status}")
        if 300 <= status < 400:
            raise ConfigurationError(
                f"endpoint {self.endpoint} redirects with status {status} "
                f"to {response.getheader('Location')}; redirects are not followed"
            )
        if status == 429 or status >= 500:
            raise TransientTranslationError(f"status {status}")
        if status != 200:
            raise PermanentTranslationError(
                f"status {status}: {data.decode('utf-8', 'replace')[:200]}"
            )
        try:
            translations = json.loads(data)["translations"]
        except (ValueError, KeyError, TypeError) as exc:
            raise PermanentTranslationError(f"malformed response body: {exc}") from exc
        if not isinstance(translations, list) or len(translations) != len(texts):
            raise PermanentTranslationError(
                f"expected {len(texts)} translations, got "
                f"{len(translations) if isinstance(translations, list) else 'non-list'}"
            )
        for i, translation in enumerate(translations):
            if not isinstance(translation, str):
                raise PermanentTranslationError(
                    f"translation {i} is {type(translation).__name__}, not text"
                )
        return translations

    def close(self) -> None:
        """Close the kept-alive connections; a later request opens a new one."""
        while self._idle:
            self._idle.pop().close()


def _connector(endpoint: str) -> tuple[Callable[[], http.client.HTTPConnection], str, dict]:
    """Connection factory, request target and proxy headers for an
    endpoint. The proxy is the one http_proxy or https_proxy names
    unless no_proxy covers the host, as urllib.request reads them:
    https goes through a CONNECT tunnel, http by absolute URL.
    """
    import base64
    import http.client
    import urllib.request
    from urllib.parse import unquote, urlsplit

    def parse(value: str, what: str, schemes: tuple[str, ...]):
        try:
            url = urlsplit(value)
            if url.scheme in schemes and url.hostname:
                return url, url.port or (443 if url.scheme == "https" else 80)
        except ValueError:
            pass
        raise ConfigurationError(
            f"{what} {value} is not an {' or '.join(schemes)} URL with a host"
        )

    url, port = parse(endpoint, "endpoint", ("http", "https"))
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    dial, headers, tunnel = (url.hostname, port), {}, None
    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and not urllib.request.proxy_bypass(url.hostname):
        proxy = proxy if "://" in proxy else f"http://{proxy}"
        via, via_port = parse(proxy, f"{url.scheme}_proxy", ("http",))
        dial = via.hostname, via_port
        if via.username is not None:
            user = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
            headers["Proxy-Authorization"] = f"Basic {base64.b64encode(user).decode()}"
        if url.scheme == "https":
            tunnel, headers = headers, {}
        else:
            target = f"http://{url.netloc}{target}"
    make = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection

    def connect() -> http.client.HTTPConnection:
        conn = make(*dial, timeout=REQUEST_TIMEOUT_S)
        if tunnel is not None:
            conn.set_tunnel(url.hostname, port, headers=tunnel)
        return conn

    return connect, target, headers


class TranslationCache:
    """(text, target) -> translation cache kept in one `cache.jsonl` log.

    Each line is `{"target", "digest", "translation"}`, where digest is
    the hex of a 16-byte BLAKE2b of the text's UTF-8 bytes; the caller
    holds the text, so the log does not repeat it. Lines in the older
    `{"target", "text", "translation"}` shape are still read, their
    text digested on load. Given `texts`, the load keeps only the lines
    of those texts, so memory follows the input rather than the log;
    `get` then misses any other text the log holds. Each put appends a
    batch durably.
    """

    def __init__(self, directory: str | Path, texts: Optional[Iterable[str]] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "cache.jsonl"
        # target -> digest -> translation: no tuple or text per entry
        self._entries: dict[str, dict[bytes, str]] = {}
        wanted = None if texts is None else {_digest(text) for text in texts}
        for record, _ in jsonlog.read(self.path):
            key = _cache_key(record)
            if key is not None and (wanted is None or key[1] in wanted):
                self._entries.setdefault(key[0], {})[key[1]] = record["translation"]

    def get(self, text: str, target: str) -> Optional[str]:
        entries = self._entries.get(target)
        return None if entries is None else entries.get(_digest(text))

    def put(self, pairs: Sequence[tuple[str, str]], target: str) -> None:
        """Store a batch's (text, translation) pairs with one fsync."""
        keyed = [(_digest(text), out) for text, out in pairs]
        jsonlog.append(self.path, *(
            {"target": target, "digest": digest.hex(), "translation": out}
            for digest, out in keyed
        ))
        self._entries.setdefault(target, {}).update(keyed)


def _digest(text: str) -> bytes:
    return blake2b(text.encode("utf-8"), digest_size=DIGEST_BYTES).digest()


def _cache_key(record: dict) -> Optional[tuple[str, bytes]]:
    """(target, text digest) of a well-formed cache line, else None."""
    target, digest, text = record.get("target"), record.get("digest"), record.get("text")
    if not isinstance(target, str) or not isinstance(record.get("translation"), str):
        return None
    if isinstance(digest, str):
        try:
            key = bytes.fromhex(digest)
        except ValueError:
            return None
        return (target, key) if len(key) == DIGEST_BYTES else None
    if digest is None and isinstance(text, str):
        return target, _digest(text)  # a line written before digests
    return None


@dataclass(frozen=True)
class TranslationOutcome:
    """Aligned translations plus per-example rejects and request count.

    translations[i] is None exactly when input i was rejected.
    """

    translations: tuple[Optional[str], ...]
    rejects: tuple[tuple[int, str], ...]
    requests_issued: int


def translate_dataset(
    texts: Sequence[str],
    target: str,
    client: MTClient,
    cache: Optional[TranslationCache] = None,
    batch_size: int = 50,
    max_workers: int = 1,
    sleep: Callable[[float], None] = time.sleep,
) -> TranslationOutcome:
    """Translate texts into target, returning aligned results.

    Cache hits and empty strings never reach the client, and a text
    that repeats is sent and cached once, its translation or reject
    going to every index that holds it. Batches fan out across
    max_workers threads and each batch's translations are cached as it
    finishes. A transient failure is retried with backoff (MAX_RETRIES,
    BACKOFF_BASE_S); a permanent one bisects the batch until it
    isolates the texts that cause it. A single authentication failure
    aborts the whole run, since no other batch could succeed either:
    batches not yet started are never sent.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    results: list[Optional[str]] = [None] * len(texts)
    pending: dict[str, list[int]] = {}  # distinct text -> its indices
    for i, text in enumerate(texts):
        if text == "":
            results[i] = ""
        elif text in pending:
            pending[text].append(i)
        else:
            hit = None if cache is None else cache.get(text, target)
            if hit is None:
                pending[text] = [i]
            else:
                results[i] = hit

    distinct = list(pending)
    batches = [distinct[i : i + batch_size] for i in range(0, len(distinct), batch_size)]
    rejects: list[tuple[int, str]] = []
    requests_issued = 0
    lock = threading.Lock()

    def send(batch: list[str]) -> tuple[dict[str, str], list[tuple[str, str]]]:
        """Translate one batch, bisecting on permanent failures."""
        nonlocal requests_issued
        attempt = 0
        while True:
            with lock:
                requests_issued += 1
            try:
                out = client.translate_batch(batch, target)
                if len(out) != len(batch):
                    raise PermanentTranslationError(
                        f"expected {len(batch)} translations, got {len(out)}"
                    )
                return dict(zip(batch, out)), []
            except TransientTranslationError as exc:
                if attempt >= MAX_RETRIES:
                    reason = f"transient failure persisted after {attempt + 1} attempts: {exc}"
                    return {}, [(text, reason) for text in batch]
                sleep(BACKOFF_BASE_S * (2**attempt))
                attempt += 1
            except PermanentTranslationError as exc:
                if len(batch) == 1:
                    return {}, [(batch[0], str(exc))]
                mid = len(batch) // 2
                (left, left_bad), (right, right_bad) = send(batch[:mid]), send(batch[mid:])
                return {**left, **right}, left_bad + right_bad

    def run(batch: list[str]):
        ok, bad = send(batch)
        # Cached from the worker as the batch returns, so paid work
        # survives a later batch aborting the run.
        if cache is not None and ok:
            cache.put(list(ok.items()), target)
        return ok, bad

    for ok, bad in fan_out(run, batches, max_workers):
        for text, translation in ok.items():
            for idx in pending[text]:
                results[idx] = translation
        rejects.extend((idx, reason) for text, reason in bad for idx in pending[text])

    rejects.sort(key=lambda item: item[0])
    return TranslationOutcome(
        translations=tuple(results),
        rejects=tuple(rejects),
        requests_issued=requests_issued,
    )
