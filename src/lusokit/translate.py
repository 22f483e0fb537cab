"""Machine-translation client plumbing: batching, retries, caching.

The provider is reached through a narrow protocol so tests and dry
runs can swap in offline fakes. Failures are split into three kinds:
transient (retry with backoff), permanent (bisect the batch to isolate
and reject the offending examples), and authentication (fatal, no
retry will ever help).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence

from lusokit import jsonlog
from lusokit.errors import ConfigurationError
from lusokit.fanout import fan_out

if TYPE_CHECKING:
    import requests

AUTH_KEY_ENV_VAR = "LUSOKIT_MT_AUTH_KEY"

# A batch that fails transiently is sent again up to MAX_RETRIES times,
# after sleeping BACKOFF_BASE_S * 2**attempt seconds.
MAX_RETRIES = 4
BACKOFF_BASE_S = 0.5


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
    """JSON-over-HTTP provider client.

    Auth key comes from the constructor or the LUSOKIT_MT_AUTH_KEY
    environment variable. Status mapping: 401/403 authentication,
    429/5xx transient, other 4xx permanent; connection-level errors
    are transient.
    """

    def __init__(
        self,
        endpoint: str,
        auth_key: Optional[str] = None,
        timeout: float = 30.0,
        session: Optional[requests.Session] = None,
    ) -> None:
        self.endpoint = endpoint
        self.auth_key = auth_key if auth_key is not None else os.environ.get(AUTH_KEY_ENV_VAR)
        if not self.auth_key:
            raise AuthenticationError(
                f"no auth key: pass one or set {AUTH_KEY_ENV_VAR}"
            )
        self.timeout = timeout
        import requests  # slow to import, and only this client needs it

        self.session = session if session is not None else requests.Session()

    def translate_batch(self, texts: Sequence[str], target: str) -> list[str]:
        import requests

        payload = {"texts": list(texts), "target": target}
        headers = {"Authorization": f"Bearer {self.auth_key}"}
        try:
            response = self.session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransientTranslationError(f"request failed: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthenticationError(f"auth rejected with status {response.status_code}")
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientTranslationError(f"status {response.status_code}")
        if response.status_code != 200:
            raise PermanentTranslationError(
                f"status {response.status_code}: {response.text[:200]}"
            )
        try:
            body = response.json()
            translations = body["translations"]
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


class TranslationCache:
    """(text, target) -> translation cache: one `cache.jsonl` log,
    read once into a dict; each put appends a batch durably."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "cache.jsonl"
        self._entries = {
            key: record["translation"]
            for key, record in jsonlog.load(self.path, _cache_key).items()
        }

    def get(self, text: str, target: str) -> Optional[str]:
        return self._entries.get((target, text))

    def put(self, pairs: Sequence[tuple[str, str]], target: str) -> None:
        """Store a batch's (text, translation) pairs with one fsync."""
        records = [{"target": target, "text": text, "translation": out} for text, out in pairs]
        jsonlog.append(self.path, *records)
        self._entries.update(((target, text), out) for text, out in pairs)


def _cache_key(record: dict) -> Optional[tuple]:
    if isinstance(record.get("translation"), str):
        return (record.get("target"), record.get("text"))
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

    Cache hits and empty strings never reach the client. Batches fan
    out across max_workers threads and each batch's translations are
    cached as it finishes. A transient failure is retried with backoff
    (MAX_RETRIES, BACKOFF_BASE_S); a permanent one bisects the batch
    until it isolates the texts that cause it. A single authentication
    failure aborts the whole run, since no other batch could succeed
    either: batches not yet started are never sent.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    results: list[Optional[str]] = [None] * len(texts)
    pending: list[tuple[int, str]] = []
    for i, text in enumerate(texts):
        if text == "":
            results[i] = ""
            continue
        if cache is not None:
            hit = cache.get(text, target)
            if hit is not None:
                results[i] = hit
                continue
        pending.append((i, text))

    batches = [pending[i : i + batch_size] for i in range(0, len(pending), batch_size)]
    rejects: list[tuple[int, str]] = []
    requests_issued = 0
    lock = threading.Lock()

    def send(batch: list[tuple[int, str]]) -> tuple[dict[int, str], list[tuple[int, str]]]:
        """Translate one indexed batch, bisecting on permanent failures."""
        nonlocal requests_issued
        attempt = 0
        while True:
            with lock:
                requests_issued += 1
            try:
                out = client.translate_batch([text for _, text in batch], target)
                if len(out) != len(batch):
                    raise PermanentTranslationError(
                        f"expected {len(batch)} translations, got {len(out)}"
                    )
                return {idx: translation for (idx, _), translation in zip(batch, out)}, []
            except TransientTranslationError as exc:
                if attempt >= MAX_RETRIES:
                    return {}, [
                        (idx, f"transient failure persisted after {attempt + 1} attempts: {exc}")
                        for idx, _ in batch
                    ]
                sleep(BACKOFF_BASE_S * (2**attempt))
                attempt += 1
            except PermanentTranslationError as exc:
                if len(batch) == 1:
                    return {}, [(batch[0][0], str(exc))]
                mid = len(batch) // 2
                (left, left_bad), (right, right_bad) = send(batch[:mid]), send(batch[mid:])
                return {**left, **right}, left_bad + right_bad

    def run(batch: list[tuple[int, str]]):
        ok, bad = send(batch)
        # Cached from the worker as the batch returns, so paid work
        # survives a later batch aborting the run.
        if cache is not None and ok:
            cache.put([(texts[idx], translation) for idx, translation in ok.items()], target)
        return ok, bad

    for ok, bad in fan_out(run, batches, max_workers):
        for idx, translation in ok.items():
            results[idx] = translation
        rejects.extend(bad)

    rejects.sort(key=lambda item: item[0])
    return TranslationOutcome(
        translations=tuple(results),
        rejects=tuple(rejects),
        requests_issued=requests_issued,
    )
