"""Translation client plumbing: batching, retries, bisection, cache."""

import base64
import hashlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.errors import ConfigurationError
from lusokit.translate import (
    AUTH_KEY_ENV_VAR,
    MAX_RETRIES,
    AuthenticationError,
    FakeReversingClient,
    HttpMTClient,
    PermanentTranslationError,
    TransientTranslationError,
    TranslationCache,
    _digest,
    translate_dataset,
)

from mt_server import PROXY_VARS, Proxy


class ScriptedClient:
    """Programmable client: per-text failure modes, call recording."""

    def __init__(self, transient_failures=0, permanent_texts=(), auth_fail_from_call=None,
                 latency=0.0):
        self.remaining_transient = transient_failures
        self.permanent_texts = set(permanent_texts)
        # 1-based call number from which the key counts as revoked
        self.auth_fail_from_call = auth_fail_from_call
        self.latency = latency  # seconds a successful call takes
        self.calls = []
        self.lock = threading.Lock()

    def translate_batch(self, texts, target):
        with self.lock:
            self.calls.append(tuple(texts))
            if (self.auth_fail_from_call is not None
                    and len(self.calls) >= self.auth_fail_from_call):
                raise AuthenticationError("bad key")
            if self.remaining_transient > 0:
                self.remaining_transient -= 1
                raise TransientTranslationError("rate limited")
            bad = [t for t in texts if t in self.permanent_texts]
            if bad:
                raise PermanentTranslationError(f"cannot translate {bad[0]!r}")
        time.sleep(self.latency)
        return [f"[{target}] {t}" for t in texts]


def no_sleep(_):
    pass


class TestHappyPath:
    def test_batches_and_order(self):
        client = ScriptedClient()
        texts = [f"texto {i}" for i in range(7)]
        outcome = translate_dataset(texts, "PT-PT", client, batch_size=3, sleep=no_sleep)
        assert list(outcome.translations) == [f"[PT-PT] texto {i}" for i in range(7)]
        assert outcome.rejects == ()
        assert outcome.requests_issued == 3
        assert [len(c) for c in client.calls] == [3, 3, 1]

    def test_empty_string_short_circuits(self):
        client = ScriptedClient()
        outcome = translate_dataset(["", "ola"], "PT-PT", client, sleep=no_sleep)
        assert outcome.translations == ("", "[PT-PT] ola")
        assert all("" not in call for call in client.calls)

    def test_fake_client_reverses_words(self):
        fake = FakeReversingClient()
        assert fake.translate_batch(["um dois tres"], "PT-BR") == ["tres dois um"]


class TestRetries:
    def test_transient_retries_then_succeeds(self):
        client = ScriptedClient(transient_failures=2)
        sleeps = []
        outcome = translate_dataset(
            ["ola"], "PT-PT", client, sleep=sleeps.append
        )
        assert outcome.translations == ("[PT-PT] ola",)
        assert outcome.requests_issued == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_transient_exhaustion_rejects_batch(self):
        client = ScriptedClient(transient_failures=99)
        sleeps = []
        outcome = translate_dataset(["a", "b"], "PT-PT", client, sleep=sleeps.append)
        assert outcome.translations == (None, None)
        assert [idx for idx, _ in outcome.rejects] == [0, 1]
        assert outcome.rejects[0][1].startswith("transient failure persisted after 5 attempts")
        assert outcome.requests_issued == 1 + MAX_RETRIES == 5
        assert sleeps == [0.5, 1.0, 2.0, 4.0]


class TestBisection:
    def test_permanent_failure_isolated_to_single_example(self):
        client = ScriptedClient(permanent_texts={"veneno"})
        texts = ["um", "dois", "veneno", "tres", "quatro"]
        outcome = translate_dataset(
            texts, "PT-PT", client, batch_size=5, sleep=no_sleep
        )
        assert outcome.translations[0] == "[PT-PT] um"
        assert outcome.translations[2] is None
        assert outcome.translations[4] == "[PT-PT] quatro"
        assert len(outcome.rejects) == 1
        assert outcome.rejects[0][0] == 2

    def test_all_good_examples_survive_multiple_poisons(self):
        client = ScriptedClient(permanent_texts={"p1", "p2"})
        texts = ["a", "p1", "b", "c", "p2", "d", "e", "f"]
        outcome = translate_dataset(
            texts, "PT-PT", client, batch_size=8, sleep=no_sleep
        )
        rejected = {idx for idx, _ in outcome.rejects}
        assert rejected == {1, 4}
        for i, text in enumerate(texts):
            if i in rejected:
                assert outcome.translations[i] is None
            else:
                assert outcome.translations[i] == f"[PT-PT] {text}"

    def test_repeated_poison_rejects_each_index(self):
        client = ScriptedClient(permanent_texts={"veneno"})
        texts = ["veneno", "um", "veneno", "dois"]
        outcome = translate_dataset(texts, "PT-PT", client, batch_size=4, sleep=no_sleep)
        assert outcome.translations == (None, "[PT-PT] um", None, "[PT-PT] dois")
        assert outcome.rejects == ((0, "cannot translate 'veneno'"),
                                   (2, "cannot translate 'veneno'"))
        assert client.calls[0] == ("veneno", "um", "dois")  # sent once


class MisshapenClient:
    """Non-HTTP client that answers a batch holding a poison text with a
    malformed batch: a str as long as the batch, one translation too few
    or too many, or None in the text's place."""

    def translate_batch(self, texts, target):
        out = [f"<{t}>" for t in texts]
        if "str" in texts:
            return "x" * len(texts)
        if "short" in texts:
            return out[:-1]
        if "long" in texts:
            return out + ["<extra>"]
        return [None if t == "none" else o for t, o in zip(texts, out)]


class TestBatchShape:
    def test_every_clients_batch_is_checked(self, tmp_path):
        texts = ["um", "str", "dois", "short", "tres", "long", "quatro", "none", "cinco"]
        cache = TranslationCache(tmp_path / "mt")
        outcome = translate_dataset(texts, "PT-PT", MisshapenClient(), cache=cache,
                                    batch_size=4, sleep=no_sleep)
        assert outcome.rejects == (
            (1, "expected 1 translations, got non-list"),
            (3, "expected 1 translations, got 0"),
            (5, "expected 1 translations, got 2"),
            (7, "translation 0 is NoneType, not text"),
        )
        assert outcome.translations == (
            "<um>", None, "<dois>", None, "<tres>", None, "<quatro>", None, "<cinco>",
        )
        lines = (tmp_path / "mt" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["translation"] for line in lines) == [
            "<cinco>", "<dois>", "<quatro>", "<tres>", "<um>",
        ]


class TestAuth:
    def test_auth_failure_is_fatal(self):
        client = ScriptedClient(auth_fail_from_call=1)
        with pytest.raises(AuthenticationError):
            translate_dataset(["ola"], "PT-PT", client, sleep=no_sleep)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_no_batch_sent_after_auth_failure(self, max_workers):
        # 10 batches; the key is revoked from the third call on. Only the
        # batches already running when it fails may still reach the client.
        # Successful calls take a moment, as a real request does, so the
        # failing worker would otherwise drain the queue meanwhile.
        client = ScriptedClient(auth_fail_from_call=3, latency=0.002)
        texts = [f"texto {i}" for i in range(20)]
        with pytest.raises(AuthenticationError):
            translate_dataset(texts, "PT-PT", client, batch_size=2,
                              max_workers=max_workers, sleep=no_sleep)
        assert len(client.calls) <= 2 + max_workers


class StubResponse:
    def __init__(self, status, body=None, location=None):
        self.status = status
        self.data = b"not json" if body is None else json.dumps(body).encode()
        self.location = location

    def read(self):
        return self.data

    def getheader(self, name):
        return self.location if name == "Location" else None


class StubConnection:
    """Stands in for an http.client connection: answers every request with
    one response (or raises one error), records the requests and counts
    closes."""

    sock = None  # never connected, so never found closed while idle

    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error
        self.requests = []
        self.closes = 0

    def request(self, method, target, body, headers):
        self.requests.append((method, target, json.loads(body), dict(headers)))
        if self.error is not None:
            raise self.error

    def getresponse(self):
        return self.response

    def close(self):
        self.closes += 1


@pytest.fixture(autouse=True)
def no_proxy_settings(monkeypatch):
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)


def http_client(conn, endpoint="https://mt.example/v1"):
    return HttpMTClient(endpoint, auth_key="chave", connect=lambda: conn)


class TestHttpClient:
    def test_ok_returns_translations(self):
        conn = StubConnection(StubResponse(200, {"translations": ["um", "dois"]}))
        assert http_client(conn).translate_batch(["one", "two"], "PT-PT") == ["um", "dois"]
        method, target, payload, headers = conn.requests[0]
        assert (method, target) == ("POST", "/v1")
        assert payload == {"texts": ["one", "two"], "target": "PT-PT"}
        assert headers == {"Authorization": "Bearer chave", "Content-Type": "application/json"}

    @pytest.mark.parametrize("status, error", [
        (401, AuthenticationError),
        (403, AuthenticationError),
        (429, TransientTranslationError),
        (500, TransientTranslationError),
        (503, TransientTranslationError),
        (400, PermanentTranslationError),
        (404, PermanentTranslationError),
        (301, ConfigurationError),
        (307, ConfigurationError),
    ])
    def test_status_mapping(self, status, error):
        client = http_client(StubConnection(StubResponse(status, {"translations": ["um"]})))
        with pytest.raises(error):
            client.translate_batch(["one"], "PT-PT")

    def test_redirect_stops_the_run_naming_its_location(self):
        # redirects are not followed, and no text is rejected for one
        conn = StubConnection(StubResponse(302, location="https://mt.example/v2"))
        message = ("endpoint https://mt.example/v1 redirects with status 302 to "
                   "https://mt.example/v2; redirects are not followed")
        with pytest.raises(ConfigurationError) as info:
            translate_dataset(["um", "dois"], "PT-PT", http_client(conn), sleep=no_sleep)
        assert str(info.value) == message
        assert len(conn.requests) == 1

    def test_connection_error_is_transient(self):
        conn = StubConnection(error=ConnectionRefusedError("refused"))
        client = http_client(conn)
        with pytest.raises(TransientTranslationError):
            client.translate_batch(["one"], "PT-PT")
        # closed so that its next request reconnects
        assert conn.closes == 1

    @pytest.mark.parametrize("error", [
        TimeoutError("timed out"),
        http.client.RemoteDisconnected("closed without a response"),
        http.client.IncompleteRead(b"{"),
    ])
    def test_other_connection_failures_are_transient(self, error):
        with pytest.raises(TransientTranslationError):
            http_client(StubConnection(error=error)).translate_batch(["one"], "PT-PT")

    def test_connection_is_reused_and_closed_by_close(self):
        made = []

        def connect():
            made.append(StubConnection(StubResponse(200, {"translations": ["um"]})))
            return made[-1]

        client = HttpMTClient("https://mt.example/v1", auth_key="chave", connect=connect)
        for _ in range(3):
            client.translate_batch(["one"], "PT-PT")
        assert len(made) == 1 and len(made[0].requests) == 3 and made[0].closes == 0
        client.close()
        assert made[0].closes == 1

    def test_connection_closed_by_the_server_while_idle_is_replaced(self):
        # a readable idle socket means the server hung up (EOF): the client
        # closes the connection so that http.client dials a new one
        conn = StubConnection(StubResponse(200, {"translations": ["um"]}))
        conn.sock, server_end = socket.socketpair()
        try:
            server_end.close()
            assert http_client(conn).translate_batch(["one"], "PT-PT") == ["um"]
            assert conn.closes == 1 and len(conn.requests) == 1
        finally:
            conn.sock.close()

    @pytest.mark.parametrize("body", [
        None,  # not JSON
        {"result": ["um"]},
        {"translations": ["um", "dois"]},  # two for one text
        {"translations": "um"},
    ])
    def test_malformed_body_is_permanent(self, body):
        client = http_client(StubConnection(StubResponse(200, body)))
        outcome = translate_dataset(["one"], "PT-PT", client, sleep=no_sleep)
        assert outcome.translations == (None,)
        [(idx, reason)] = outcome.rejects
        assert idx == 0 and outcome.requests_issued == 1
        assert re.fullmatch(
            r"malformed response body: .+|expected 1 translations, got (2|non-list)", reason
        ), reason

    def test_rejected_key_is_a_configuration_error(self):
        # so the CLI prints it as one error: line and exits 2
        client = http_client(StubConnection(StubResponse(401)))
        with pytest.raises(ConfigurationError, match="^auth rejected with status 401$"):
            translate_dataset(["ola"], "PT-PT", client, sleep=no_sleep)

    def test_missing_key_is_authentication_error(self, monkeypatch):
        monkeypatch.delenv(AUTH_KEY_ENV_VAR, raising=False)
        with pytest.raises(AuthenticationError):
            HttpMTClient("https://mt.example/v1", connect=StubConnection)

    def test_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(AUTH_KEY_ENV_VAR, "da-env")
        conn = StubConnection(StubResponse(200, {"translations": ["um"]}))
        client = HttpMTClient("https://mt.example/v1", connect=lambda: conn)
        client.translate_batch(["one"], "PT-PT")
        assert conn.requests[0][3]["Authorization"] == "Bearer da-env"

    @pytest.mark.parametrize("endpoint", [
        "mt.example/v1",
        "localhost:8080/v1",
        "ftp://mt.example/v1",
        "https:///v1",
        "https://mt.example:port/v1",
        "https://mt.example:70000/v1",
        "http://[::1/v1",
    ])
    def test_endpoint_must_be_an_http_url_with_a_host(self, endpoint):
        with pytest.raises(ConfigurationError, match="is not an http or https URL with a host"):
            HttpMTClient(endpoint, auth_key="chave", connect=StubConnection)

    def test_request_target_keeps_the_query(self):
        conn = StubConnection(StubResponse(200, {"translations": ["um"]}))
        client = http_client(conn, "https://mt.example/v1/translate?mode=fast")
        client.translate_batch(["one"], "PT-PT")
        assert conn.requests[0][1] == "/v1/translate?mode=fast"

    def test_https_goes_through_a_connect_tunnel(self, monkeypatch):
        with Proxy() as proxy:
            monkeypatch.setenv("https_proxy", proxy.url.replace("//", "//ana:s%40l@"))
            client = HttpMTClient("https://mt.example/v1", auth_key="chave")
            # the stand-in proxy speaks no TLS, so the handshake fails
            with pytest.raises(TransientTranslationError):
                client.translate_batch(["one"], "PT-PT")
            client.close()
        token = base64.b64encode(b"ana:s@l").decode()
        assert proxy.seen == [("CONNECT", "mt.example:443", f"Basic {token}")]

    @pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080", "http://127.0.0.1:port"])
    def test_proxy_must_be_an_http_url(self, monkeypatch, proxy):
        monkeypatch.setenv("https_proxy", proxy)
        with pytest.raises(ConfigurationError, match="^https_proxy .* is not an http URL"):
            HttpMTClient("https://mt.example/v1", auth_key="chave")

    @pytest.mark.parametrize("answer", [None, 5, {"t": 1}, ["um"]])
    def test_non_text_translation_is_rejected_alone(self, answer):
        class PerTextConnection(StubConnection):
            # answers `answer` for the text "veneno", a translation for the others
            def getresponse(self):
                texts = self.requests[-1][2]["texts"]
                translations = [answer if t == "veneno" else f"<{t}>" for t in texts]
                return StubResponse(200, {"translations": translations})

        client = http_client(PerTextConnection())
        outcome = translate_dataset(["um", "veneno"], "PT-PT", client, batch_size=2, sleep=no_sleep)
        assert outcome.translations == ("<um>", None)
        assert outcome.rejects == ((1, f"translation 0 is {type(answer).__name__}, not text"),)
        texts = ["um", "dois", "veneno", "tres"]
        outcome = translate_dataset(texts, "PT-PT", client, batch_size=4, sleep=no_sleep)
        assert outcome.translations == ("<um>", "<dois>", None, "<tres>")
        assert [idx for idx, _ in outcome.rejects] == [2]
        assert "translation 0 is" in outcome.rejects[0][1]


class TestCache:
    def test_cache_hit_avoids_request(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        client = ScriptedClient()
        out1 = translate_dataset(["ola", "adeus"], "PT-PT", client, cache=cache, sleep=no_sleep)
        assert out1.requests_issued == 1
        client2 = ScriptedClient()
        out2 = translate_dataset(["ola", "adeus"], "PT-PT", client2, cache=cache, sleep=no_sleep)
        assert out2.requests_issued == 0
        assert out2.translations == out1.translations
        assert client2.calls == []

    def test_cache_is_target_scoped(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        cache.put([("ola", "ola-pt")], "PT-PT")
        assert cache.get("ola", "PT-PT") == "ola-pt"
        assert cache.get("ola", "PT-BR") is None

    def test_one_log_file_survives_reopen(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        cache.put([("ola", "ola-pt"), ("adeus", "adeus-pt")], "PT-PT")
        cache.put([("ola", "ola-br")], "PT-BR")
        cache.put([("ola", "ola-pt-2")], "PT-PT")  # latest put wins
        assert sorted(p.name for p in (tmp_path / "mt").iterdir()) == ["cache.jsonl"]
        reopened = TranslationCache(tmp_path / "mt")
        assert reopened.get("ola", "PT-PT") == "ola-pt-2"
        assert reopened.get("ola", "PT-BR") == "ola-br"
        assert reopened.get("adeus", "PT-PT") == "adeus-pt"
        assert reopened.get("adeus", "PT-BR") is None

    def test_torn_last_line_is_a_miss(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        cache.put([("ola", "ola-pt"), ("bom dia", "dia bom")], "PT-PT")
        # a crash mid-append: the next record cut inside a 2-byte character
        line = '{"target": "PT-PT", "text": "até", "translation": "até"}'.encode()
        with (tmp_path / "mt" / "cache.jsonl").open("ab") as out:
            out.write(line[: line.index("é".encode()) + 1])
        reopened = TranslationCache(tmp_path / "mt")
        assert reopened.get("até", "PT-PT") is None
        assert reopened.get("ola", "PT-PT") == "ola-pt"
        assert reopened.get("bom dia", "PT-PT") == "dia bom"
        # the torn fragment does not swallow the next append
        reopened.put([("até", "até-pt")], "PT-PT")
        assert TranslationCache(tmp_path / "mt").get("até", "PT-PT") == "até-pt"

    def test_lines_hold_a_digest_not_the_text(self, tmp_path):
        TranslationCache(tmp_path / "mt").put([("até logo", "logo até")], "PT-PT")
        [line] = (tmp_path / "mt" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        digest = hashlib.blake2b("até logo".encode("utf-8"), digest_size=16).hexdigest()
        assert json.loads(line) == {"target": "PT-PT", "digest": digest, "translation": "logo até"}

    def test_legacy_line_is_a_hit_until_a_digest_line_replaces_it(self, tmp_path):
        (tmp_path / "mt").mkdir()
        legacy = {"target": "PT-PT", "text": "ola", "translation": "pago antes"}
        (tmp_path / "mt" / "cache.jsonl").write_text(json.dumps(legacy) + "\n", encoding="utf-8")
        client = ScriptedClient()
        outcome = translate_dataset(["ola"], "PT-PT", client,
                                    cache=TranslationCache(tmp_path / "mt"), sleep=no_sleep)
        assert outcome.translations == ("pago antes",)
        assert outcome.requests_issued == 0 and client.calls == []
        TranslationCache(tmp_path / "mt").put([("ola", "pago depois")], "PT-PT")
        for texts in (None, ["ola"]):
            assert TranslationCache(tmp_path / "mt", texts=texts).get("ola", "PT-PT") == "pago depois"

    def test_torn_digest_line_is_a_miss(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        cache.put([("ola", "ola-pt")], "PT-PT")
        whole = (tmp_path / "mt" / "cache.jsonl").read_bytes()
        TranslationCache(tmp_path / "mt").put([("adeus", "adeus-pt")], "PT-PT")
        # a crash mid-append: the second line cut inside its digest
        line = (tmp_path / "mt" / "cache.jsonl").read_bytes()[len(whole):]
        (tmp_path / "mt" / "cache.jsonl").write_bytes(whole + line[: line.index(b'"digest"') + 20])
        reopened = TranslationCache(tmp_path / "mt")
        assert reopened.get("adeus", "PT-PT") is None
        assert reopened.get("ola", "PT-PT") == "ola-pt"
        # the torn fragment does not swallow the next append
        reopened.put([("adeus", "adeus-pt-2")], "PT-PT")
        reopened = TranslationCache(tmp_path / "mt")
        assert reopened.get("adeus", "PT-PT") == "adeus-pt-2"
        assert reopened.get("ola", "PT-PT") == "ola-pt"

    @pytest.mark.parametrize("line", [
        {"target": "PT-PT", "digest": "zz" * 16, "translation": "x"},
        {"target": "PT-PT", "digest": "ab" * 15, "translation": "x"},
        {"target": "PT-PT", "digest": 5, "text": "ola", "translation": "x"},
        {"target": ["PT-PT"], "text": "ola", "translation": "x"},
        {"target": "PT-PT", "text": "ola", "translation": None},
    ])
    def test_malformed_lines_are_skipped(self, tmp_path, line):
        (tmp_path / "mt").mkdir()
        (tmp_path / "mt" / "cache.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
        assert TranslationCache(tmp_path / "mt").get("ola", "PT-PT") is None

    def test_load_keeps_only_the_given_texts(self, tmp_path):
        cache = TranslationCache(tmp_path / "mt")
        cache.put([("um", "um-pt"), ("dois", "dois-pt"), ("tres", "tres-pt")], "PT-PT")
        cache.put([("dois", "dois-br")], "PT-BR")
        bounded = TranslationCache(tmp_path / "mt", texts=["dois", "quatro"])
        assert bounded._entries == {
            "PT-PT": {_digest("dois"): "dois-pt"}, "PT-BR": {_digest("dois"): "dois-br"},
        }
        assert bounded.get("dois", "PT-BR") == "dois-br"
        assert bounded.get("um", "PT-PT") is None  # in the log, outside the input

    def test_one_fsync_per_batch(self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
        texts = [f"texto {i}" for i in range(120)]
        cache = TranslationCache(tmp_path / "mt")
        outcome = translate_dataset(texts, "PT-PT", ScriptedClient(), cache=cache, batch_size=50)
        assert outcome.requests_issued == 3
        assert len(fsyncs) == 3
        lines = (tmp_path / "mt" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 120
        reopened = TranslationCache(tmp_path / "mt")
        assert [reopened.get(t, "PT-PT") for t in texts] == list(outcome.translations)

    def test_finished_batches_cached_before_auth_abort(self, tmp_path):
        # two batches are paid for, then the key is rejected on the third
        texts = ["um", "dois", "tres", "quatro", "cinco", "seis"]
        client = ScriptedClient(auth_fail_from_call=3)
        with pytest.raises(AuthenticationError):
            translate_dataset(texts, "PT-PT", client, batch_size=2,
                              cache=TranslationCache(tmp_path / "mt"), sleep=no_sleep)
        reopened = TranslationCache(tmp_path / "mt")
        assert [reopened.get(t, "PT-PT") for t in texts] == [
            "[PT-PT] um", "[PT-PT] dois", "[PT-PT] tres", "[PT-PT] quatro", None, None,
        ]


    def test_killed_run_keeps_every_finished_batch(self, tmp_path):
        # the client hangs in the third of three batches until the run is
        # SIGKILLed, so nothing after the first two batches gets to run
        marker = tmp_path / "third-call"
        code = (
            "import pathlib, threading\n"
            "from lusokit.translate import TranslationCache, translate_dataset\n"
            "class Client:\n"
            "    calls = 0\n"
            "    def translate_batch(self, texts, target):\n"
            "        self.calls += 1\n"
            "        if self.calls == 3:\n"
            f"            pathlib.Path({str(marker)!r}).touch()\n"
            "            threading.Event().wait()\n"
            "        return [t.upper() for t in texts]\n"
            "texts = [f'texto {i}' for i in range(9)]\n"
            f"cache = TranslationCache({str(tmp_path / 'mt')!r})\n"
            "translate_dataset(texts, 'PT-PT', Client(), cache=cache, batch_size=3)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen([sys.executable, "-c", code], env=env)
        try:
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert child.poll() is None, "the run ended before its third request"
                assert time.monotonic() < deadline, "the third request never came"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        reopened = TranslationCache(tmp_path / "mt")
        hits = [reopened.get(f"texto {i}", "PT-PT") for i in range(9)]
        assert hits == [f"TEXTO {i}" for i in range(6)] + [None] * 3


def requests_for(batch, poison):
    """Requests one batch costs with one worker and no transient failures:
    one, plus both halves' when it holds poison and more than one text."""
    if len(batch) > 1 and any(text in poison for text in batch):
        mid = len(batch) // 2
        return 1 + requests_for(batch[:mid], poison) + requests_for(batch[mid:], poison)
    return 1


class TestTranslateProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(st.one_of(st.just(""), st.text(max_size=4)), max_size=24),
        data=st.data(),
        batch_size=st.integers(1, 8),
        max_workers=st.integers(1, 3),
    )
    def test_poison_isolated_and_requests_counted(self, texts, data, batch_size, max_workers):
        sent = sorted({text for text in texts if text})
        poison = set(data.draw(st.lists(st.sampled_from(sent), unique=True)) if sent else [])
        outcomes = []
        for workers in (1, max_workers):
            client = ScriptedClient(permanent_texts=poison)
            outcome = translate_dataset(
                texts, "PT-PT", client, batch_size=batch_size,
                max_workers=workers, sleep=no_sleep,
            )
            assert outcome.requests_issued == len(client.calls)
            outcomes.append(outcome)
        serial, parallel = outcomes
        assert parallel == serial
        rejected = [i for i, text in enumerate(texts) if text in poison]
        assert serial.rejects == tuple(
            (i, f"cannot translate {texts[i]!r}") for i in rejected
        )
        assert serial.translations == tuple(
            None if text in poison else (f"[PT-PT] {text}" if text else "")
            for text in texts
        )
        pending = list(dict.fromkeys(text for text in texts if text))  # each text sent once
        batches = [pending[i : i + batch_size] for i in range(0, len(pending), batch_size)]
        assert serial.requests_issued == sum(requests_for(b, poison) for b in batches)


CACHE_TEXTS = ["", "ola", "adeus", "até logo", "bom dia", "veneno"]
CACHE_POISON = {"veneno"}


class TestCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(st.tuples(
        st.lists(st.sampled_from(CACHE_TEXTS), max_size=8),
        st.sampled_from(["PT-PT", "PT-BR"]),
        st.booleans(),  # reopen the cache before this call
        st.none() | st.lists(st.sampled_from(CACHE_TEXTS), max_size=4),  # texts= of a reopen
        st.integers(1, 3),  # batch_size
    ), max_size=6))
    def test_calls_match_a_dict_oracle(self, calls):
        with tempfile.TemporaryDirectory() as work:
            directory = Path(work) / "mt"
            durable = {}  # (target, text) -> translation: what the log holds
            cache = loaded = None  # the open cache and what it holds
            for texts, target, reopen, only, batch_size in calls:
                if cache is None or reopen:
                    cache = TranslationCache(directory, texts=only)
                    loaded = {k: v for k, v in durable.items() if only is None or k[1] in only}
                client = ScriptedClient(permanent_texts=CACHE_POISON)
                outcome = translate_dataset(texts, target, client, cache=cache,
                                            batch_size=batch_size, sleep=no_sleep)
                pending = [t for t in dict.fromkeys(texts) if t and (target, t) not in loaded]
                batches = [pending[i : i + batch_size] for i in range(0, len(pending), batch_size)]
                assert outcome.requests_issued == sum(requests_for(b, CACHE_POISON) for b in batches)
                for text in pending:
                    if text not in CACHE_POISON:
                        durable[(target, text)] = loaded[(target, text)] = f"[{target}] {text}"
                assert outcome.translations == tuple(
                    "" if not t else loaded.get((target, t)) for t in texts
                )
                assert [i for i, _ in outcome.rejects] == [
                    i for i, t in enumerate(texts) if t in CACHE_POISON
                ]
            log = directory / "cache.jsonl"
            lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
            assert all(set(json.loads(line)) == {"target", "digest", "translation"}
                       for line in lines)
            reopened = TranslationCache(directory)
            for target in ("PT-PT", "PT-BR"):
                for text in CACHE_TEXTS:
                    assert reopened.get(text, target) == durable.get((target, text))


class TestWorkers:
    def test_parallel_batches_produce_same_result(self):
        texts = [f"texto {i}" for i in range(20)]
        serial = translate_dataset(texts, "PT-PT", ScriptedClient(), batch_size=4, sleep=no_sleep)
        parallel = translate_dataset(
            texts, "PT-PT", ScriptedClient(), batch_size=4, max_workers=4, sleep=no_sleep
        )
        assert serial.translations == parallel.translations
        assert serial.requests_issued == parallel.requests_issued
