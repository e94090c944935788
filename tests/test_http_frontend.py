"""HTTP + SSE frontend tests: endpoints, validation, streams, drain.

Drives the real asyncio server over loopback sockets (no test client
shims): each case boots :class:`~repro.serving.http.HttpServer` on an
ephemeral port, speaks raw HTTP/1.1, and checks

- the OpenAI completions shape (non-streaming and SSE) returns exactly
  the tokens a direct :class:`SpeContextServer` run produces;
- typed validation failures surface as structured 4xx bodies with
  stable ``code`` values;
- ``/healthz`` tracks worker quarantine (ok -> degraded -> 503);
- graceful drain finishes in-flight requests before exiting.

No pytest-asyncio: every test wraps its coroutine in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    EngineConfig,
    GenerationRequest,
    SamplingParams,
)
from repro.serving.engine import InProcessExecutor, MultiprocExecutor
from repro.serving.http import (
    AsyncEngine,
    HttpServer,
    parse_completion_body,
    serve_async,
)
from repro.serving.server import SpeContextServer


def engine_config(tokenizer, **overrides) -> EngineConfig:
    defaults = dict(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=8,
        seed=0,
        block_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def filler_prompt(tokenizer, n: int = 20, seed: int = 5) -> list[int]:
    rng = np.random.default_rng(seed)
    return [tokenizer.bos_id] + [
        int(t) for t in tokenizer.random_filler_ids(rng, n)
    ]


@contextlib.asynccontextmanager
async def running_server(model, tokenizer, n_workers: int = 2):
    executor = InProcessExecutor(
        model,
        engine_config(tokenizer),
        ClusterConfig(n_replicas=n_workers, router="round_robin"),
    )
    server = HttpServer(AsyncEngine(executor), tokenizer)
    await server.start("127.0.0.1", 0)
    try:
        yield server, server.addresses[0][1]
    finally:
        await server.stop()
        await server.engine.close()


async def raw_request(port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    response = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
        await writer.wait_closed()
    return response


def http_payload(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def split_response(response: bytes) -> tuple[int, bytes]:
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


async def request_json(port: int, method: str, path: str, obj=None):
    body = json.dumps(obj).encode() if obj is not None else b""
    status, payload = split_response(
        await raw_request(port, http_payload(method, path, body))
    )
    return status, json.loads(payload)


def sse_chunks(body: bytes) -> list:
    chunks = []
    for block in body.split(b"\n\n"):
        if not block.startswith(b"data: "):
            continue
        data = block[len(b"data: "):]
        chunks.append(None if data == b"[DONE]" else json.loads(data))
    return chunks


def solo_tokens(model, tokenizer, prompt: list[int], max_new: int) -> list[int]:
    """Ground truth: the same request on a bare single server."""
    server = SpeContextServer(model, engine_config(tokenizer))
    server.add_request(GenerationRequest(
        np.asarray(prompt, dtype=np.int64),
        sampling=SamplingParams(
            max_new_tokens=max_new, stop_ids=(tokenizer.eos_id,)
        ),
    ))
    [output] = server.run()
    return list(output.token_ids)


def step_fails_once(kind, abort_fails: bool = False):
    """``kind`` whose worker 0 raises out of one wave, taken once two
    requests are in flight (one per worker under round-robin); until
    then it steps nothing, so both are caught by the failure. With
    ``abort_fails`` each worker's next abort raises as well. Needs the
    ``worker_faults`` fixture."""

    class StepFailsOnce(kind):
        armed = True

        def step(self):
            if self.armed:
                if len(self._inflight) < 2:
                    return []
                self.armed = False
                self._handles[0].call("fail_next", "step")
                if abort_fails:
                    for handle in self._handles:
                        handle.call("fail_next", "abort")
            return super().step()

    return StepFailsOnce


# ---- endpoints ---------------------------------------------------------------


class TestEndpoints:
    def test_models_healthz_stats(self, tiny_gqa_model, tiny_tokenizer):
        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (server, port):
                status, models = await request_json(port, "GET", "/v1/models")
                assert status == 200
                assert models["data"][0]["id"] == server.model_name
                status, health = await request_json(port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert [w["alive"] for w in health["workers"]] == [True, True]
                status, stats = await request_json(port, "GET", "/stats")
                assert status == 200
                assert stats["executor"] == "inproc"
                assert stats["inflight"] == 0
                assert stats["routing"]["routed"] == [0, 0]
                status, error = await request_json(port, "GET", "/nope")
                assert status == 404
                assert error["error"]["code"] == "not_found"
        asyncio.run(scenario())

    def test_completion_matches_direct_server(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt = filler_prompt(tiny_tokenizer)
        expected = solo_tokens(tiny_gqa_model, tiny_tokenizer, prompt, 6)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                status, body = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 6},
                )
                assert status == 200
                assert body["object"] == "text_completion"
                [choice] = body["choices"]
                assert choice["token_ids"] == expected
                assert choice["text"] == tiny_tokenizer.decode(expected)
                assert choice["finish_reason"] in ("stop", "length")
                assert body["usage"] == {
                    "prompt_tokens": len(prompt),
                    "completion_tokens": len(expected),
                    "total_tokens": len(prompt) + len(expected),
                }
        asyncio.run(scenario())

    def test_string_prompt_roundtrips_the_tokenizer(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt_ids = filler_prompt(tiny_tokenizer, n=12)[1:]  # no bos token
        text = tiny_tokenizer.decode(prompt_ids)
        request, stream, _ = parse_completion_body(
            json.dumps({"prompt": text}).encode(), tiny_tokenizer
        )
        assert list(request.prompt_ids) == prompt_ids
        assert stream is False

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                status, body = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": text, "max_tokens": 4},
                )
                assert status == 200
                assert len(body["choices"][0]["token_ids"]) <= 4
        asyncio.run(scenario())

    def test_streaming_sse_bit_matches_nonstreaming(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt = filler_prompt(tiny_tokenizer, seed=9)
        expected = solo_tokens(tiny_gqa_model, tiny_tokenizer, prompt, 5)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                body = json.dumps({
                    "prompt": prompt, "max_tokens": 5, "stream": True,
                }).encode()
                response = await raw_request(
                    port, http_payload("POST", "/v1/completions", body)
                )
                assert b"text/event-stream" in response
                chunks = sse_chunks(response.split(b"\r\n\r\n", 1)[1])
                assert chunks[-1] is None  # [DONE] sentinel closes
                *tokens, final, _ = chunks
                streamed = [
                    t for c in tokens for t in c["choices"][0]["token_ids"]
                ]
                assert streamed == expected
                assert final["choices"][0]["finish_reason"] in (
                    "stop", "length"
                )
                text = "".join(c["choices"][0]["text"] for c in tokens)
                assert text == tiny_tokenizer.decode(expected)
        asyncio.run(scenario())

    def test_concurrent_streams_interleave(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompts = [filler_prompt(tiny_tokenizer, seed=s) for s in (21, 22, 23)]
        expected = [
            solo_tokens(tiny_gqa_model, tiny_tokenizer, p, 4) for p in prompts
        ]

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                responses = await asyncio.gather(*(
                    request_json(
                        port, "POST", "/v1/completions",
                        {"prompt": p, "max_tokens": 4},
                    )
                    for p in prompts
                ))
                for (status, body), tokens in zip(responses, expected):
                    assert status == 200
                    assert body["choices"][0]["token_ids"] == tokens
        asyncio.run(scenario())


# ---- validation --------------------------------------------------------------


BAD_BODIES = (
    (b"{not json", "invalid_json"),
    (b'"just a string"', "invalid_json"),
    (
        json.dumps({"prompt": [1, 2], "max_tokenz": 4}).encode(),
        "unknown_field",
    ),
    (json.dumps({"prompt": 42}).encode(), "invalid_prompt"),
    (json.dumps({"prompt": [1, 2.5]}).encode(), "invalid_prompt"),
    (json.dumps({"prompt": ""}).encode(), "empty_prompt"),
    (json.dumps({"prompt": "   "}).encode(), "empty_prompt"),
    (
        json.dumps({"prompt": [1, 2], "max_tokens": 0}).encode(),
        "invalid_sampling_params",
    ),
    (
        json.dumps({"prompt": [1, 2], "temperature": -1}).encode(),
        "invalid_sampling_params",
    ),
    # The json module parses the NaN/Infinity literals, so a non-finite
    # temperature reaches SamplingParams and must be refused there.
    (b'{"prompt": [5, 6, 7], "temperature": NaN}', "invalid_sampling_params"),
    (
        b'{"prompt": [5, 6, 7], "temperature": Infinity}',
        "invalid_sampling_params",
    ),
    (
        json.dumps({"prompt": [1, 2], "top_p": 0}).encode(),
        "invalid_sampling_params",
    ),
    (
        json.dumps({"prompt": [1, 2], "max_tokens": "lots"}).encode(),
        "invalid_type",
    ),
    (
        json.dumps({"prompt": [1, 2], "stream": "yes"}).encode(),
        "invalid_type",
    ),
)


class TestValidation:
    def test_structured_4xx_codes(self, tiny_gqa_model, tiny_tokenizer):
        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                for body, code in BAD_BODIES:
                    status, payload = split_response(await raw_request(
                        port, http_payload("POST", "/v1/completions", body)
                    ))
                    error = json.loads(payload)["error"]
                    assert status == 400, (body, payload)
                    assert error["code"] == code, (body, error)
                    assert error["type"] == "invalid_request_error"
                # Worker-side rejection carries its typed code too.
                status, payload = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": [1, 2, 3], "policy": "not-a-policy"},
                )
                assert status == 400
                assert payload["error"]["code"] == "unknown_policy"
                # None of the rejections took the engine down.
                status, payload = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": filler_prompt(tiny_tokenizer), "max_tokens": 2},
                )
                assert status == 200, payload
        asyncio.run(scenario())

    def test_error_wire_bytes(self, tiny_gqa_model, tiny_tokenizer):
        """One 4xx response and one SSE error chunk, byte for byte."""
        stream_body = json.dumps({
            "prompt": filler_prompt(tiny_tokenizer), "max_tokens": 4,
            "stream": True, "total_deadline_s": 1.5,
        }).encode()

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                rejected = await raw_request(port, http_payload(
                    "POST", "/v1/completions", b'{"prompt": ""}'
                ))
                streamed = await raw_request(port, http_payload(
                    "POST", "/v1/completions", stream_body
                ))
            return rejected, streamed

        rejected, streamed = asyncio.run(scenario())
        assert rejected == (
            b"HTTP/1.1 400 Bad Request\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 129\r\n"
            b"Connection: close\r\n\r\n"
            b'{"error": {"message": "prompt_ids must be a non-empty 1-D '
            b'token array", "type": "invalid_request_error", '
            b'"code": "empty_prompt"}}'
        )
        *_, error_block, done, tail = streamed.split(b"\n\n")
        assert (done, tail) == (b"data: [DONE]", b"")
        assert error_block == (
            b'data: {"id": "cmpl-0", "object": "text_completion", '
            b'"model": "specontext-repro", "error": {"message": "request 0 '
            b"missed its total deadline (1.5 on the step clock; arrived at "
            b'0, cancelled at 1)", "type": "timeout_error", '
            b'"code": "deadline_exceeded"}, "choices": [{"index": 0, '
            b'"text": "", "token_ids": [], '
            b'"finish_reason": "deadline_exceeded"}]}'
        )

    def test_collected_error_wire_bytes(self, tiny_gqa_model, tiny_tokenizer):
        """A non-streamed request that fails after admission answers with
        the same error object an SSE chunk carries, byte for byte."""
        body = json.dumps({
            "prompt": filler_prompt(tiny_tokenizer), "max_tokens": 4,
            "total_deadline_s": 1.5,
        }).encode()

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                return await raw_request(port, http_payload(
                    "POST", "/v1/completions", body
                ))

        assert asyncio.run(scenario()) == (
            b"HTTP/1.1 504 Gateway Timeout\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 169\r\n"
            b"Connection: close\r\n\r\n"
            b'{"error": {"message": "request 0 missed its total deadline '
            b"(1.5 on the step clock; arrived at 0, cancelled at 1)\", "
            b'"type": "timeout_error", "code": "deadline_exceeded"}}'
        )

    def test_out_of_vocabulary_prompt_rejected(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """An id past the vocabulary is a 400 from the worker's
        validation, not an exception out of the step loop: the next valid
        completion still succeeds."""
        prompt = filler_prompt(tiny_tokenizer)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                for bad in ([1, 40, 999999, 41], [1, -1]):
                    status, payload = await request_json(
                        port, "POST", "/v1/completions", {"prompt": bad}
                    )
                    assert status == 400, payload
                    assert payload["error"]["code"] == "invalid_prompt"
                    assert payload["error"]["type"] == "invalid_request_error"
                status, payload = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 3},
                )
                assert status == 200
                assert len(payload["choices"][0]["token_ids"]) == 3
        asyncio.run(scenario())

    def test_oversized_and_malformed_requests(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                status, payload = split_response(await raw_request(
                    port,
                    b"POST /v1/completions HTTP/1.1\r\n"
                    b"Content-Length: 99999999\r\n\r\n",
                ))
                assert status == 413
                status, payload = split_response(await raw_request(
                    port,
                    b"POST /v1/completions HTTP/1.1\r\n"
                    b"Content-Length: -1\r\n\r\n",
                ))
                assert status == 400, payload
                assert json.loads(payload)["error"]["code"] == "bad_request"
                status, payload = split_response(
                    await raw_request(port, b"GARBAGE\r\n\r\n")
                )
                assert status == 400
                # One line past asyncio's 64 KiB stream limit, as the
                # request line and as a header line.
                long = b"x" * (64 * 1024 + 1)
                for raw in (
                    b"GET /" + long + b" HTTP/1.1\r\n\r\n",
                    b"GET /healthz HTTP/1.1\r\nX-Pad: " + long + b"\r\n\r\n",
                ):
                    status, payload = split_response(
                        await raw_request(port, raw)
                    )
                    assert status == 431, payload
                    error = json.loads(payload)["error"]
                    assert error["code"] == "headers_too_large"
                # Far past the limit the client is still sending when the
                # answer goes out; it must still read the 431, not a reset.
                for size in (300 * 1024, 2 * 1024 * 1024):
                    response = await raw_request(
                        port, b"GET /" + b"x" * size + b" HTTP/1.1\r\n\r\n"
                    )
                    assert response.startswith(b"HTTP/1.1 431"), size
        asyncio.run(scenario())

    def test_last_ditch_error_is_a_typed_500(
        self, tiny_gqa_model, tiny_tokenizer, monkeypatch, capsys
    ):
        """An exception no handler maps answers 500 with a matching
        ``server_error`` body, whatever its Python type, and its
        traceback goes to stderr."""
        async def broken_route(self, writer, method, path, body):
            raise ValueError("route bug")

        monkeypatch.setattr(HttpServer, "_route", broken_route)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                status, payload = await request_json(port, "GET", "/healthz")
                assert status == 500
                assert payload["error"]["type"] == "server_error"
                assert payload["error"]["code"] == "internal_error"
        asyncio.run(scenario())
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "route bug" in err

    def test_last_ditch_error_wire_bytes(
        self, tiny_gqa_model, tiny_tokenizer, monkeypatch
    ):
        """The last-ditch 500 goes out through the same writer as every
        mapped error: same headers, same body layout."""
        async def broken_route(self, writer, method, path, body):
            raise RuntimeError("route bug")

        monkeypatch.setattr(HttpServer, "_route", broken_route)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (_, port):
                return await raw_request(port, http_payload("GET", "/healthz"))

        assert asyncio.run(scenario()) == (
            b"HTTP/1.1 500 Internal Server Error\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 101\r\n"
            b"Connection: close\r\n\r\n"
            b'{"error": {"message": "internal error: route bug", '
            b'"type": "server_error", "code": "internal_error"}}'
        )


# ---- health + lifecycle ------------------------------------------------------


class TestLifecycle:
    def test_health_degrades_with_worker_deaths(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (server, port):
                engine = server.engine
                await engine.call(engine.executor.kill_worker, 0)
                status, health = await request_json(port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "degraded"
                assert [w["alive"] for w in health["workers"]] == [
                    False, True,
                ]
                await engine.call(engine.executor.kill_worker, 1)
                status, health = await request_json(port, "GET", "/healthz")
                assert status == 503
                assert health["status"] == "dead"
                status, payload = await request_json(
                    port, "POST", "/v1/completions", {"prompt": [1, 2]}
                )
                assert status == 503
                assert payload["error"]["code"] == "engine_unavailable"
        asyncio.run(scenario())

    def test_client_disconnect_aborts_request(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt = filler_prompt(tiny_tokenizer)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer
            ) as (server, port):
                body = json.dumps({
                    "prompt": prompt, "max_tokens": 512, "stream": True,
                }).encode()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(http_payload("POST", "/v1/completions", body))
                await writer.drain()
                await reader.readuntil(b"\n\n")  # first SSE frame arrived
                writer.close()  # hang up mid-stream
                with contextlib.suppress(
                    ConnectionResetError, BrokenPipeError
                ):
                    await writer.wait_closed()
                engine = server.engine
                for _ in range(200):
                    inflight = await engine.call(
                        lambda: len(engine.executor._inflight)
                    )
                    if inflight == 0:
                        break
                    await asyncio.sleep(0.05)
                assert inflight == 0  # aborted well before 512 tokens
        asyncio.run(scenario())

    @pytest.mark.parametrize("abort_fails", (False, True))
    @pytest.mark.parametrize("kind", (InProcessExecutor, MultiprocExecutor))
    def test_step_failure_answers_500_and_keeps_serving(
        self, tiny_gqa_model, tiny_tokenizer, worker_faults, kind, abort_fails
    ):
        prompt = filler_prompt(tiny_tokenizer, seed=23)
        expected = solo_tokens(tiny_gqa_model, tiny_tokenizer, prompt, 4)
        stream_body = json.dumps({
            "prompt": prompt, "max_tokens": 4, "stream": True,
        }).encode()

        async def scenario():
            executor = step_fails_once(kind, abort_fails)(
                tiny_gqa_model,
                engine_config(tiny_tokenizer),
                ClusterConfig(n_replicas=2, router="round_robin"),
            )
            server = HttpServer(AsyncEngine(executor), tiny_tokenizer)
            await server.start("127.0.0.1", 0)
            port = server.addresses[0][1]
            try:
                (status, body), streamed = await asyncio.wait_for(
                    asyncio.gather(
                        request_json(port, "POST", "/v1/completions", {
                            "prompt": prompt, "max_tokens": 4,
                        }),
                        raw_request(port, http_payload(
                            "POST", "/v1/completions", stream_body
                        )),
                    ),
                    timeout=30,
                )
                assert status == 500
                assert body["error"]["code"] == "internal_error"
                assert body["error"]["type"] == "server_error"
                status, raw = split_response(streamed)
                assert status == 200  # headers went out before the failure
                *_, error_chunk, done = sse_chunks(raw)
                assert error_chunk["error"]["code"] == "internal_error"
                assert done is None
                assert not executor.has_unfinished  # both were aborted
                # The loop survived: the next request is served normally.
                status, body = await asyncio.wait_for(
                    request_json(port, "POST", "/v1/completions", {
                        "prompt": prompt, "max_tokens": 4,
                    }),
                    timeout=30,
                )
                assert status == 200
                assert body["choices"][0]["token_ids"] == expected
            finally:
                # A dead engine loop leaves handlers blocked; do not let
                # cleanup wait on them.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(server.stop(), timeout=5)
                with contextlib.suppress(RuntimeError):
                    await server.engine.close()
        asyncio.run(scenario())

    def test_graceful_drain_finishes_inflight_work(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt = filler_prompt(tiny_tokenizer, seed=17)
        expected = solo_tokens(tiny_gqa_model, tiny_tokenizer, prompt, 8)

        async def scenario():
            executor = InProcessExecutor(
                tiny_gqa_model,
                engine_config(tiny_tokenizer),
                ClusterConfig(n_replicas=2, router="round_robin"),
            )
            server = HttpServer(AsyncEngine(executor), tiny_tokenizer)
            stop, ready = asyncio.Event(), asyncio.Event()
            task = asyncio.create_task(serve_async(
                server, "127.0.0.1", 0, stop=stop, ready=ready,
                install_signal_handlers=False,
            ))
            await ready.wait()
            port = server.addresses[0][1]
            request = asyncio.create_task(request_json(
                port, "POST", "/v1/completions",
                {"prompt": prompt, "max_tokens": 8},
            ))
            while not executor.has_unfinished:  # request must be in flight
                await asyncio.sleep(0.01)
            stop.set()
            status, body = await request
            assert status == 200
            assert body["choices"][0]["token_ids"] == expected
            await asyncio.wait_for(task, timeout=30)
            assert server.engine.accepting is False
        asyncio.run(scenario())

    def test_drain_does_not_wait_for_an_idle_connection(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A client that connects and never sends must not hold the
        drain open (``wait_closed`` waits for every connection from
        Python 3.12 on)."""
        async def scenario():
            executor = InProcessExecutor(
                tiny_gqa_model,
                engine_config(tiny_tokenizer),
                ClusterConfig(n_replicas=1, router="round_robin"),
            )
            server = HttpServer(AsyncEngine(executor), tiny_tokenizer)
            stop, ready = asyncio.Event(), asyncio.Event()
            task = asyncio.create_task(serve_async(
                server, "127.0.0.1", 0, stop=stop, ready=ready,
                install_signal_handlers=False,
            ))
            await ready.wait()
            port = server.addresses[0][1]
            _, idle = await asyncio.open_connection("127.0.0.1", port)
            try:
                await asyncio.sleep(0.05)  # the handler is now reading
                stop.set()
                await asyncio.wait_for(task, timeout=5)
            finally:
                idle.close()
        asyncio.run(scenario())
