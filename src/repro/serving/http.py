"""OpenAI-style HTTP + SSE frontend over the process-parallel engine.

Stdlib-only (``asyncio`` + ``json``): a minimal HTTP/1.1 server
(:class:`HttpServer`) in front of an :class:`AsyncEngine`, which owns
the executor and serializes every executor interaction through one
background task (the executor is not thread-safe; blocking calls run
via ``asyncio.to_thread`` but never concurrently).

Endpoints:

- ``POST /v1/completions`` — OpenAI completions shape. ``prompt`` is a
  string (closed-vocabulary whitespace tokenization) or a token-id
  list; ``stream: true`` answers ``text/event-stream`` with one
  ``data:`` JSON chunk per generated token and a final ``data: [DONE]``
  sentinel. Validation failures answer structured 4xx bodies
  (``{"error": {"message", "type", "code"}}``) using the typed errors
  from :mod:`repro.api.errors`; body fields outside
  ``COMPLETION_REQUEST_FIELDS`` are rejected with a 400
  (``unknown_field``) rather than silently dropped.
- ``GET /v1/models`` — the single served model.
- ``GET /healthz`` — ``ok`` (all workers live), ``degraded`` (some
  quarantined; still 200), or 503 once no worker survives; reports
  ``shedding`` when any worker's admission policy is rejecting load.
- ``GET /stats`` — merged meter, routing and per-worker gauges; stays
  responsive (reporting ``degraded``) while a worker is quarantined.

Overload and deadline failures map to typed statuses: admission
rejections answer 429 with a ``Retry-After`` header, draining answers
503 (also with ``Retry-After``), and requests cancelled by their own
``ttft_deadline_s``/``total_deadline_s`` answer 408/504 (non-stream)
or a final structured error chunk before ``data: [DONE]`` (stream).

Graceful drain: SIGTERM/SIGINT stops accepting connections, finishes
every in-flight request, then exits — streaming clients see their
completions run to the end.

Every response carries ``Connection: close`` (one request per
connection keeps the parser honest and the tests simple).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
import traceback
from collections import deque

import numpy as np

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.errors import EngineUnavailableError
from repro.api.request import GenerationRequest
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.serving.engine import ExecutorBase, make_executor
from repro.serving.server import RequestFailure

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
# How long a request rejected before it was fully read keeps draining the
# client's input after the answer, so closing does not reset the answer away.
_LINGER_S = 2.0


# ---- async engine ------------------------------------------------------------


class AsyncEngine:
    """Single-writer async facade over an executor.

    All executor access funnels through one background task: pending
    commands (submissions, aborts, introspection calls) are applied
    between steps, then one :meth:`ExecutorBase.step` wave runs and its
    stream events are fanned out to per-request ``asyncio.Queue``s. The
    task sleeps on an event while idle and wakes on the next command.
    """

    def __init__(self, executor: ExecutorBase):
        self.executor = executor
        self._commands: deque = deque()
        self._queues: dict[int, asyncio.Queue] = {}
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._stopping = False
        self.accepting = True

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.create_task(self._loop(), name="engine-loop")

    async def submit(
        self, request: GenerationRequest
    ) -> tuple[int, asyncio.Queue]:
        """Submit one request; returns its global id and event queue.

        The queue yields ``("token", StreamEvent)`` items followed by one
        ``("done", GenerationOutput)``. Raises the executor's validation
        errors unchanged.
        """
        if not self.accepting:
            raise EngineUnavailableError(
                "server is draining; new requests are not accepted"
            )
        return await self._enqueue("submit", request)

    async def call(self, fn, *args):
        """Run ``fn(*args)`` serialized with the engine's executor use."""
        return await self._enqueue("call", (fn, args))

    async def abort(self, request_id: int) -> bool:
        return await self._enqueue("call", (self._abort_sync, (request_id,)))

    def _abort_sync(self, request_id: int) -> bool:
        self._queues.pop(request_id, None)
        return self.executor.abort(request_id)

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, release the workers."""
        self.accepting = False
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        await asyncio.to_thread(self.executor.shutdown)

    async def close(self) -> None:
        """Hard stop: cancel the loop and kill the workers."""
        self.accepting = False
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        await asyncio.to_thread(self.executor.shutdown)

    async def _enqueue(self, kind: str, payload):
        fut = asyncio.get_running_loop().create_future()
        self._commands.append((kind, payload, fut))
        self._wake.set()
        return await fut

    async def _loop(self) -> None:
        executor = self.executor
        while True:
            while self._commands:
                kind, payload, fut = self._commands.popleft()
                try:
                    if kind == "submit":
                        gid = await asyncio.to_thread(
                            executor.add_request, payload
                        )
                        queue: asyncio.Queue = asyncio.Queue()
                        self._queues[gid] = queue
                        result = (gid, queue)
                    else:
                        fn, args = payload
                        result = await asyncio.to_thread(fn, *args)
                except Exception as err:
                    if not fut.cancelled():
                        fut.set_exception(err)
                else:
                    if not fut.cancelled():
                        fut.set_result(result)
            if executor.has_unfinished:
                try:
                    finished, events, failures = await asyncio.to_thread(
                        self._step_sync
                    )
                except Exception as err:
                    # The loop is the one boundary every request waits on:
                    # report the fault, answer its requests, keep serving.
                    traceback.print_exception(err)
                    finished, events = [], []
                    failures = await asyncio.to_thread(
                        self._fail_inflight, err
                    )
                self._dispatch(finished, events, failures)
                continue
            if self._stopping:
                break
            self._wake.clear()
            if self._commands or executor.has_unfinished:
                continue
            await self._wake.wait()

    def _step_sync(self):
        finished = self.executor.step()
        return (
            finished,
            self.executor.pop_stream_events(),
            self.executor.pop_failures(),
        )

    def _fail_inflight(self, err: Exception) -> list[RequestFailure]:
        """End every waiting request with a typed 500 after a failed step.

        The step's results are lost (what the healthy workers merged is
        dropped with them), so each request a client still waits on is
        aborted on the executor and answered with ``internal_error``
        instead of hanging; the loop keeps serving.
        """
        self.executor.pop_stream_events()
        self.executor.pop_failures()
        failures = []
        for gid in list(self._queues):
            try:
                self.executor.abort(gid)
            except Exception:
                # The executor forgets the request either way; the
                # client is answered below.
                traceback.print_exc()
            failures.append(RequestFailure(
                request_id=gid,
                code="internal_error",
                message=f"internal error: {err}",
                http_status=500,
                clock=self.executor.clock,
            ))
        return failures

    def _dispatch(self, finished, events, failures=()) -> None:
        for event in events:
            if event.error is not None:
                # Terminal error marker; the typed failure record carries
                # the client-facing story.
                continue
            queue = self._queues.get(event.request_id)
            if queue is not None:
                queue.put_nowait(("token", event))
        for output in finished:
            queue = self._queues.pop(output.request_id, None)
            if queue is not None:
                queue.put_nowait(("done", output))
        for failure in failures:
            queue = self._queues.pop(failure.request_id, None)
            if queue is not None:
                queue.put_nowait(("error", failure))


# ---- request parsing / validation --------------------------------------------

# The complete ``/v1/completions`` request vocabulary. Unknown fields are
# rejected with a structured 400 (OpenAI's "unrecognized argument"
# behavior) instead of being silently dropped, so client typos surface
# immediately. The invariant linter (repro.analysis, schema pass) keeps
# this set in lockstep with the fields ``parse_completion_body`` reads
# and the response shapes with the committed schema table.
COMPLETION_REQUEST_FIELDS = frozenset({
    "budget",
    "max_tokens",
    "model",
    "policy",
    "priority",
    "prompt",
    "seed",
    "stream",
    "temperature",
    "top_p",
    "total_deadline_s",
    "ttft_deadline_s",
})


def _error_type_for(status: int) -> str:
    if status == 429:
        return "overloaded_error"
    if status in (408, 504):
        return "timeout_error"
    if status >= 500:
        return "server_error"
    if status == 400:
        return "invalid_request_error"
    # Unknown 4xx: client fault by default. The invariant linter
    # (repro.analysis, error-contract pass) keeps the arms above in
    # lockstep with the http_status values api/errors.py declares.
    return "invalid_request_error"


class _HttpError(Exception):
    """Maps straight to one structured error response; the body's
    ``type`` follows from the status (``_error_type_for``)."""

    def __init__(self, status: int, message: str, code: str,
                 headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code
        self.headers = dict(headers or {})

    @classmethod
    def from_exception(cls, err: Exception) -> "_HttpError":
        status = getattr(err, "http_status", None)
        code = getattr(err, "code", None)
        message = getattr(err, "message", None) or str(err)
        headers = {}
        retry_after = getattr(err, "retry_after_s", None)
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        if status is None:
            if isinstance(err, (ValueError, KeyError, TypeError)):
                status, code = 400, code or "invalid_request_error"
            else:
                return cls(500, f"internal error: {err}", "internal_error")
        return cls(status, message, code or "invalid_request_error",
                   headers=headers)

    def body(self) -> dict:
        return {
            "error": {
                "message": self.message,
                "type": _error_type_for(self.status),
                "code": self.code,
            }
        }


def _field(body: dict, name: str, types, default):
    value = body.get(name, default)
    if value is default:
        return default
    if not isinstance(value, types) or isinstance(value, bool):
        raise _HttpError(
            400, f"field {name!r} has the wrong type", "invalid_type"
        )
    return value


def parse_completion_body(
    raw: bytes, tokenizer: SyntheticTokenizer
) -> tuple[GenerationRequest, bool, dict]:
    """Decode one ``/v1/completions`` body into a request.

    Returns ``(request, stream, echo_fields)``. Raises :class:`_HttpError`
    (or the typed validation errors, which the caller maps) on bad input.
    """
    try:
        body = json.loads(raw.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise _HttpError(400, f"body is not valid JSON: {err}", "invalid_json")
    if not isinstance(body, dict):
        raise _HttpError(400, "body must be a JSON object", "invalid_json")
    unknown = sorted(set(body) - COMPLETION_REQUEST_FIELDS)
    if unknown:
        raise _HttpError(
            400,
            f"unknown field(s): {', '.join(unknown)}",
            "unknown_field",
        )

    prompt = body.get("prompt")
    if isinstance(prompt, str):
        prompt_ids = tokenizer.encode(prompt)
    elif isinstance(prompt, list) and all(
        isinstance(t, int) and not isinstance(t, bool) for t in prompt
    ):
        prompt_ids = list(prompt)
    else:
        raise _HttpError(
            400,
            "field 'prompt' must be a string or a list of token ids",
            "invalid_prompt",
        )

    ttft_deadline = _field(body, "ttft_deadline_s", (int, float), None)
    total_deadline = _field(body, "total_deadline_s", (int, float), None)
    sampling = SamplingParams(
        max_new_tokens=_field(body, "max_tokens", int, 16),
        temperature=float(_field(body, "temperature", (int, float), 0.0)),
        top_p=float(_field(body, "top_p", (int, float), 1.0)),
        seed=_field(body, "seed", int, None),
        stop_ids=(tokenizer.eos_id,),
        ttft_deadline_s=None if ttft_deadline is None else float(ttft_deadline),
        total_deadline_s=(
            None if total_deadline is None else float(total_deadline)
        ),
    )
    policy = _field(body, "policy", str, None)
    request = GenerationRequest(
        prompt_ids=np.asarray(prompt_ids, dtype=np.int64),
        sampling=sampling,
        policy=policy,
        budget=_field(body, "budget", int, None),
        priority=_field(body, "priority", int, 0),
    )
    stream = body.get("stream", False)
    if not isinstance(stream, bool):
        raise _HttpError(400, "field 'stream' must be a boolean", "invalid_type")
    echo = {"model": _field(body, "model", str, None)}
    return request, stream, echo


# ---- HTTP server -------------------------------------------------------------


class HttpServer:
    """Minimal HTTP/1.1 server over one :class:`AsyncEngine`."""

    def __init__(
        self,
        engine: AsyncEngine,
        tokenizer: SyntheticTokenizer,
        model_name: str = "specontext-repro",
    ):
        self.engine = engine
        self.tokenizer = tokenizer
        self.model_name = model_name
        self._server: asyncio.AbstractServer | None = None
        # Handlers still reading their request: stop() cancels these, so
        # an idle client cannot hold a drain open (from Python 3.12 on,
        # ``wait_closed`` waits for every connection).
        self._reading: set[asyncio.Task] = set()

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server

    @property
    def addresses(self) -> list[tuple[str, int]]:
        assert self._server is not None
        return [s.getsockname()[:2] for s in self._server.sockets]

    async def stop(self) -> None:
        """Stop accepting; requests already read still run to the end."""
        if self._server is not None:
            self._server.close()
            for task in self._reading:
                task.cancel()
            await self._server.wait_closed()
            self._server = None

    # ---- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        reading = asyncio.current_task()
        self._reading.add(reading)
        parsed = None
        try:
            if self._server is not None and not self._server.is_serving():
                return  # accepted just before stop(): never read
            parsed = await self._read_request(reader)
            self._reading.discard(reading)
            if parsed is None:
                return
            method, path, headers, body = parsed
            await self._route(writer, method, path, body)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # stop() before a full request arrived: nothing to answer.
            # Not re-raised: asyncio's connection callback reads
            # task.exception(), which raises (and logs) on a cancelled task.
            pass
        except Exception as err:
            if not isinstance(err, _HttpError):
                # Last-ditch 500; never kill the acceptor, but keep the
                # fault's traceback: the typed body carries only its text.
                traceback.print_exception(err)
                err = _HttpError(500, f"internal error: {err}", "internal_error")
            try:
                await self._send_json(writer, err.status, err.body(),
                                      headers=err.headers)
                if parsed is None:  # rejected mid-read: input may be left
                    await _linger(reader, writer)
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            self._reading.discard(reading)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = await _read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line", "bad_request")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await _read_line(reader)
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _HttpError(431, "headers too large", "headers_too_large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _HttpError(400, "bad Content-Length", "bad_request")
        if length < 0:
            raise _HttpError(400, "bad Content-Length", "bad_request")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "body too large", "body_too_large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(self, writer, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if path == "/v1/completions" and method == "POST":
            await self._handle_completion(writer, body)
        elif path == "/v1/models" and method == "GET":
            await self._send_json(writer, 200, {
                "object": "list",
                "data": [{
                    "id": self.model_name,
                    "object": "model",
                    "owned_by": "repro",
                }],
            })
        elif path == "/healthz" and method == "GET":
            await self._handle_health(writer)
        elif path == "/stats" and method == "GET":
            await self._handle_stats(writer)
        else:
            raise _HttpError(
                404, f"no route for {method} {path}", "not_found"
            )

    # ---- endpoints -------------------------------------------------------------

    async def _handle_completion(self, writer, body: bytes) -> None:
        try:
            request, stream, echo = parse_completion_body(body, self.tokenizer)
        except _HttpError:
            raise
        except Exception as err:
            raise _HttpError.from_exception(err)
        try:
            gid, queue = await self.engine.submit(request)
        except Exception as err:
            raise _HttpError.from_exception(err)
        model_name = echo.get("model") or self.model_name
        if stream:
            await self._stream_completion(writer, gid, queue, model_name)
        else:
            await self._collect_completion(
                writer, gid, queue, model_name, request.prompt_len
            )

    async def _collect_completion(
        self, writer, gid: int, queue: asyncio.Queue, model_name: str,
        prompt_tokens: int,
    ) -> None:
        tokens: list[int] = []
        output = None
        while output is None:
            kind, payload = await queue.get()
            if kind == "token":
                tokens.append(payload.token_id)
            elif kind == "error":
                raise _HttpError(
                    payload.http_status, payload.message, payload.code
                )
            else:
                output = payload
        await self._send_json(writer, 200, {
            "id": f"cmpl-{gid}",
            "object": "text_completion",
            # OpenAI-protocol response metadata, never token state.
            "created": int(time.time()),  # repro: allow(wall-clock): protocol timestamp
            "model": model_name,
            "choices": [{
                "index": 0,
                "text": self.tokenizer.decode(output.token_ids),
                "token_ids": list(output.token_ids),
                "finish_reason": output.finish_reason,
            }],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": output.n_generated,
                "total_tokens": prompt_tokens + output.n_generated,
            },
        })

    async def _stream_completion(
        self, writer, gid: int, queue: asyncio.Queue, model_name: str
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        first = True
        try:
            await writer.drain()
            while True:
                kind, payload = await queue.get()
                if kind == "error":
                    # Headers already went out as 200; the error rides the
                    # stream as a final structured chunk, then the
                    # terminator — clients always see exactly one ending.
                    error = _HttpError(
                        payload.http_status, payload.message, payload.code
                    )
                    chunk = {
                        "id": f"cmpl-{gid}",
                        "object": "text_completion",
                        "model": model_name,
                        "error": error.body()["error"],
                        "choices": [{
                            "index": 0,
                            "text": "",
                            "token_ids": [],
                            "finish_reason": payload.code,
                        }],
                    }
                    writer.write(_sse(chunk))
                    writer.write(b"data: [DONE]\n\n")
                    await writer.drain()
                    return
                if kind == "done":
                    chunk = {
                        "id": f"cmpl-{gid}",
                        "object": "text_completion",
                        "model": model_name,
                        "choices": [{
                            "index": 0,
                            "text": "",
                            "token_ids": [],
                            "finish_reason": payload.finish_reason,
                        }],
                    }
                    writer.write(_sse(chunk))
                    writer.write(b"data: [DONE]\n\n")
                    await writer.drain()
                    return
                piece = self.tokenizer.decode([payload.token_id])
                chunk = {
                    "id": f"cmpl-{gid}",
                    "object": "text_completion",
                    "model": model_name,
                    "choices": [{
                        "index": 0,
                        "text": piece if first else f" {piece}",
                        "token_ids": [payload.token_id],
                        "finish_reason": None,
                    }],
                }
                first = False
                writer.write(_sse(chunk))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # Client went away mid-stream: stop wasting decode steps.
            await self.engine.abort(gid)

    async def _handle_health(self, writer) -> None:
        executor = self.engine.executor

        def snapshot():
            return executor.health(), executor.shedding()

        health, shedding = await self.engine.call(snapshot)
        n_alive = sum(1 for w in health if w.alive)
        if n_alive == 0:
            status, state = 503, "dead"
        elif n_alive < len(health):
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        await self._send_json(writer, status, {
            "status": state,
            "accepting": self.engine.accepting,
            "shedding": shedding,
            "workers": [
                {
                    "index": w.index,
                    "alive": w.alive,
                    "inflight": w.inflight,
                    "exitcode": w.exitcode,
                }
                for w in health
            ],
        })

    async def _handle_stats(self, writer) -> None:
        stats = await self.engine.call(self._stats_sync)
        await self._send_json(writer, 200, stats)

    def _stats_sync(self) -> dict:
        executor = self.engine.executor
        meter = executor.stats()
        routing = executor.routing
        return {
            "executor": executor.kind,
            "clock": executor.clock,
            "degraded": executor.degraded,
            "alive_workers": executor.n_alive,
            "inflight": len(executor._inflight),
            "finished": len(meter.finished),
            "rejected": len(meter.rejected),
            "generated_tokens": meter.generated_tokens,
            "tokens_per_step": meter.busy_tokens_per_second,
            "ttft_p50_steps": meter.ttft_percentile(50),
            "ttft_p95_steps": meter.ttft_percentile(95),
            "latency_p95_steps": meter.latency_percentile(95),
            "routing": {
                "routed": list(routing.routed),
                "affinity_hits": list(routing.affinity_hits),
                "affinity_misses": list(routing.affinity_misses),
                "cold": list(routing.cold),
                "hit_rate": routing.hit_rate,
            },
            "resubmissions": len(executor.resubmissions),
            "workers": [
                {"index": w.index, "alive": w.alive, "inflight": w.inflight}
                for w in executor.health()
            ],
        }

    async def _send_json(
        self, writer, status: int, obj: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = json.dumps(obj).encode("utf-8")
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(status, "Error")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n".encode("latin-1") + payload
        )
        await writer.drain()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; past the stream limit it is a 431."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's limit overrun: the line exceeds 64 KiB
        raise _HttpError(431, "headers too large", "headers_too_large")


async def _linger(reader: asyncio.StreamReader, writer) -> None:
    """Half-close, then drain the client's input for at most ``_LINGER_S``.

    Closing a socket with unread input sends a reset, and a reset can
    discard the answer before the client reads it.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _LINGER_S
    try:
        writer.write_eof()
        while (left := deadline - loop.time()) > 0:
            if not await asyncio.wait_for(reader.read(64 * 1024), left):
                return  # the client closed too
    except (TimeoutError, OSError, asyncio.CancelledError):
        pass


def _sse(obj: dict) -> bytes:
    return b"data: " + json.dumps(obj).encode("utf-8") + b"\n\n"


# ---- entry points ------------------------------------------------------------


async def serve_async(
    server: HttpServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    stop: asyncio.Event | None = None,
    ready: asyncio.Event | None = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run the HTTP server until ``stop`` is set (or SIGTERM/SIGINT).

    Shutdown is graceful: the listener closes first, then the engine
    drains every in-flight request before the workers are released.
    """
    stop = stop or asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    await server.start(host, port)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        await server.stop()
        await server.engine.drain()


def build_http_server(
    model: TransformerLM,
    tokenizer: SyntheticTokenizer,
    config: EngineConfig | None = None,
    cluster: ClusterConfig | None = None,
    model_name: str = "specontext-repro",
) -> HttpServer:
    """Executor + async engine + HTTP server, wired per the configs."""
    executor = make_executor(model, config, cluster)
    return HttpServer(AsyncEngine(executor), tokenizer, model_name=model_name)
