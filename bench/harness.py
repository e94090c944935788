"""Load generators and the correctness check, all from outside the program.

Two drivers produce the same :class:`PassResult`:

- :func:`drive_open_loop` — in-process, open loop on the *step clock*:
  request *i* is handed to ``add_request`` when ``server.clock`` reaches
  its ``arrival_step`` whatever has completed, so batch composition is
  identical run to run and only timing noise remains. Wall TTFT counts
  from the ``perf_counter`` reading taken just before the step the
  request was due in.
- :func:`drive_http_closed_loop` — one client over a real socket, each
  streaming request sent after the previous ``[DONE]``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field

from bench.workloads import Entry


@dataclass
class RequestTrace:
    """What the client saw of one request."""

    due_at: float
    # One (arrival time, tokens delivered together) pair per delivery.
    deliveries: list[tuple[float, list[int]]] = field(default_factory=list)
    terminal_events: int = 0
    error: str | None = None

    @property
    def token_ids(self) -> list[int]:
        return [t for _, tokens in self.deliveries for t in tokens]

    @property
    def ttft_ms(self) -> float | None:
        if not self.deliveries:
            return None
        return (self.deliveries[0][0] - self.due_at) * 1e3

    @property
    def request_ms(self) -> float | None:
        if not self.deliveries:
            return None
        return (self.deliveries[-1][0] - self.due_at) * 1e3

    @property
    def gaps_ms(self) -> list[float]:
        """Inter-token latency, one sample per token after the first.

        Tokens delivered together (one speculative step commits several)
        share the wait that preceded them: a burst of ``m`` tokens after a
        wait ``g`` counts as ``m`` gaps of ``g / m``. With one token per
        delivery this is the plain gap between successive stream events.
        """
        gaps: list[float] = []
        for (prev, _), (now, tokens) in zip(self.deliveries, self.deliveries[1:]):
            gaps.extend([(now - prev) * 1e3 / len(tokens)] * len(tokens))
        return gaps


@dataclass
class PassResult:
    """One timed pass of a workload."""

    traces: list[RequestTrace]
    wall_s: float
    batch_sizes: list[int] = field(default_factory=list)  # sessions served per step
    client_overhead_ms: list[float] = field(default_factory=list)
    sse_chunks: int = 0
    bytes_out: int = 0

    @property
    def generated_tokens(self) -> int:
        return sum(len(t.token_ids) for t in self.traces)


def stream_digest(streams: list[list[int]]) -> str:
    """Order-sensitive hash of every request's token stream."""
    h = hashlib.sha256()
    for stream in streams:
        h.update(json.dumps(stream).encode())
    return h.hexdigest()[:16]


# ---- in-process, open loop on the step clock ---------------------------------


def drive_open_loop(server, entries: list[Entry], after_step=None) -> PassResult:
    """Replay ``entries`` (sorted by arrival step) through ``server``.

    ``server`` speaks the submit/step/clock protocol of
    :class:`repro.serving.server.SpeContextServer`. ``after_step(server)``
    runs after every step (the traced pass samples public counters there).
    """
    clock = time.perf_counter
    traces = [RequestTrace(due_at=0.0) for _ in entries]
    by_id: dict[int, RequestTrace] = {}
    batch_sizes: list[int] = []
    submitted = 0
    n = len(entries)
    started = clock()
    while submitted < n or server.has_unfinished:
        tick = clock()
        while submitted < n and entries[submitted].arrival_step <= server.clock:
            trace = traces[submitted]
            trace.due_at = tick
            request_id = server.add_request(entries[submitted].request())
            by_id[request_id] = trace
            submitted += 1
        if not server.has_unfinished:
            # Idle until the next arrival: the step clock jumps, no wall
            # time is charged to anybody.
            server.advance_clock_to(entries[submitted].arrival_step)
            continue
        server.step()
        now = clock()
        batch_sizes.append(_deliver(server.pop_stream_events(), by_id, now))
        for failure in server.pop_failures():
            by_id[failure.request_id].error = failure.code
        if after_step is not None:
            after_step(server)
    return PassResult(
        traces=traces,
        wall_s=clock() - started, batch_sizes=batch_sizes
    )


def _deliver(events, by_id: dict[int, RequestTrace], now: float) -> int:
    """Group one step's stream events into per-request deliveries.

    Returns how many requests received tokens.
    """
    fresh: dict[int, list[int]] = {}
    for event in events:
        trace = by_id[event.request_id]
        if event.finished:
            trace.terminal_events += 1
        if event.error is not None:
            trace.error = event.error
            continue
        fresh.setdefault(event.request_id, []).append(int(event.token_id))
    for request_id, tokens in fresh.items():
        by_id[request_id].deliveries.append((now, tokens))
    return len(fresh)


# ---- HTTP, closed loop, one client -------------------------------------------


class HttpFrontend:
    """The full stack on a loopback port, served from a background thread.

    ``build_http_server`` runs in the caller's thread *before* the serving
    thread starts, so the executor forks its workers from a
    single-threaded process.
    """

    def __init__(self, model, tokenizer, config, cluster):
        from repro.serving.http import build_http_server

        started = time.perf_counter()
        self.server = build_http_server(model, tokenizer, config, cluster)
        self.spawn_s = time.perf_counter() - started
        self.executor = self.server.engine.executor
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._serve, name="bench-http")

    def _serve(self) -> None:
        from repro.serving.http import serve_async

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_async(
                    self.server, "127.0.0.1", 0, stop=self._stop, ready=ready,
                    install_signal_handlers=False,
                )
            )
            await ready.wait()
            self.port = self.server.addresses[0][1]
            self._ready.set()
            await task

        try:
            asyncio.run(main())
        except BaseException as err:  # surfaced to the caller by start/close
            self._failure = err
            self._ready.set()

    def start(self) -> "HttpFrontend":
        self._thread.start()
        if not self._ready.wait(timeout=60) or self._failure is not None:
            raise RuntimeError(f"HTTP frontend failed to start: {self._failure!r}")
        return self

    def close(self) -> None:
        """Graceful drain: the listener closes, workers are shut down and joined."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread.is_alive():
            self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("HTTP frontend did not stop within 60 s")
        if self._failure is not None:
            raise RuntimeError(f"HTTP frontend failed: {self._failure!r}")


def completion_body(entry: Entry) -> bytes:
    """The ``/v1/completions`` body of one streaming request."""
    return json.dumps(
        {
            "prompt": [int(t) for t in entry.prompt_ids],
            "max_tokens": entry.max_new_tokens,
            "stream": True,
        }
    ).encode()


def http_stream_request(port: int, entry: Entry, result: PassResult) -> RequestTrace:
    """One streaming completion; timestamps every SSE chunk as it arrives."""
    clock = time.perf_counter
    begin = clock()
    body = completion_body(entry)
    head = (
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    trace = RequestTrace(due_at=begin)
    client_s = 0.0
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(head + body)
        client_s += clock() - begin
        reader = sock.makefile("rb")
        status = reader.readline()
        result.bytes_out += len(status)
        if b" 200 " not in status:
            trace.error = status.decode("latin-1").strip()
            return trace
        done = False
        for line in reader:
            now = clock()
            result.bytes_out += len(line)
            if not line.startswith(b"data: "):
                continue
            result.sse_chunks += 1
            payload = line[6:].strip()
            if payload == b"[DONE]":
                done = True
                continue
            chunk = json.loads(payload)
            choice = chunk["choices"][0]
            if "error" in chunk:
                trace.error = chunk["error"]["code"]
                trace.terminal_events += 1
            elif choice["finish_reason"] is not None:
                trace.terminal_events += 1
            else:
                trace.deliveries.append((now, list(choice["token_ids"])))
            client_s += clock() - now
        if not done:
            trace.error = trace.error or "stream ended without [DONE]"
    result.client_overhead_ms.append(client_s * 1e3)
    return trace


def drive_http_closed_loop(port: int, entries: list[Entry]) -> PassResult:
    """One client: each request is sent after the previous ``[DONE]``."""
    result = PassResult(traces=[], wall_s=0.0)
    started = time.perf_counter()
    for entry in entries:
        result.traces.append(http_stream_request(port, entry, result))
    result.wall_s = time.perf_counter() - started
    return result


# ---- correctness -------------------------------------------------------------


def check_pass(
    entries: list[Entry], result: PassResult, solo: dict[int, list[int]]
) -> list[str | None]:
    """Per-request verdict: None when correct, else the reason it failed.

    A request is correct when it produced tokens, ended with exactly one
    terminal event and no error, respected its token cap, and — where a
    solo reference stream is supplied — reproduced it token for token.
    """
    verdicts: list[str | None] = []
    for index, (entry, trace) in enumerate(zip(entries, result.traces)):
        tokens = trace.token_ids
        reason = None
        if trace.error is not None:
            reason = f"error: {trace.error}"
        elif not tokens:
            reason = "no tokens"
        elif trace.terminal_events != 1:
            reason = f"{trace.terminal_events} terminal events"
        elif len(tokens) > entry.max_new_tokens:
            reason = "exceeded max_new_tokens"
        elif index in solo and tokens != solo[index]:
            reason = "stream differs from the solo run"
        verdicts.append(reason)
    return verdicts
