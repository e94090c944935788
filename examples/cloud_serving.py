"""Cloud serving walk-through: the request-level API plus the Table-3 view.

Part 1 — real inference, request-level API: a mixed-policy queue of
``GenerationRequest``s flows through the continuous-batching
``SpeContextServer`` on a functional model; every request carries its own
policy (resolved by registry name), budget and stop conditions, and the
throughput meter aggregates completions.

Part 2 — memory pressure: the same server with its shared paged KV pool
deliberately over-committed. Prompts sharing a system prefix reuse
resident blocks (prefix caching), and when decode growth exhausts the
pool the scheduler preempts the lowest-priority session and requeues it —
token streams stay bit-identical to unpressured runs.

Part 3 — the paper's scale on the performance simulator (A800, 8B-class
models): memory-admitted batch sizes under three engines, then Table 3
itself, decode throughput at the paper's request counts.

Run:  python examples/cloud_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.experiments import table3_throughput
from repro.hardware.spec import CLOUD_A800
from repro.models.builder import build_recall_model
from repro.models.config import DEEPSEEK_DISTILL_LIKE_8B, tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.perf.capacity import max_fitting_batch
from repro.perf.engines import FLASHINFER, HF_FLASH_ATTENTION, SPECONTEXT
from repro.perf.simulate import PerfSimulator
from repro.serving import SpeContextServer
from repro.workloads.base import weave_context

ENGINES = (HF_FLASH_ATTENTION, FLASHINFER, SPECONTEXT)
POLICY_MIX = ("specontext", "specontext", "quest", "streaming")


def serve_functional(n_requests: int = 8, seed: int = 0) -> None:
    """Part 1: real tokens through the continuous-batching server."""
    rng = np.random.default_rng(seed)
    tokenizer = SyntheticTokenizer(vocab_size=512)
    model = TransformerLM(
        build_recall_model(tiny_test_config(n_layers=2, vocab_size=512),
                           tokenizer, rng)
    )
    server = SpeContextServer(
        model,
        EngineConfig(budget=96, bos_id=tokenizer.bos_id, max_concurrency=4),
    )
    for i in range(n_requests):
        req_rng = np.random.default_rng(seed + 10 + i)
        pair = [int(t) for t in tokenizer.random_content_ids(req_rng, 2)]
        ids, _ = weave_context(tokenizer, req_rng, [pair], context_len=263)
        prompt = np.array(ids + [tokenizer.question_id, pair[0]])
        server.add_request(GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=4),
            policy=POLICY_MIX[i % len(POLICY_MIX)],
            budget=64 if i % 2 else 96,
        ))
    outputs = server.run()
    meter = server.meter
    print(f"functional serving: {len(outputs)} mixed-policy requests, "
          f"concurrency 4")
    for output in outputs:
        print(f"  req {output.request_id}: "
              f"{POLICY_MIX[output.request_id % len(POLICY_MIX)]:11s} "
              f"{output.n_generated} tokens ({output.finish_reason}), "
              f"{output.stats.bytes_transferred / 1024:.0f} KiB over PCIe")
    print(f"  meter: {meter.generated_tokens} tokens over "
          f"{meter.makespan_s:.0f} steps "
          f"({meter.tokens_per_second:.1f} tokens/step)\n")


def serve_overcommitted(seed: int = 0) -> None:
    """Part 2: a pool half the workload's KV forces preemption; a shared
    system prefix makes the prefix cache earn its keep."""
    rng = np.random.default_rng(seed)
    tokenizer = SyntheticTokenizer(vocab_size=512)
    model = TransformerLM(
        build_recall_model(tiny_test_config(n_layers=2, vocab_size=512),
                           tokenizer, rng)
    )
    system_prefix = [
        int(t) for t in tokenizer.random_filler_ids(
            np.random.default_rng(seed + 1), 48
        )
    ]

    def request(i: int) -> GenerationRequest:
        req_rng = np.random.default_rng(seed + 50 + i)
        suffix = [int(t) for t in tokenizer.random_filler_ids(req_rng, 24)]
        prompt = np.array([tokenizer.bos_id] + system_prefix + suffix)
        return GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=24),
            policy=POLICY_MIX[i % len(POLICY_MIX)],
            priority=i % 2,  # odd requests outrank even ones
        )

    # Reference: every request alone on an unpressured server.
    base = dict(budget=96, bos_id=tokenizer.bos_id, block_size=8,
                scheduler="priority")
    solo_streams = []
    for i in range(6):
        solo = SpeContextServer(model, EngineConfig(**base))
        solo.add_request(request(i))
        solo_streams.append(solo.run()[0].token_ids)

    # Over-committed: pool sized to roughly half the aggregate KV.
    block = base["block_size"]
    aggregate = sum(
        -(-(request(i).prompt_len + 24) // block) for i in range(6)
    )
    server = SpeContextServer(
        model, EngineConfig(**base, pool_blocks=aggregate // 2)
    )
    for i in range(6):
        server.add_request(request(i))
    outputs = server.run()

    stats = server.pool.stats
    print(f"over-committed pool: {aggregate // 2} blocks for a workload "
          f"needing {aggregate}")
    print(f"  {len(server.preemption_log)} preemptions "
          f"({sum(1 for o in outputs if o.stats.preemptions)} requests hit), "
          f"{stats.prefix_blocks_reused} prompt blocks reused via prefix "
          f"cache ({stats.prefix_hit_rate:.0%} hit rate)")
    identical = all(
        outputs[i].token_ids == solo_streams[i] for i in range(6)
    )
    print(f"  token streams bit-identical to solo runs: {identical}\n")


def simulate_cloud() -> None:
    """Part 3: memory-admitted batch sizes, then Table 3 on the simulator."""
    sim = PerfSimulator(DEEPSEEK_DISTILL_LIKE_8B, CLOUD_A800, budget=2048)
    print(f"model: {DEEPSEEK_DISTILL_LIKE_8B.name}  |  GPU: {CLOUD_A800.name}")

    print("\nmemory-admitted batch sizes at [2k, 32k]:")
    for engine in ENGINES:
        cap = max_fitting_batch(sim, engine, 2048, 32768)
        print(f"  {engine.name:24s} {cap}")
    print()
    print(table3_throughput.run(quick=True).format())


def main() -> None:
    serve_functional()
    serve_overcommitted()
    simulate_cloud()


if __name__ == "__main__":
    main()
