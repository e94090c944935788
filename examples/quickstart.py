"""Quickstart: the request-level serving API on a functional model.

Config -> registry -> server, in three steps:

1. build a small associative-recall transformer and an ``EngineConfig``;
2. submit ``GenerationRequest``s — policies are resolved by name through
   the policy registry (``make_policy``), so SpeContext and any baseline
   are one string apart;
3. run the continuous-batching ``SpeContextServer`` and read per-request
   ``GenerationStats`` (bytes over PCIe, selection overlap, offloads).

A single generation is the same server with one request submitted.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.core.retrieval_head import RetrievalHeadConfig
from repro.hardware.spec import EDGE_RTX4060_4GB
from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.serving import SpeContextServer
from repro.utils.units import human_bytes


def build_prompt(tokenizer, rng):
    """Plant "key -> v1 v2 v3" fact chains in prose, ask for one of them."""
    n_facts, chain_len = 6, 3
    entities = tokenizer.random_content_ids(rng, n_facts * (1 + chain_len))
    facts = entities.reshape(n_facts, 1 + chain_len)
    prose = list(tokenizer.random_filler_ids(rng, 400))
    prompt = [tokenizer.bos_id]
    for i in range(n_facts):
        prompt += prose[i * 60 : (i + 1) * 60] + [int(t) for t in facts[i]]
    asked = 2
    prompt += [tokenizer.question_id, int(facts[asked][0])]
    return np.array(prompt), facts, asked, chain_len


def main() -> None:
    rng = np.random.default_rng(0)
    tokenizer = SyntheticTokenizer(vocab_size=512)
    config = tiny_test_config(n_layers=4, vocab_size=512)
    model = TransformerLM(build_recall_model(config, tokenizer, rng))
    prompt, facts, asked, chain_len = build_prompt(tokenizer, rng)

    # 1. One config object for the server.
    engine_config = EngineConfig(
        budget=96,
        spec=EDGE_RTX4060_4GB,
        bos_id=tokenizer.bos_id,
        head_config=RetrievalHeadConfig(noise=0.1),
        max_concurrency=2,
        seed=1,
    )
    server = SpeContextServer(model, engine_config)

    # 2. Request-level API: same prompt under SpeContext and a baseline,
    #    resolved by registry name and co-scheduled by the server.
    sampling = SamplingParams(max_new_tokens=chain_len)
    server.add_request(GenerationRequest(prompt, sampling, policy="specontext"))
    server.add_request(GenerationRequest(prompt, sampling, policy="quest"))

    # 3. Continuous batching: both sessions decode interleaved.
    outputs = server.run()

    expected = tokenizer.decode(facts[asked][1:])
    print(f"question: what follows {tokenizer.word(int(facts[asked][0]))!r}?")
    for output, name in zip(outputs, ("specontext", "quest")):
        stats = output.stats
        answer = tokenizer.decode(output.token_ids)
        verdict = "correct" if answer == expected else "wrong"
        print(f"\n[{name}] answer: {answer!r} ({verdict}; expected {expected!r})")
        print(f"  KV budget:            {stats.budget} of {len(prompt)} tokens")
        print(f"  bytes transferred:    {human_bytes(stats.bytes_transferred)}")
        print(f"  selection overlap:    {stats.mean_selection_overlap:.0%}")
        print(f"  transfer saved (C2):  {stats.transfer_reduction:.0%}")
        print(f"  offload events (C3):  {len(stats.offload_events)}")
        if name == "specontext":
            assert answer == expected, "SpeContext should still solve recall"

    meter = server.meter
    print(
        f"\nmeter: {len(meter.finished)} requests, "
        f"{meter.generated_tokens} tokens in {meter.makespan_s:.0f} server steps"
    )

    # 4. One request alone on a fresh server: the same tokens as when it
    #    shared its decode waves with the quest session.
    solo = SpeContextServer(model, engine_config)
    solo.add_request(GenerationRequest(prompt, sampling, policy="specontext"))
    [alone] = solo.run()
    assert alone.token_ids == outputs[0].token_ids


if __name__ == "__main__":
    main()
