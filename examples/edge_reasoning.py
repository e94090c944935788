"""Edge deployment walk-through: 1B reasoning model on a 4GB laptop GPU.

Shows the compilation-level machinery of Sec. 6: the theoretical memory
model computes Algorithm 1's sequence-length thresholds, the adaptive
manager walks them as a simulated reasoning trace grows, and the
performance simulator compares SpeContext's end-to-end throughput against
offloaded full attention and ShadowKV — a miniature of Figure 10(b).

Run:  python examples/edge_reasoning.py
"""

from __future__ import annotations

from repro.core.adaptive import AdaptiveMemoryManager
from repro.core.memory_model import MemoryModel
from repro.hardware.spec import EDGE_RTX4060_4GB
from repro.models.config import EDGE_LIKE_1B
from repro.perf.engines import HF_EAGER_OFFLOAD, HF_FLASH_OFFLOAD, SHADOWKV, SPECONTEXT
from repro.perf.simulate import RETRIEVAL_HEAD_BYTES, PerfSimulator, Workload
from repro.utils.tables import format_table


def main() -> None:
    spec = EDGE_RTX4060_4GB
    model = EDGE_LIKE_1B
    print(f"model: {model.name}  |  GPU: {spec.name} "
          f"({spec.gpu_memory_bytes / 1e9:.0f}GB usable)")

    # --- Algorithm 1: sequence-length thresholds at compile time ---------
    memory_model = MemoryModel(
        model, RETRIEVAL_HEAD_BYTES, spec, requests=1, budget=2048
    )
    thresholds = memory_model.sequence_thresholds()
    interesting = [t for t in thresholds if t > 0][:6]
    print(f"\nAlgorithm 1 thresholds (first offloads): "
          f"{[f'{t // 1024}K' for t in interesting]}")

    # --- Algorithm 2: walk a growing reasoning trace ----------------------
    manager = AdaptiveMemoryManager(memory_model)
    prompt_len, out_len = 2048, 32768
    for seq in range(prompt_len, prompt_len + out_len + 1, 1024):
        for event in manager.advance(seq):
            # Layers leave last-first, so layers 0..event.layer-1 stay on GPU.
            print(f"  seq {event.seq_len:>6}: offload layer {event.layer:>2} "
                  f"({event.bytes_freed / 1e6:.0f}MB freed), "
                  f"{event.layer}/{manager.n_layers} layers on GPU")

    # --- Figure 10(b) miniature -------------------------------------------
    sim = PerfSimulator(model, spec, budget=2048)
    mixes = [(2048, 16384), (2048, 32768), (16384, 2048)]
    engines = (HF_EAGER_OFFLOAD, HF_FLASH_OFFLOAD, SHADOWKV, SPECONTEXT)
    rows = []
    for engine in engines:
        row = [engine.name]
        for in_len, out in mixes:
            timeline = sim.simulate(engine, Workload(in_len, out, 1), n_samples=16)
            row.append("OOM" if timeline.oom else round(timeline.tokens_per_second, 1))
        rows.append(row)
    print()
    print(format_table(
        ["Engine"] + [Workload(i, o).label for i, o in mixes], rows,
        title="end-to-end tokens/s, single request, 4GB edge GPU",
    ))


if __name__ == "__main__":
    main()
