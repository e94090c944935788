"""Tests for the performance simulator (engines, placement, OOM, shapes)."""

from __future__ import annotations

import pytest

from repro.hardware.spec import CLOUD_A800, EDGE_RTX4060_4GB
from repro.models.config import DEEPSEEK_MLA_LIKE_8B, EDGE_LIKE_1B, LLAMA_LIKE_8B
from repro.perf.engines import (
    CLUSTERKV,
    FLASHINFER,
    HF_EAGER,
    HF_EAGER_OFFLOAD,
    HF_FLASH_ATTENTION,
    QUEST,
    SHADOWKV,
    SPECONTEXT,
    SPECONTEXT_C1,
    SPECONTEXT_C1_C2,
    OffloadPolicy,
    engine_by_name,
)
from repro.perf.simulate import PerfSimulator, Workload


@pytest.fixture(scope="module")
def cloud():
    return PerfSimulator(LLAMA_LIKE_8B, CLOUD_A800, budget=2048)


@pytest.fixture(scope="module")
def edge():
    return PerfSimulator(EDGE_LIKE_1B, EDGE_RTX4060_4GB, budget=2048)


class TestConstruction:
    def test_overlap_validated(self):
        with pytest.raises(ValueError):
            PerfSimulator(LLAMA_LIKE_8B, CLOUD_A800, overlap=1.5)

    def test_engine_lookup(self):
        assert engine_by_name("Ours") is SPECONTEXT
        with pytest.raises(KeyError):
            engine_by_name("vllm")

    def test_ablation_flags(self):
        assert not SPECONTEXT_C1.elastic and not SPECONTEXT_C1.adaptive_memory
        assert SPECONTEXT_C1_C2.elastic and not SPECONTEXT_C1_C2.adaptive_memory
        assert SPECONTEXT.elastic and SPECONTEXT.adaptive_memory


class TestAttendedLength:
    def test_full_attention_attends_everything(self, cloud):
        assert cloud.attended_len(FLASHINFER, 30000, 2000) == 30000

    def test_baseline_retains_generated(self, cloud):
        """Challenge 2: budget covers the prompt, generated grows on top."""
        attended = cloud.attended_len(QUEST, 18000, 2000)
        assert attended == 2000 + 16000

    def test_ours_attends_budget_only(self, cloud):
        assert cloud.attended_len(SPECONTEXT, 18000, 2000) == 2048

    def test_short_sequences_uncapped(self, cloud):
        assert cloud.attended_len(SPECONTEXT, 1000, 500) == 1000


class TestPlacement:
    def test_never_policy_keeps_all_layers(self, cloud):
        assert cloud.placement(HF_EAGER, 100_000, 4, True) == 32

    def test_full_cpu_keeps_none(self, cloud):
        assert cloud.placement(HF_EAGER_OFFLOAD, 1000, 1, True) == 0

    def test_adaptive_degrades_with_length(self, cloud):
        short = cloud.placement(SPECONTEXT, 4096, 32, True)
        long = cloud.placement(SPECONTEXT, 32768, 32, True)
        assert short >= long

    def test_static_cliff(self, cloud):
        static = HF_FLASH_ATTENTION.with_(offload=OffloadPolicy.STATIC)
        assert cloud.placement(static, 8192, 4, True) == 32
        assert cloud.placement(static, 8192, 4, False) == 0


class TestOOM:
    def test_eager_prefill_scores_oom_at_long_input(self, cloud):
        reason = cloud.oom_reason(HF_EAGER, Workload(16384, 2048, 4))
        assert "transient" in reason or "GB" in reason

    def test_flash_attention_fits_same_workload(self, cloud):
        assert cloud.oom_reason(HF_FLASH_ATTENTION, Workload(16384, 2048, 4)) == ""

    def test_kv_growth_oom_at_large_batch(self, cloud):
        assert cloud.oom_reason(FLASHINFER, Workload(2048, 32768, 64)) != ""

    def test_adaptive_engine_survives_large_batch(self, cloud):
        assert cloud.oom_reason(SPECONTEXT, Workload(2048, 32768, 32)) == ""

    def test_edge_eager_oom_at_16k_prompt(self, edge):
        assert edge.oom_reason(HF_EAGER_OFFLOAD, Workload(16384, 2048, 1)) != ""


class TestThroughputShapes:
    def test_engine_order_cloud(self, cloud):
        """Ours > FlashInfer > FlashAttention > Eager on the reasoning mix."""
        mix = Workload(2048, 16384, 4)
        tps = {
            engine.name: cloud.simulate(
                engine, mix, n_samples=8
            ).decode_tokens_per_second
            for engine in (HF_EAGER, HF_FLASH_ATTENTION, FLASHINFER, SPECONTEXT)
        }
        assert (
            tps["Ours"] > tps["Full Attn(FlashInfer)"]
            > tps["Full Attn(Flash Attn)"] > tps["Full Attn(Eager)"]
        )

    def test_decode_slows_with_longer_outputs(self, cloud):
        short = cloud.simulate(FLASHINFER, Workload(2048, 8192, 8), n_samples=8)
        long = cloud.simulate(FLASHINFER, Workload(2048, 32768, 8), n_samples=8)
        assert short.decode_tokens_per_second > long.decode_tokens_per_second

    def test_ours_insensitive_to_output_length(self, cloud):
        short = cloud.simulate(SPECONTEXT, Workload(2048, 8192, 8), n_samples=8)
        long = cloud.simulate(SPECONTEXT, Workload(2048, 32768, 8), n_samples=8)
        ratio = short.decode_tokens_per_second / long.decode_tokens_per_second
        assert ratio < 2.0  # far flatter than full attention's ~4x

    def test_elastic_beats_non_elastic_when_offloaded(self, cloud):
        mix = Workload(2048, 16384, 32)
        c1 = cloud.simulate(SPECONTEXT_C1, mix, n_samples=8)
        c2 = cloud.simulate(SPECONTEXT_C1_C2, mix, n_samples=8)
        assert c2.decode_tokens_per_second > c1.decode_tokens_per_second

    def test_elastic_beats_infinigen_style_prefetch(self, edge):
        """Fig. 7: SpeContext's pre-pass elastic prefetch beats per-layer
        speculative prefetch (InfiniGen) on the same offloaded workload."""
        from repro.perf.engines import INFINIGEN

        mix = Workload(2048, 16384, 1)
        ours = edge.simulate(SPECONTEXT, mix, n_samples=8)
        infinigen = edge.simulate(INFINIGEN, mix, n_samples=8)
        assert ours.decode_tokens_per_second > infinigen.decode_tokens_per_second

    def test_edge_ours_beats_offloaded_baselines(self, edge):
        mix = Workload(2048, 16384, 1)
        ours = edge.simulate(SPECONTEXT, mix, n_samples=8)
        eager = edge.simulate(HF_EAGER_OFFLOAD, mix, n_samples=8)
        shadow = edge.simulate(SHADOWKV, mix, n_samples=8)
        assert ours.tokens_per_second > shadow.tokens_per_second
        assert ours.tokens_per_second > 3 * eager.tokens_per_second

    def test_preprocessing_penalizes_prefill(self, cloud):
        mix = Workload(32768, 512, 1)
        cluster = cloud.simulate(CLUSTERKV, mix, n_samples=8)
        quest = cloud.simulate(QUEST, mix, n_samples=8)
        # ClusterKV's k-means costs far more prefill than Quest's paging.
        assert cluster.prefill_s > quest.prefill_s

    def test_oom_timeline_reports_zero_throughput(self, cloud):
        timeline = cloud.simulate(HF_EAGER, Workload(32768, 2048, 4), n_samples=8)
        assert timeline.oom
        assert timeline.tokens_per_second == 0.0


class TestRetrievalCost:
    def test_quest_scores_fewer_candidates_than_shadowkv(self):
        """Eq. 3: preprocessing shrinks len_keys. Quest scores two page
        vectors per 16 tokens, ShadowKV every (quantized) key, so Quest's
        per-layer retrieval is cheaper; SpeContext has none per layer."""
        sim = PerfSimulator(LLAMA_LIKE_8B, CLOUD_A800)
        quest, shadow, ours = (
            sim.retrieval_seconds_per_layer(engine, 32768, 32768, 1)
            for engine in (QUEST, SHADOWKV, SPECONTEXT)
        )
        assert 0.0 < quest < shadow
        assert ours == 0.0


class TestMLA:
    def test_mla_model_simulates(self):
        sim = PerfSimulator(DEEPSEEK_MLA_LIKE_8B, CLOUD_A800, budget=2048)
        timeline = sim.simulate(SPECONTEXT, Workload(2048, 8192, 8), n_samples=8)
        assert not timeline.oom
        assert timeline.decode_tokens_per_second > 0

    def test_mla_kv_footprint_smaller(self):
        # The latent cache is far smaller than GQA K+V.
        assert (
            DEEPSEEK_MLA_LIKE_8B.kv_bytes_per_token_layer()
            < LLAMA_LIKE_8B.kv_bytes_per_token_layer()
        )


class TestWorkload:
    def test_labels(self):
        assert Workload(2048, 16384).label == "[2k, 16k]"
        assert Workload(1000, 500).label == "[1000, 500]"

    def test_final_len(self):
        assert Workload(100, 200).final_len == 300
