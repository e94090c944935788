"""End-to-end tests of the transformer substrate: circuits, generation, cache."""

import functools

import numpy as np
import pytest

from repro.experiments.common import make_functional_setup
from repro.models import (
    AttentionKind,
    TransformerLM,
    build_recall_model,
    tiny_test_config,
)
from repro.models.attention import PREFILL_TILE
from repro.models.builder import head_roles, make_content_vectors
from repro.models.weights import ModelWeights, random_weights

from tests.conftest import make_recall_prompt


class TestRecallCircuit:
    """The constructed models must genuinely solve associative recall."""

    @pytest.mark.parametrize(
        "fixture",
        ["tiny_gqa_model", "tiny_mha_model", "tiny_mqa_model", "tiny_mla_model"],
    )
    def test_single_hop_recall(self, fixture, tiny_tokenizer, rng_factory, request):
        model = request.getfixturevalue(fixture)
        rng = rng_factory.stream(f"recall-{fixture}")
        hits = 0
        for trial in range(5):
            prompt, expected, _ = make_recall_prompt(
                tiny_tokenizer, rng, query_pair=trial % 8
            )
            result = model.generate(prompt, max_new_tokens=1)
            hits += int(result.token_ids[0] == expected)
        assert hits >= 4, f"{fixture} recalled only {hits}/5"

    def test_multi_hop_chain(self, tiny_gqa_model, tiny_tokenizer, rng_factory):
        """A->B then B->C chained across decode steps."""
        tok = tiny_tokenizer
        rng = rng_factory.stream("chain")
        ents = tok.random_content_ids(rng, 3)
        a, b, c = (int(t) for t in ents)
        filler = [int(t) for t in tok.random_filler_ids(rng, 200)]
        ids = (
            [tok.bos_id] + filler[:80] + [a, b] + filler[80:150] + [b, c]
            + filler[150:] + [tok.question_id, a]
        )
        result = tiny_gqa_model.generate(np.array(ids), max_new_tokens=2)
        assert result.token_ids == [b, c]

    def test_eos_terminates_chain(self, tiny_gqa_model, tiny_tokenizer, rng_factory):
        tok = tiny_tokenizer
        rng = rng_factory.stream("eos-chain")
        a, b = (int(t) for t in tok.random_content_ids(rng, 2))
        filler = [int(t) for t in tok.random_filler_ids(rng, 120)]
        ids = (
            [tok.bos_id] + filler[:60] + [a, b, tok.eos_id] + filler[60:]
            + [tok.question_id, a]
        )
        result = tiny_gqa_model.generate(
            np.array(ids), max_new_tokens=5, stop_ids=(tok.eos_id,)
        )
        assert result.token_ids[:2] == [b, tok.eos_id]
        assert result.stopped_by_eos

    def test_recall_robust_to_distractors(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        """Many other key/value pairs must not confuse retrieval."""
        rng = rng_factory.stream("distractors")
        prompt, expected, _ = make_recall_prompt(
            tiny_tokenizer, rng, n_pairs=16, n_filler=600, query_pair=9
        )
        result = tiny_gqa_model.generate(prompt, max_new_tokens=1)
        assert result.token_ids[0] == expected


class TestSparseDecodeHook:
    class _FixedPolicy:
        """Returns the same 1-D selection for every layer."""

        def __init__(self, indices):
            self.indices = np.asarray(indices)

        def begin_generation(self, prompt_ids, cache):
            pass

        def pre_step(self, step, token_id, cache):
            pass

        def select(self, layer, hidden, position, cache):
            return self.indices

    def test_selection_including_evidence_preserves_answer(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("sparse-good")
        prompt, expected, value_pos = make_recall_prompt(tiny_tokenizer, rng)
        # Keep evidence (key/value and neighbors) + sink + recent tokens.
        keep = set(range(0, 4)) | set(range(value_pos - 3, value_pos + 1))
        keep |= set(range(len(prompt) - 8, len(prompt)))
        policy = self._FixedPolicy(sorted(keep))
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=1, policy=policy, sparse_from_first_token=True
        )
        assert result.token_ids[0] == expected

    def test_selection_excluding_evidence_breaks_answer(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        """Dropping the needle's KV must change the output — the causal link
        the accuracy experiments rely on."""
        rng = rng_factory.stream("sparse-bad")
        prompt, expected, value_pos = make_recall_prompt(tiny_tokenizer, rng)
        keep = [i for i in range(len(prompt)) if abs(i - value_pos) > 3]
        policy = self._FixedPolicy(keep)
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=1, policy=policy, sparse_from_first_token=True
        )
        assert result.token_ids[0] != expected

    def test_selections_recorded(self, tiny_gqa_model, tiny_tokenizer, rng_factory):
        rng = rng_factory.stream("sparse-rec")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng)
        policy = self._FixedPolicy(np.arange(50))
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=2, policy=policy, sparse_from_first_token=True
        )
        assert len(result.selections) == 2
        assert set(result.selections[0].keys()) == set(
            range(tiny_gqa_model.config.n_layers)
        )

    def test_current_token_always_attended(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("sparse-cur")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng)
        policy = self._FixedPolicy(np.arange(10))
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=2, policy=policy, sparse_from_first_token=True
        )
        # Step 1 decodes the first generated token at position len(prompt)-1+1.
        sel = result.selections[1][0]
        assert len(prompt) in sel.tolist()


class TestGeneration:
    def test_greedy_deterministic(self, tiny_gqa_model, tiny_tokenizer, rng_factory):
        rng = rng_factory.stream("greedy")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng)
        a = tiny_gqa_model.generate(prompt, max_new_tokens=3)
        b = tiny_gqa_model.generate(prompt, max_new_tokens=3)
        assert a.token_ids == b.token_ids

    def test_empty_prompt_rejected(self, tiny_gqa_model):
        with pytest.raises(ValueError):
            tiny_gqa_model.generate(np.array([], dtype=int), max_new_tokens=1)

    def test_capture_attention_shapes(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("capture")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=60, n_pairs=3)
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=2, capture_attention=True,
            sparse_from_first_token=True,
        )
        assert len(result.attention_trace) == 2
        step0 = result.attention_trace[0]
        assert len(step0) == tiny_gqa_model.config.n_layers
        weights = step0[0]
        assert weights.shape[0] == tiny_gqa_model.config.n_q_heads
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-4)
        from repro.retrieval.registry import make_policy

        with pytest.raises(ValueError, match="full attention"):
            tiny_gqa_model.generate(
                prompt, max_new_tokens=2, capture_attention=True,
                policy=make_policy("streaming", tiny_gqa_model, 16),
                sparse_from_first_token=True,
            )

    def test_incremental_prefill_matches_single_shot(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("incr")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=80, n_pairs=3)
        c1 = tiny_gqa_model.new_cache()
        logits1 = tiny_gqa_model.prefill(prompt, c1)
        c2 = tiny_gqa_model.new_cache()
        tiny_gqa_model.prefill(prompt[:50], c2)
        logits2 = tiny_gqa_model.prefill(prompt[50:], c2)
        np.testing.assert_allclose(logits1, logits2, atol=1e-3)

    @pytest.mark.parametrize("chunk", [1, 7, 16, 10_000])
    def test_prefill_chunked_matches_one_shot(
        self, chunk, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        """Chunked prefill computes the same math as one-shot prefill:
        KV values and final logits agree to the last ulp of the float32
        projections (chunk boundaries shift BLAS GEMM blocking, so exact
        array equality only holds when the chunk covers the prompt), and
        the next-token argmax — what generation consumes — is identical.
        Stream-level bit-identity is pinned by tests/test_chunked_prefill.py."""
        rng = rng_factory.stream(f"chunked-{chunk}")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=60, n_pairs=3)
        one_shot = tiny_gqa_model.new_cache()
        expected = tiny_gqa_model.prefill(prompt, one_shot)
        chunked = tiny_gqa_model.new_cache()
        logits = tiny_gqa_model.prefill_chunked(prompt, chunked, chunk)
        np.testing.assert_allclose(expected, logits, rtol=1e-4, atol=1e-5)
        assert int(np.argmax(logits)) == int(np.argmax(expected))
        assert chunked.seq_len == one_shot.seq_len
        for layer_a, layer_b in zip(one_shot.layers, chunked.layers):
            np.testing.assert_allclose(
                layer_a.keys, layer_b.keys, rtol=1e-4, atol=1e-5
            )
            np.testing.assert_allclose(
                layer_a.values, layer_b.values, rtol=1e-4, atol=1e-5
            )
        if chunk >= prompt.size:  # single chunk: identical call, exact
            np.testing.assert_array_equal(expected, logits)

    def test_prefill_chunked_validates_inputs(self, tiny_gqa_model):
        with pytest.raises(ValueError, match="chunk_tokens"):
            tiny_gqa_model.prefill_chunked(
                np.array([1, 2, 3]), tiny_gqa_model.new_cache(), 0
            )
        with pytest.raises(ValueError, match="non-empty"):
            tiny_gqa_model.prefill_chunked(
                np.array([]), tiny_gqa_model.new_cache(), 4
            )


def _reference_prefill(model, token_ids, cache):
    """Every layer attends for every row (``first_output=0``); the final
    row's logits."""
    positions = np.arange(cache.seq_len, cache.seq_len + token_ids.size)
    x = model.embed(token_ids)
    for i, layer in enumerate(model.layers):
        x = layer.prefill(x, positions, cache[i])
    return model.logits_from_hidden_rows(x[-1:])[0]


T = PREFILL_TILE
# (prompt tokens, chunk sizes in order; the last size repeats to the end)
LAST_ROW_SHAPES = [
    (1, [1]),
    (T - 1, [T - 1]),
    (T, [T]),
    (T + 1, [T + 1]),
    (448, [448]),
    (300, [77]),
    (200, [1]),
    (T + 150, [37, T + 113]),  # resumed prefill at an unaligned base
]


@pytest.mark.parametrize(
    "fixture",
    ["tiny_gqa_model", "tiny_mha_model", "tiny_mqa_model", "tiny_mla_model"],
)
@pytest.mark.parametrize("n,chunks", LAST_ROW_SHAPES)
def test_prefill_last_layer_tile_is_exact(fixture, n, chunks, request, monkeypatch):
    """The last layer attends for the final row's tile alone: that whole
    tile, the logits and every layer's K/V are bit for bit those of
    attending for every row, and the rows before the tile are zeros."""
    model = request.getfixturevalue(fixture)
    attn = model.layers[-1].attention
    outputs = []

    def spy(x, positions, cache, first_output=0, run=attn.prefill):
        out = run(x, positions, cache, first_output)
        outputs.append((first_output, out))
        return out

    monkeypatch.setattr(attn, "prefill", spy)
    rng = np.random.default_rng([n, *chunks])
    prompt = rng.integers(0, model.config.vocab_size, size=n)
    served, reference = model.new_cache(), model.new_cache()
    start, sizes = 0, list(chunks)
    with np.errstate(all="raise"):
        while start < n:
            size = sizes.pop(0) if len(sizes) > 1 else sizes[0]
            chunk = prompt[start : start + size]
            logits = model.prefill(chunk, served)
            want = _reference_prefill(model, chunk, reference)
            (first_output, got_rows), (_, want_rows) = outputs[-2:]
            assert first_output == chunk.size - 1
            tile = first_output - first_output % T
            np.testing.assert_array_equal(got_rows[tile:], want_rows[tile:])
            assert not got_rows[:tile].any()
            np.testing.assert_array_equal(logits, want)
            start += size
    for got, expected in zip(served.layers, reference.layers):
        np.testing.assert_array_equal(got.keys, expected.keys)
        np.testing.assert_array_equal(got.values, expected.values)



@functools.cache
def _functional_model(attention, n_layers):
    return make_functional_setup(attention=attention, n_layers=n_layers).model


@pytest.mark.parametrize(
    "attention", [AttentionKind.GQA, AttentionKind.MLA], ids=["gqa", "mla"]
)
@pytest.mark.parametrize("n_layers", [2, 8])
@pytest.mark.parametrize("chunk", [None, 37, 256], ids=["whole", "c37", "c256"])
def test_logit_free_prefill_leaves_the_same_cache(attention, n_layers, chunk):
    """``prefill(logits=False)`` returns no logits and leaves every
    layer's cache bit for bit as a logits prefill leaves it, one-shot and
    in chunks off the tile width; ``prefill_chunked`` (logit-free but for
    its final chunk) ends on the same cache and the same logits."""
    model = _functional_model(attention, n_layers)
    prompt = np.random.default_rng(n_layers).integers(
        0, model.config.vocab_size, size=300
    )
    size = prompt.size if chunk is None else chunk
    with_logits, logit_free = model.new_cache(), model.new_cache()
    for start in range(0, prompt.size, size):
        segment = prompt[start : start + size]
        logits = model.prefill(segment, with_logits)
        assert logits.shape == (model.config.vocab_size,)
        assert model.prefill(segment, logit_free, logits=False) is None
    caches = [logit_free]
    if chunk is not None:
        chunked = model.new_cache()
        np.testing.assert_array_equal(
            model.prefill_chunked(prompt, chunked, chunk), logits
        )
        caches.append(chunked)
    for cache in caches:
        assert cache.seq_len == prompt.size
        for got, want in zip(cache.layers, with_logits.layers):
            np.testing.assert_array_equal(got.keys, want.keys)
            np.testing.assert_array_equal(got.values, want.values)


class TestBuilderInternals:
    def test_head_roles_layer0_has_prev(self):
        cfg = tiny_test_config(AttentionKind.GQA)
        assert head_roles(cfg, 0)[0] == "prev"
        assert head_roles(cfg, 1)[0] == "induction"

    def test_content_vectors_unit_norm(self):
        vecs = make_content_vectors(100, 32, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-5)

    def test_correlation_raises_intra_cluster_cosine(self):
        rng = np.random.default_rng(1)
        low = make_content_vectors(400, 32, rng, correlation=0.0, n_clusters=4)
        rng = np.random.default_rng(1)
        high = make_content_vectors(400, 32, rng, correlation=0.8, n_clusters=4)
        mean_low = np.abs(low @ low.T - np.eye(400)).mean()
        mean_high = np.abs(high @ high.T - np.eye(400)).mean()
        assert mean_high > mean_low

    def test_wrong_d_model_rejected(self, tiny_tokenizer):
        cfg = tiny_test_config().with_(d_model=128)
        with pytest.raises(ValueError):
            build_recall_model(cfg, tiny_tokenizer, np.random.default_rng(0))

    def test_save_load_roundtrip(self, tmp_path, tiny_tokenizer, rng_factory):
        cfg = tiny_test_config(n_layers=2)
        w = build_recall_model(cfg, tiny_tokenizer, rng_factory.stream("saveload"))
        path = str(tmp_path / "model.npz")
        w.save(path)
        loaded = ModelWeights.load(path, cfg)
        np.testing.assert_array_equal(loaded.embedding, w.embedding)
        np.testing.assert_array_equal(loaded.layers[1].wq, w.layers[1].wq)
        assert loaded.layers[0].rope_key_offset == w.layers[0].rope_key_offset
        model = TransformerLM(loaded)
        prompt, expected, _ = make_recall_prompt(
            tiny_tokenizer, rng_factory.stream("saveload-data"), n_filler=60, n_pairs=3
        )
        assert model.generate(prompt, max_new_tokens=1).token_ids[0] == expected

    def test_random_weights_runs(self, tiny_tokenizer):
        cfg = tiny_test_config(n_layers=2).with_(use_norm=True)
        w = random_weights(cfg, np.random.default_rng(0))
        model = TransformerLM(w)
        out = model.generate(np.array([1, 2, 3]), max_new_tokens=2)
        assert len(out.token_ids) == 2

    def test_parameter_counts_positive(self, tiny_gqa_model):
        assert tiny_gqa_model.weights.parameters() > 0


class TestAttentionConcentration:
    """Verify the constructed heads attend where the circuit says."""

    def test_prev_head_attends_previous_position(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("prevhead")
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=60, n_pairs=3)
        result = tiny_gqa_model.generate(
            prompt, max_new_tokens=1, capture_attention=True,
            sparse_from_first_token=True,
        )
        # Layer 0, kv-head 0 (q heads 0..group) is the prev head. The decode
        # token sits at position len(prompt); previous is len(prompt)-1.
        weights = result.attention_trace[0][0]  # (Hq, kv_len)
        prev_pos = weights.shape[1] - 2
        assert weights[0].argmax() in (prev_pos, prev_pos + 1)
        assert weights[0, prev_pos] > 0.3

    def test_induction_head_attends_value_position(
        self, tiny_gqa_model, tiny_tokenizer, rng_factory
    ):
        rng = rng_factory.stream("indhead")
        prompt, expected, value_pos = make_recall_prompt(
            tiny_tokenizer, rng, n_filler=80, n_pairs=4
        )
        cache = tiny_gqa_model.new_cache()
        tiny_gqa_model.prefill(prompt[:-1], cache)
        _, _, attn = tiny_gqa_model.decode_step(
            int(prompt[-1]), cache, capture_attention=True
        )
        # Layer 1+, q-head 0 is the induction head; it should put most mass
        # on the value position (whose S1 holds the queried key's content).
        weights = attn[1][0]
        assert int(weights.argmax()) == value_pos
        assert weights[value_pos] > 0.5


class TestBatchedDecodeStep:
    """A session's row is bit-identical whether it is decoded alone
    (decode_step), in a wave (decode_step_batch) or as one-token verify
    rows (decode_spec_batch)."""

    def _make_sessions(self, model, tokenizer, policy_names, budget=48, n_sets=3):
        """Identical session sets, one for each decode path."""
        from repro.core.retrieval_head import LightweightRetrievalHead
        from repro.retrieval.registry import make_policy

        head = LightweightRetrievalHead.from_teacher(
            model.weights, tokenizer.bos_id, np.random.default_rng(0)
        )
        sets = []
        for _ in range(n_sets):
            caches, pendings, policies = [], [], []
            for i, name in enumerate(policy_names):
                rng = np.random.default_rng(500 + i)
                ids = [int(t) for t in tokenizer.random_filler_ids(rng, 40 + 4 * i)]
                prompt = np.array([tokenizer.bos_id] + ids)
                cache = model.new_cache()
                model.prefill(prompt[:-1], cache)
                policy = None
                if name is not None:
                    opts = {"head": head} if name == "specontext" else {}
                    policy = make_policy(name, model, budget, **opts)
                    policy.begin_generation(prompt[:-1], cache)
                caches.append(cache)
                policies.append(policy)
                pendings.append(int(prompt[-1]))
            sets.append((caches, policies, pendings))
        return sets

    @pytest.mark.parametrize("fixture", [
        "tiny_gqa_model", "tiny_mha_model", "tiny_mqa_model", "tiny_mla_model",
    ])
    def test_bit_identical_over_steps(self, fixture, tiny_tokenizer, request):
        model = request.getfixturevalue(fixture)
        if fixture == "tiny_mla_model":
            names = [None, "streaming", "sliding", "full"]
        else:
            names = [None, "streaming", "quest", "h2o", "sliding", "full"]
        # One pre-step selection object for every layer: the per-step plan.
        names += ["specontext", "specontext"]
        sets = self._make_sessions(model, tiny_tokenizer, names)
        (seq_caches, seq_policies, seq_pending), (
            bat_caches, bat_policies, bat_pending,
        ), (spec_caches, spec_policies, spec_pending) = sets
        for step in range(6):
            for caches, policies, pending in sets:
                for j in range(len(names)):
                    if policies[j] is not None:
                        policies[j].pre_step(step, pending[j], caches[j])
            seq_logits, seq_selections = [], []
            for j in range(len(names)):
                logits, sels, _ = model.decode_step(
                    seq_pending[j], seq_caches[j], policy=seq_policies[j]
                )
                seq_logits.append(logits)
                seq_selections.append(sels)
            bat_logits, bat_selections = model.decode_step_batch(
                bat_pending, bat_caches, bat_policies
            )
            spec_logits, spec_selections = model.decode_spec_batch(
                [[token] for token in spec_pending], spec_caches, spec_policies
            )
            for j in range(len(names)):
                assert spec_logits[j].shape == (1, bat_logits.shape[1])
                for logits, sels in (
                    (seq_logits[j], seq_selections[j]),
                    (spec_logits[j][0], spec_selections[j][0]),
                ):
                    assert (bat_logits[j] == logits).all(), (names[j], step)
                    assert bat_selections[j].keys() == sels.keys()
                    for layer, sel in sels.items():
                        assert np.array_equal(bat_selections[j][layer], sel), (
                            names[j], step, layer,
                        )
                if names[j] == "specontext":
                    for sels in (bat_selections[j], spec_selections[j][0]):
                        planned = list(sels.values())
                        assert len(planned) == len(model.layers)
                        assert planned[0].ndim == 2  # head-level
                        assert all(sel is planned[0] for sel in planned)
                token = int(np.argmax(bat_logits[j]))
                seq_pending[j] = bat_pending[j] = spec_pending[j] = token
            # The caches themselves must agree entry for entry.
            for j in range(len(names)):
                for layer in range(len(bat_caches[j])):
                    want = bat_caches[j][layer]
                    for caches in (seq_caches, spec_caches):
                        assert (caches[j][layer].keys == want.keys).all()
                        assert (caches[j][layer].values == want.values).all()

    def test_batch_size_mismatch_rejected(self, tiny_gqa_model):
        with pytest.raises(ValueError, match="batch size mismatch"):
            tiny_gqa_model.decode_step_batch(
                [1, 2], [tiny_gqa_model.new_cache()], None
            )
