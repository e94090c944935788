"""Tests for rotary embeddings and YaRN extension."""

import numpy as np
import pytest

from repro.tensor import RotaryEmbedding, YarnConfig


def _rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestRotaryEmbedding:
    def test_norm_preserved(self):
        rope = RotaryEmbedding(dim=32, max_position=128)
        x = _rand((2, 10, 32))
        out = rope.apply(x, np.arange(10))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-4
        )

    def test_position_zero_identity(self):
        rope = RotaryEmbedding(dim=16, max_position=8)
        x = _rand((1, 1, 16))
        out = rope.apply(x, np.array([0]))
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_relative_position_property(self):
        """q_i . k_j depends only on i - j."""
        rope = RotaryEmbedding(dim=32, max_position=256)
        q = _rand((1, 1, 32), seed=1)
        k = _rand((1, 1, 32), seed=2)
        dots = []
        for (i, j) in [(10, 4), (50, 44), (200, 194)]:
            qi = rope.apply(q, np.array([i]))
            kj = rope.apply(k, np.array([j]))
            dots.append(float(np.sum(qi * kj)))
        assert dots[0] == pytest.approx(dots[1], rel=1e-4)
        assert dots[0] == pytest.approx(dots[2], rel=1e-4)

    def test_self_dot_peaks_at_zero_offset(self):
        """The previous-token-head mechanism: same vector dotted across offsets."""
        rope = RotaryEmbedding(dim=64, max_position=512)
        u = np.ones((1, 1, 64), dtype=np.float32)
        base = rope.apply(u, np.array([100]))
        same = float(np.sum(base * rope.apply(u, np.array([100]))))
        for offset in (1, 2, 5, 50):
            other = float(np.sum(base * rope.apply(u, np.array([100 + offset]))))
            assert other < same

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(dim=7, max_position=16)

    @pytest.mark.parametrize(
        "positions,message",
        [
            ([4], "exceeds table size"),
            ([0, 9], "exceeds table size"),
            # Fancy indexing would wrap these: -1 reads the table's last row.
            ([-1], "negative position -1"),
            ([2, -3, 1], "negative position -3"),
        ],
    )
    def test_position_outside_table_rejected(self, positions, message):
        rope = RotaryEmbedding(dim=8, max_position=4)
        with pytest.raises(ValueError, match=message):
            rope.apply(_rand((1, len(positions), 8)), np.array(positions))

    def test_empty_positions_accepted(self):
        rope = RotaryEmbedding(dim=8, max_position=4)
        assert rope.apply(_rand((1, 0, 8)), np.array([], dtype=int)).shape == (1, 0, 8)

    def test_position_shape_mismatch_rejected(self):
        rope = RotaryEmbedding(dim=8, max_position=16)
        with pytest.raises(ValueError):
            rope.apply(_rand((1, 3, 8)), np.array([0, 1]))


class TestYarn:
    def test_no_scaling_matches_plain(self):
        plain = RotaryEmbedding(dim=16, max_position=64)
        yarn = RotaryEmbedding(
            dim=16, max_position=64, yarn=YarnConfig(scaling_factor=1.0)
        )
        x = _rand((1, 5, 16))
        np.testing.assert_allclose(
            plain.apply(x, np.arange(5)), yarn.apply(x, np.arange(5)), atol=1e-6
        )

    def test_attention_factor_grows_with_scale(self):
        small = YarnConfig(scaling_factor=2.0)
        big = YarnConfig(scaling_factor=16.0)
        assert 1.0 < small.attention_factor < big.attention_factor

    def test_extension_enables_long_positions(self):
        """A 2k-trained table extended 8x covers 16k positions (Sec. 4.3)."""
        yarn = YarnConfig(original_max_position=2048, scaling_factor=8.0)
        rope = RotaryEmbedding(dim=64, max_position=16384, yarn=yarn)
        x = _rand((1, 1, 64))
        out = rope.apply(x, np.array([16383]))
        assert np.isfinite(out).all()

    def test_low_frequencies_interpolated(self):
        """With YaRN, the slowest rotary frequency is slowed by ~the scale."""
        dim, base = 64, 10000.0
        plain = RotaryEmbedding(dim=dim, max_position=4096, base=base)
        yarn = RotaryEmbedding(
            dim=dim, max_position=4096, base=base,
            yarn=YarnConfig(original_max_position=512, scaling_factor=8.0),
        )
        # Slowest frequency = last column of the cos table's angle layout:
        # compare cos at a large position; interpolated table should be
        # closer to 1 (smaller accumulated angle).
        pos = 512
        plain_cos = plain._cos[pos, -1]
        yarn_cos = yarn._cos[pos, -1]
        assert yarn_cos > plain_cos

    def test_relative_property_preserved_under_yarn(self):
        yarn = YarnConfig(original_max_position=256, scaling_factor=4.0)
        rope = RotaryEmbedding(dim=32, max_position=1024, yarn=yarn)
        q = _rand((1, 1, 32), seed=3)
        k = _rand((1, 1, 32), seed=4)
        d1 = float(
            np.sum(rope.apply(q, np.array([100])) * rope.apply(k, np.array([90])))
        )
        d2 = float(
            np.sum(rope.apply(q, np.array([600])) * rope.apply(k, np.array([590])))
        )
        assert d1 == pytest.approx(d2, rel=1e-3)


class TestTableCache:
    def test_identical_params_hit_cache_and_share_tables(self):
        from repro.tensor import clear_rope_table_cache, rope_table_cache_info

        clear_rope_table_cache()
        a = RotaryEmbedding(dim=32, max_position=256)
        info = rope_table_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        b = RotaryEmbedding(dim=32, max_position=256)
        info = rope_table_cache_info()
        assert info["hits"] == 1, "second identical construction must hit"
        # The tables are the same read-only arrays, not copies.
        assert a._cos is b._cos and a._sin is b._sin
        assert not a._cos.flags.writeable

    def test_distinct_params_are_distinct_entries(self):
        from repro.tensor import clear_rope_table_cache, rope_table_cache_info

        clear_rope_table_cache()
        RotaryEmbedding(dim=32, max_position=256)
        RotaryEmbedding(dim=32, max_position=512)
        RotaryEmbedding(dim=32, max_position=256, base=500000.0)
        RotaryEmbedding(
            dim=32,
            max_position=256,
            yarn=YarnConfig(original_max_position=128, scaling_factor=2.0),
        )
        RotaryEmbedding(dim=32, max_position=256, dtype=np.float64)
        assert rope_table_cache_info()["misses"] == 5
        assert rope_table_cache_info()["hits"] == 0

    def test_cached_tables_bit_identical_to_fresh_build(self):
        from repro.tensor import clear_rope_table_cache

        clear_rope_table_cache()
        first = RotaryEmbedding(dim=16, max_position=64)
        clear_rope_table_cache()
        rebuilt = RotaryEmbedding(dim=16, max_position=64)
        assert (first._cos == rebuilt._cos).all()
        assert (first._sin == rebuilt._sin).all()

    def test_decode_loop_reuses_tables(self):
        """Per-request head construction (the serving pattern) stays warm."""
        from repro.tensor import clear_rope_table_cache, rope_table_cache_info

        clear_rope_table_cache()
        for _ in range(8):
            RotaryEmbedding(dim=64, max_position=2048)
        assert rope_table_cache_info() == {"hits": 7, "misses": 1}
