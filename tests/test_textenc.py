"""Deterministic prompt encoder and the embedding cache file format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusecast.errors import CacheMiss, CorruptCache, EmptyPrompt, ShapeError
from fusecast.synth import SynthSpec, generate
from fusecast.textenc import (
    EmbeddingCache,
    PromptEncoder,
    ZeroTextSource,
    encode_prompt,
    load_cache,
    precompute_cache,
    prompt_key,
    save_cache,
)
from fusecast.train import window_segments

WORDS = st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8)


class TestEncoder:
    def test_deterministic(self):
        a = encode_prompt("Mean is 3.7500", 16, seed=0)
        b = encode_prompt("Mean is 3.7500", 16, seed=0)
        np.testing.assert_array_equal(a, b)

    def test_seed_and_dim_change_output(self):
        base = encode_prompt("Mean is 3.7500", 16, seed=0)
        other = encode_prompt("Mean is 3.7500", 16, seed=1)
        assert not np.array_equal(base, other)
        assert encode_prompt("Mean is 3.7500", 8, seed=0).shape == (8,)

    def test_single_token_is_base_sign_vector(self):
        # bias correction makes a one-token prompt return its token vector exactly
        v = encode_prompt("Mean", 32, seed=0)
        np.testing.assert_allclose(np.abs(v), 1.0 / np.sqrt(32), atol=0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        # drift detector: any change to hashing or the moving average shows up here
        np.testing.assert_array_equal(
            encode_prompt("Mean", 4, seed=0), [-0.5, 0.5, 0.5, -0.5]
        )
        r = 0.4082482904638631
        np.testing.assert_allclose(
            encode_prompt("Mean", 6, seed=1), [-r, -r, -r, r, r, -r], atol=1e-16
        )

    def test_result_does_not_alias_the_memo(self):
        # token vectors are memoized per process; writing to a result must not reach them
        v = encode_prompt("Mean", 4, seed=0)
        v[:] = 0.0
        np.testing.assert_array_equal(encode_prompt("Mean", 4, seed=0), [-0.5, 0.5, 0.5, -0.5])

    def test_two_token_closed_form(self):
        # decay 0.5, zero init, bias corrected: state = (v1 + 2 v2) / 3
        v1 = encode_prompt("alpha", 16, seed=3)
        v2 = encode_prompt("beta", 16, seed=3)
        both = encode_prompt("alpha beta", 16, seed=3)
        np.testing.assert_allclose(both, (v1 + 2 * v2) / 3, atol=1e-15)

    def test_three_token_closed_form(self):
        v = [encode_prompt(t, 8, seed=0) for t in ("a", "b", "c")]
        got = encode_prompt("a b c", 8, seed=0)
        np.testing.assert_allclose(got, (v[0] + 2 * v[1] + 4 * v[2]) / 7, atol=1e-15)

    def test_order_sensitive(self):
        a = encode_prompt("mean change", 16, seed=0)
        b = encode_prompt("change mean", 16, seed=0)
        assert not np.allclose(a, b)

    def test_tokenization_splits_on_punctuation(self):
        # "3.7500" tokenizes as ("3", "7500"); commas and periods vanish
        a = encode_prompt("Mean is 3.7500, done.", 16, seed=0)
        b = encode_prompt("Mean is 3 7500 done", 16, seed=0)
        np.testing.assert_array_equal(a, b)

    @given(tokens=st.lists(WORDS, min_size=1, max_size=12))
    def test_norm_never_exceeds_one(self, tokens):
        v = encode_prompt(" ".join(tokens), 12, seed=0)
        assert np.linalg.norm(v) <= 1.0 + 1e-12

    def test_empty_prompt_rejected(self):
        for bad in ("", "   ", "..,;!"):
            with pytest.raises(EmptyPrompt):
                encode_prompt(bad, 8, seed=0)

    def test_bad_dim(self):
        with pytest.raises(ShapeError):
            encode_prompt("x", 0, seed=0)

    def test_prompt_encoder_matches_function(self):
        enc = PromptEncoder(dim=16, seed=5)
        for prompt in ("one", "one two", "two one", "one two three four"):
            np.testing.assert_array_equal(
                enc.embed(prompt), encode_prompt(prompt, 16, seed=5)
            )

    def test_zero_source(self):
        z = ZeroTextSource(dim=7)
        np.testing.assert_array_equal(z.embed("anything"), np.zeros(7))


class TestPromptKey:
    def test_is_unseeded_blake2b(self):
        assert prompt_key("hello world") == "878633aa32a3b150"
        manual = hashlib.blake2b(b"some prompt", digest_size=8).hexdigest()
        assert prompt_key("some prompt") == manual
        assert len(prompt_key("x")) == 16


class TestCache:
    def build(self, dim=6, seed=0):
        prompts = [f"prompt number {i}" for i in range(5)]
        return precompute_cache(prompts, dim=dim, seed=seed), prompts

    def test_lookup_roundtrip(self):
        cache, prompts = self.build()
        assert len(cache) == 5
        for p in prompts:
            assert p in cache
            np.testing.assert_array_equal(cache.embed(p), encode_prompt(p, 6, 0))

    def test_miss(self):
        cache, _ = self.build()
        assert "never seen" not in cache
        with pytest.raises(CacheMiss):
            cache.lookup("never seen")

    def test_add_shape_checked(self):
        cache = EmbeddingCache(dim=4)
        with pytest.raises(ShapeError):
            cache.add("p", np.zeros(5))

    def test_file_roundtrip_bitwise(self, tmp_path):
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded.dim == cache.dim
        for p in prompts:
            np.testing.assert_array_equal(loaded.embed(p), cache.embed(p))

    def test_header_line(self, tmp_path):
        cache, _ = self.build(dim=24)
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        assert path.read_text().splitlines()[0] == "SMET-EMB v1 dim=24"

    def test_rebuild_is_byte_identical(self, tmp_path):
        # entries are sorted by key, so insertion order must not matter
        prompts = [f"p {i}" for i in range(8)]
        a = precompute_cache(prompts, dim=5, seed=2)
        b = precompute_cache(list(reversed(prompts)), dim=5, seed=2)
        pa, pb = tmp_path / "a", tmp_path / "b"
        save_cache(a, pa)
        save_cache(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("dim,seed,digest", [
        (8, 0, "1e42fe852337e52b9d5d52686b7e629943cf901492e01fea2d6c674f5bf03bfe"),
        (16, 7, "8ccf6a984536494e6a66eb9de888ce0cbea6553704dec9168089f791f642200f"),
    ])
    def test_file_bytes_pinned(self, tmp_path, dim, seed, digest):
        # drift detector for the whole file: 68 prompts of overlapping windows, 20 distinct
        frame = generate(SynthSpec(kind="two-regime", length=240, noise=0.1))
        values = frame.values[:, 0]
        prompts = []
        for lo in range(0, 240 - 48 + 1, 12):
            prompts += window_segments(values[lo:lo + 48], frame.timestamps[lo],
                                       frame.freq, 12)[1]
        path = tmp_path / "emb.cache"
        save_cache(precompute_cache(prompts, dim, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("EMB-CACHE v2 dim=4\n")
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_garbled_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text('SMET-EMB v1 dim=2\n{"key": "00", "values": [0.0, 1.0]\n')
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text('SMET-EMB v1 dim=2\n{"key": "00", "values": [0.0, 1.0]}\n')
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=3\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.0, 1.0]}\n'
        )
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_duplicate_key_conflicting_values(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=1\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.75]}\n'
        )
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_duplicate_key_same_values_tolerated(self, tmp_path):
        path = tmp_path / "ok"
        path.write_text(
            'SMET-EMB v1 dim=1\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
        )
        assert len(load_cache(path)) == 1

    def test_lookup_detects_prompt_drift(self, tmp_path):
        # same key, different stored prompt hash: corrupt, not a silent hit
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        text = path.read_text()
        sha = hashlib.sha256(prompts[0].encode()).hexdigest()
        path.write_text(text.replace(sha, "0" * 64))
        loaded = load_cache(path)
        with pytest.raises(CorruptCache):
            loaded.lookup(prompts[0])
