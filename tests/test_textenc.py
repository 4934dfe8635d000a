"""Deterministic prompt encoder and the embedding cache file format."""

import gc
import hashlib
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusecast import textenc
from fusecast.errors import CacheMiss, ConfigError, CorruptCache, ShapeError
from fusecast.synth import SynthSpec, generate
from fusecast.textenc import (
    PromptEncoder,
    ZeroTextSource,
    encode_prompt,
    load_cache,
    precompute_cache,
    prompt_key,
    save_cache,
)
from fusecast.textenc import _token_vector  # shared by the reference loop below
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
        # a token memo serves every prompt it is passed with; writing to a result must not reach it
        memo = {}
        v = encode_prompt("Mean", 4, 0, memo)
        v[:] = 0.0
        np.testing.assert_array_equal(encode_prompt("Mean", 4, 0, memo), [-0.5, 0.5, 0.5, -0.5])

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
            with pytest.raises(ConfigError, match="prompt has no tokens"):
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

    def test_prompt_encoder_memo_is_bit_equal_and_read_only(self):
        enc = PromptEncoder(dim=16, seed=5)
        prompts = ("one two", "two one", "one two", "one two three", "two one")
        vectors = [enc.embed(prompt) for prompt in prompts]
        for prompt, vector in zip(prompts, vectors):
            np.testing.assert_array_equal(vector, encode_prompt(prompt, 16, seed=5))
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 0.0
        assert vectors[2] is vectors[0] and vectors[4] is vectors[1]

    def test_prompt_encoder_memo_is_per_source(self):
        a, b = PromptEncoder(dim=16, seed=5), PromptEncoder(dim=16, seed=6)
        assert not np.array_equal(a.embed("one two"), b.embed("one two"))
        assert PromptEncoder(dim=16, seed=5).embed("one two") is not a.embed("one two")

    def test_token_vectors_die_with_their_encoder(self):
        enc = PromptEncoder(dim=16, seed=5)
        enc.embed("one two three")
        refs = [weakref.ref(vector) for vector in enc._tokens.values()]
        assert len(refs) == 3
        del enc
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_zero_source(self):
        z = ZeroTextSource(dim=7)
        np.testing.assert_array_equal(z.embed("anything"), np.zeros(7))


def _ema_loop(prompt, dim, seed):
    """The EMA one token at a time, the reference encode_prompt must match bit for bit."""
    state = np.zeros(dim)
    for step, token in enumerate(re.findall(r"\w+", prompt), start=1):
        state = 0.5 * _token_vector(token, dim, seed) + 0.5 * state
    return state / (1.0 - 0.5**step)


class TestRunningSum:
    @pytest.mark.parametrize("dim", [1, 6, 64, 100])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_token_loop_bytes(self, dim, seed):
        # lengths straddle the 512-token block, whose state carries into the next block
        rng = np.random.default_rng([dim, seed])
        vocab = ["Mean", "is", "3", "7500", "trend", "up", "from", "2016", "07", "01", "x"]
        for n in (1, 2, 511, 512, 513, 1100):
            prompt = " ".join(rng.choice(vocab, size=n))
            assert encode_prompt(prompt, dim, seed).tobytes() == _ema_loop(prompt, dim, seed).tobytes()

    def test_matches_the_token_loop_on_rendered_prompts(self):
        frame = generate(SynthSpec(kind="two-regime", length=240, noise=0.1))
        _, prompts = window_segments(frame.values[:168, 0], frame.timestamps[0], frame.freq, 24)
        for prompt in prompts:
            assert encode_prompt(prompt, 64, 0).tobytes() == _ema_loop(prompt, 64, 0).tobytes()


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

    @staticmethod
    def entry_lines(cache, path):
        """The entry lines of the cache saved to path: one per stored key."""
        save_cache(cache, path)
        return path.read_text().splitlines()[1:]

    def test_lookup_roundtrip(self, tmp_path):
        cache, prompts = self.build()
        lines = [json.loads(line) for line in self.entry_lines(cache, tmp_path / "emb.cache")]
        assert [(e["key"], e["prompt_sha256"]) for e in lines] == sorted(
            (prompt_key(p), hashlib.sha256(p.encode()).hexdigest()) for p in prompts)
        for p in prompts:
            assert cache.lookup(p).key == prompt_key(p)
            np.testing.assert_array_equal(cache.embed(p), encode_prompt(p, 6, 0))

    def test_miss(self):
        cache, _ = self.build()
        with pytest.raises(CacheMiss):
            cache.lookup("never seen")
        with pytest.raises(CacheMiss):
            cache.embed("never seen")

    def test_file_roundtrip_bitwise(self, tmp_path):
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded.dim == cache.dim
        for p in prompts:
            np.testing.assert_array_equal(loaded.embed(p), cache.embed(p))

    def test_blank_lines_are_skipped(self, tmp_path):
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        header, *entries = path.read_text().splitlines()
        path.write_text("\n".join([header, "", entries[0], "  ", *entries[1:], ""]) + "\n")
        loaded = load_cache(path)
        assert self.entry_lines(loaded, tmp_path / "resaved") == entries
        for p in prompts:
            np.testing.assert_array_equal(loaded.embed(p), cache.embed(p))

    def test_stored_vectors_are_read_only(self, tmp_path):
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        for source in (cache, load_cache(path)):
            vector = source.embed(prompts[0])
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 9.0
            np.testing.assert_array_equal(source.embed(prompts[0]), encode_prompt(prompts[0], 6, 0))

    def test_header_line(self, tmp_path):
        cache, _ = self.build(dim=24)
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        assert path.read_text().splitlines()[0] == "SMET-EMB v1 dim=24"

    def test_rebuild_is_byte_identical(self, tmp_path):
        # entries are sorted by key, so insertion order and repeats must not matter
        prompts = [f"p {i}" for i in range(8)]
        paths = []
        for i, order in enumerate([prompts, prompts[::-1], [p for p in prompts for _ in "ab"]]):
            paths.append(tmp_path / str(i))
            save_cache(precompute_cache(order, dim=5, seed=2), paths[-1])
        assert len(paths[0].read_text().splitlines()) == 1 + 8
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_each_distinct_prompt_is_encoded_once(self, monkeypatch):
        encoded = []

        def spy(prompt, *args):
            encoded.append(prompt)
            return encode_prompt(prompt, *args)

        monkeypatch.setattr(textenc, "encode_prompt", spy)
        prompts = ["b c", "a b", "b c", "c", "a b", "b c"]
        cache = precompute_cache(prompts, dim=4, seed=1)
        assert encoded == ["b c", "a b", "c"]  # first-seen order
        for p in prompts:
            np.testing.assert_array_equal(cache.embed(p), encode_prompt(p, 4, 1))

    def test_save_peak_memory(self, tmp_path):
        # as many entries as the cache_small benchmark's cache, at its dim
        prompts = [f"the mean is {i / 7:.4f}, the change is {-i / 3:.4f} and the std is {i % 13}"
                   for i in range(3409)]
        cache, path = precompute_cache(prompts, dim=32, seed=0), tmp_path / "emb.cache"
        tracemalloc.start()
        try:
            save_cache(cache, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2.6e6
        # measured: 0.11 MB writing one line at a time in key order, 0.47 MB sorting a
        # (key, SHA-256) tuple per entry, 8.13 MB joining the lines first
        assert peak <= 0.25e6, f"saving peaks at {peak / 1e6:.2f} MB"

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

    @pytest.mark.parametrize("sha", ["[1]", '{"a": 1}'])
    def test_unhashable_sha_is_corrupt(self, tmp_path, sha):
        # entries are held by prompt SHA-256, so one that cannot key a dict is refused
        path = tmp_path / "bad"
        path.write_text(f'SMET-EMB v1 dim=1\n{{"key": "00", "prompt_sha256": {sha}, '
                        '"values": [0.5]}\n')
        with pytest.raises(CorruptCache, match="^line 2: unhashable"):
            load_cache(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=3\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.0, 1.0]}\n'
        )
        with pytest.raises(CorruptCache):
            load_cache(path)

    def test_non_numeric_values(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=2\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.0, 1.0]}\n'
            '{"key": "01", "prompt_sha256": "bb", "values": ["a", 1.0]}\n'
        )
        with pytest.raises(CorruptCache, match="^line 3: "):
            load_cache(path)

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity", "1e999"])
    def test_non_finite_values(self, tmp_path, spelling):
        # a NaN vector would otherwise surface as a NonFiniteGradient naming a parameter
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=2\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.0, 1.0]}\n'
            f'{{"key": "01", "prompt_sha256": "bb", "values": [1.0, {spelling}]}}\n'
        )
        with pytest.raises(CorruptCache, match="^line 3: .*finite"):
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

    def test_duplicate_sha_under_another_key_conflicting_values(self, tmp_path):
        # entries are told apart by prompt SHA-256, whatever their keys say
        path = tmp_path / "bad"
        path.write_text(
            'SMET-EMB v1 dim=1\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
            '{"key": "01", "prompt_sha256": "aa", "values": [0.75]}\n'
        )
        with pytest.raises(CorruptCache, match="^line 3: SHA-256 aa repeated with other values"):
            load_cache(path)

    def test_duplicate_key_same_values_tolerated(self, tmp_path):
        path = tmp_path / "ok"
        path.write_text(
            'SMET-EMB v1 dim=1\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
            '{"key": "00", "prompt_sha256": "aa", "values": [0.5]}\n'
        )
        assert self.entry_lines(load_cache(path), tmp_path / "resaved") == [
            '{"key":"00","prompt_sha256":"aa","values":[0.5]}']

    def test_lookup_detects_prompt_drift(self, tmp_path):
        # same key, different stored prompt hash: a miss, not a silent hit
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        text = path.read_text()
        sha = hashlib.sha256(prompts[0].encode()).hexdigest()
        path.write_text(text.replace(sha, "0" * 64))
        loaded = load_cache(path)
        with pytest.raises(CacheMiss, match=sha):
            loaded.lookup(prompts[0])
        with pytest.raises(CacheMiss):
            loaded.embed(prompts[0])
        for p in prompts[1:]:
            np.testing.assert_array_equal(loaded.embed(p), cache.embed(p))

    def test_entries_sharing_a_key_both_load_and_look_up(self, tmp_path):
        # the 16-hex key only orders the file: two prompts whose keys collide stay apart
        cache, prompts = self.build()
        path = tmp_path / "emb.cache"
        save_cache(cache, path)
        header, *entries = path.read_text().splitlines()
        shared = [{**json.loads(line), "key": "0" * 16} for line in entries[:2]]
        path.write_text("\n".join([header, *map(json.dumps, shared)]) + "\n")
        loaded = load_cache(path)
        by_sha = {hashlib.sha256(p.encode()).hexdigest(): p for p in prompts}
        for entry in shared:
            prompt = by_sha[entry["prompt_sha256"]]
            assert loaded.lookup(prompt).key == "0" * 16
            np.testing.assert_array_equal(loaded.embed(prompt), cache.embed(prompt))
        resaved = [json.loads(line) for line in self.entry_lines(loaded, tmp_path / "resaved")]
        assert resaved == sorted(shared, key=lambda e: e["prompt_sha256"])
