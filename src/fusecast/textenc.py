"""Deterministic prompt embeddings and their offline cache.

The encoder stands in for a frozen language model: each token hashes to a
fixed random sign vector, a causal exponential moving average contextualizes
the token stream, and the final state is the prompt embedding. It is a pure
function of (prompt bytes, dim, seed), so embeddings can be precomputed once
and cached. `encode_prompt` is the one encoder: with decay 0.5 its moving
average is an exact running sum, so no per-token loop runs. It takes an optional
token memo, a dict from token to sign vector for one (dim, seed). `PromptEncoder`
is the text source the commands embed through. Each instance memoizes its token
and prompt vectors, so a token or a prompt that overlapping windows share is
encoded once per source; both memos live and die with the source, not with the
process, and the vectors they hand out are read-only. `precompute_cache` builds
the offline cache, with a token memo that dies with the call.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import CacheMiss, ConfigError, CorruptCache, ShapeError

CACHE_HEADER_RE = re.compile(r"^SMET-EMB v1 dim=(\d+)$")
_EMA_DECAY = 0.5  # encode_prompt's running sum is exact only for this decay
_POW2 = np.ldexp(1.0, np.arange(512))[:, None]  # 2^(t-1) for token t of a block


def prompt_key(prompt: str) -> str:
    """64-bit content hash of the prompt bytes, as 16 hex chars."""
    return hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).hexdigest()


def _prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TextEmbedding:
    vector: np.ndarray
    key: str  # the prompt's 16-hex `prompt_key`, which only orders the cache file


def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """Fixed ±1/√D sign vector for a token, keyed by (token, seed); read-only."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    signs = rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    vector = signs / np.sqrt(dim)
    vector.flags.writeable = False  # shared by every prompt through a token memo
    return vector


def encode_prompt(prompt: str, dim: int, seed: int, memo=None) -> np.ndarray:
    """Embed a prompt: hash tokens to sign vectors, causal EMA, take the final state.

    Zero-init EMA with bias correction, so a single-token prompt returns that
    token's base vector exactly and the corrected state is always a convex
    combination of token vectors (norm never exceeds 1). Because the decay is
    0.5, s_t = 0.5*v_t + 0.5*s_{t-1} rounds like (v_t + s_{t-1}) / 2, so 2^t*s_t
    is the running sum of 2^(t-1)*v_t: a sequential np.add.accumulate per
    512-token block (2^t cannot overflow) and an exact ldexp give the loop's bits.
    `memo`, a dict from token to vector for this (dim, seed), is read and filled.
    """
    if dim < 1:
        raise ShapeError(f"embedding dim must be >= 1, got {dim}")
    tokens = re.findall(r"\w+", prompt)
    if not tokens:
        raise ConfigError("prompt has no tokens")
    memo = {} if memo is None else memo
    memo.update({token: _token_vector(token, dim, seed) for token in set(tokens).difference(memo)})
    vectors = np.array([memo[token] for token in tokens])
    state = np.zeros(dim, dtype=np.float64)
    for lo in range(0, len(tokens), len(_POW2)):
        block = vectors[lo:lo + len(_POW2)] * _POW2[: len(tokens) - lo]
        block[0] += state
        state = np.ldexp(np.add.accumulate(block, out=block)[-1], -len(block))
    return state / (1.0 - _EMA_DECAY ** len(tokens))


class PromptEncoder:
    """On-the-fly text source backed by the builtin encoder.

    `embed` memoizes by prompt string: a prompt this source has seen returns
    the vector it encoded the first time, bit-equal to `encode_prompt`, as one
    shared read-only array. It also memoizes each token's sign vector. Both
    memos belong to the instance: they are freed with the source, and no two
    sources share one, so a token is hashed again by every new source.
    """

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._vectors: dict[str, np.ndarray] = {}
        self._tokens: dict[str, np.ndarray] = {}

    def embed(self, prompt: str) -> np.ndarray:
        vector = self._vectors.get(prompt)
        if vector is None:
            vector = encode_prompt(prompt, self.dim, self.seed, self._tokens)
            vector.flags.writeable = False  # shared by every later embed of this prompt
            self._vectors[prompt] = vector
        return vector


class ZeroTextSource:
    """Text source that returns the zero vector for every prompt.

    Used by the context-ablation variant: the model keeps its full parameter
    set but the text pathway carries no information.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def embed(self, prompt: str) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.float64)


class EmbeddingCache:
    """Read-only embeddings by prompt SHA-256, filled once by `precompute_cache` or `load_cache`."""

    def __init__(self, dim: int):
        self.dim = dim
        self._entries: dict[str, TextEmbedding] = {}

    def lookup(self, prompt: str) -> TextEmbedding:
        sha = _prompt_sha(prompt)
        entry = self._entries.get(sha)
        if entry is None:
            raise CacheMiss(f"prompt not cached (SHA-256 {sha}): {prompt[:80]!r}")
        return entry

    def embed(self, prompt: str) -> np.ndarray:
        return self.lookup(prompt).vector


def precompute_cache(prompts, dim: int, seed: int = 0) -> EmbeddingCache:
    """Fill a new cache from the encoder: each distinct prompt encoded once, each token once."""
    cache, tokens = EmbeddingCache(dim=dim), {}
    for prompt in dict.fromkeys(prompts):
        vector = encode_prompt(prompt, dim, seed, tokens)
        vector.flags.writeable = False  # every later lookup hands out this array
        cache._entries[_prompt_sha(prompt)] = TextEmbedding(vector=vector, key=prompt_key(prompt))
    return cache


def save_cache(cache: EmbeddingCache, path) -> None:
    """Write the cache file; entries sorted by key, then SHA-256, so rebuilds are byte-identical.

    The header line, then one JSON line per entry, each written as it is made, so only
    one entry's text is alive at once. Two sorts order the entries without a tuple each.
    """
    with open(path, "w", encoding="utf-8") as fh:
        print(f"SMET-EMB v1 dim={cache.dim}", file=fh)
        for sha in sorted(sorted(cache._entries), key=lambda sha: cache._entries[sha].key):
            entry = cache._entries[sha]
            print(json.dumps({"key": entry.key, "prompt_sha256": sha,
                              "values": entry.vector.tolist()}, separators=(",", ":")), file=fh)


def load_cache(path) -> EmbeddingCache:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n")
            match = CACHE_HEADER_RE.match(header)
            if not match:
                raise CorruptCache(f"bad cache header: {header!r}")
            dim = int(match.group(1))
            cache = EmbeddingCache(dim=dim)
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    key, sha = obj["key"], obj["prompt_sha256"]
                    vector = np.asarray(obj["values"], dtype=np.float64)
                    seen = cache._entries.get(sha)  # a TypeError if the SHA-256 is unhashable
                except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
                    raise CorruptCache(f"line {lineno}: {exc}") from exc
                if vector.shape != (dim,):
                    raise CorruptCache(f"line {lineno}: values shape {vector.shape}, "
                                       f"header dim={dim}")
                if not np.isfinite(vector).all():
                    raise CorruptCache(f"line {lineno}: values are not all finite")
                if seen is not None and not np.array_equal(seen.vector, vector):
                    raise CorruptCache(f"line {lineno}: SHA-256 {sha} repeated with other values")
                vector.flags.writeable = False
                cache._entries[sha] = TextEmbedding(vector=vector, key=key)
        except UnicodeDecodeError:  # the text layer decodes ahead of the line it hands out
            raise CorruptCache(f"{path}: not UTF-8 text") from None
    return cache
