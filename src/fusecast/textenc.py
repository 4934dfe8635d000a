"""Deterministic prompt embeddings and their offline cache.

The encoder stands in for a frozen language model: each token hashes to a
fixed random sign vector, a causal exponential moving average contextualizes
the token stream, and the final state is the prompt embedding. It is a pure
function of (prompt bytes, dim, seed), so embeddings can be precomputed once
and cached. `encode_prompt` is the one encoder. Token vectors are memoized
once per process, keyed by (token, dim, seed). `PromptEncoder` is the
text-source adapter the commands embed through, and `precompute_cache` builds
the offline cache by calling `encode_prompt` directly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import CacheMiss, CorruptCache, EmptyPrompt, ShapeError

CACHE_HEADER_RE = re.compile(r"^SMET-EMB v1 dim=(\d+)$")
_EMA_DECAY = 0.5


def prompt_key(prompt: str) -> str:
    """64-bit content hash of the prompt bytes, as 16 hex chars."""
    return hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).hexdigest()


def _prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TextEmbedding:
    vector: np.ndarray
    sha: str  # SHA-256 of the prompt bytes, which tells a key collision from a hit


@functools.lru_cache(maxsize=None)
def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """Fixed ±1/√D sign vector for a token, keyed by (token, seed); memoized, read-only."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    signs = rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    vector = signs / np.sqrt(dim)
    vector.flags.writeable = False  # shared by every caller through the memo
    return vector


def encode_prompt(prompt: str, dim: int, seed: int) -> np.ndarray:
    """Embed a prompt: hash tokens to sign vectors, causal EMA, take the final state.

    Zero-init EMA with bias correction, so a single-token prompt returns that
    token's base vector exactly and the corrected state is always a convex
    combination of token vectors (norm never exceeds 1).
    """
    if dim < 1:
        raise ShapeError(f"embedding dim must be >= 1, got {dim}")
    tokens = re.findall(r"\w+", prompt)
    if not tokens:
        raise EmptyPrompt("prompt has no tokens")
    state = np.zeros(dim, dtype=np.float64)
    for step, token in enumerate(tokens, start=1):
        state = (1.0 - _EMA_DECAY) * _token_vector(token, dim, seed) + _EMA_DECAY * state
    return state / (1.0 - _EMA_DECAY**step)


class PromptEncoder:
    """On-the-fly text source backed by the builtin encoder."""

    def __init__(self, dim: int, seed: int):
        self.dim = dim
        self.seed = seed

    def embed(self, prompt: str) -> np.ndarray:
        return encode_prompt(prompt, self.dim, self.seed)


class ZeroTextSource:
    """Text source that returns the zero vector for every prompt.

    Used by the context-ablation variant: the model keeps its full parameter
    set but the text pathway carries no information.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def embed(self, prompt: str) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.float64)


def text_source(mode: str, dim: int, seed: int):
    """The text source a text mode names: "zero" or the builtin encoder."""
    if mode == "zero":
        return ZeroTextSource(dim)
    return PromptEncoder(dim, seed)


class EmbeddingCache:
    """Write-once map from prompt key to embedding, shared read-only afterwards."""

    def __init__(self, dim: int):
        self.dim = dim
        self._entries: dict[str, TextEmbedding] = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, prompt: str) -> bool:
        return prompt_key(prompt) in self._entries

    def add(self, prompt: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ShapeError(f"embedding shape {vector.shape} != ({self.dim},)")
        self._entries[prompt_key(prompt)] = TextEmbedding(vector=vector, sha=_prompt_sha(prompt))

    def lookup(self, prompt: str) -> TextEmbedding:
        key = prompt_key(prompt)
        entry = self._entries.get(key)
        if entry is None:
            raise CacheMiss(f"prompt not cached (key {key}): {prompt[:80]!r}")
        if entry.sha != _prompt_sha(prompt):
            raise CorruptCache(f"key {key} maps to a different prompt (hash collision or drift)")
        return entry

    def embed(self, prompt: str) -> np.ndarray:
        return self.lookup(prompt).vector


def precompute_cache(prompts, dim: int, seed: int) -> EmbeddingCache:
    """Encode every distinct prompt once."""
    cache = EmbeddingCache(dim=dim)
    for prompt in prompts:
        if prompt not in cache:
            cache.add(prompt, encode_prompt(prompt, dim, seed))
    return cache


def save_cache(cache: EmbeddingCache, path) -> None:
    """Write the cache file; entries sorted by key so rebuilds are byte-identical."""
    lines = [f"SMET-EMB v1 dim={cache.dim}"]
    for key in sorted(cache._entries):
        entry = cache._entries[key]
        lines.append(
            json.dumps(
                {
                    "key": key,
                    "prompt_sha256": entry.sha,
                    "values": entry.vector.tolist(),
                },
                separators=(",", ":"),
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cache(path) -> EmbeddingCache:
    with open(path, "r", encoding="utf-8") as fh:
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
                key, sha, values = obj["key"], obj["prompt_sha256"], obj["values"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorruptCache(f"line {lineno}: {exc}") from exc
            vector = np.asarray(values, dtype=np.float64)
            if vector.shape != (dim,):
                raise CorruptCache(f"line {lineno}: values shape {vector.shape}, header dim={dim}")
            if key in cache._entries and not np.array_equal(cache._entries[key].vector, vector):
                raise CorruptCache(f"line {lineno}: duplicate key {key} with different values")
            cache._entries[key] = TextEmbedding(vector=vector, sha=sha)
    return cache
