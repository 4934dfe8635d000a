"""Deterministic prompt embeddings and their offline cache.

The encoder stands in for a frozen language model: each token hashes to a
fixed random sign vector, a causal exponential moving average contextualizes
the token stream, and the final state is the prompt embedding. It is a pure
function of (prompt bytes, dim, seed), so embeddings can be precomputed once
and cached.
"""

from __future__ import annotations

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
    key: str


def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """Fixed ±1/√D sign vector for a token, keyed by (token, seed)."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    signs = rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    return signs / np.sqrt(dim)


def _ema_encode(prompt: str, dim: int, token_vector) -> np.ndarray:
    """Causal EMA over token vectors; the final bias-corrected state is returned.

    Zero-init EMA with bias correction, so a single-token prompt returns that
    token's base vector exactly and the corrected state is always a convex
    combination of token vectors (norm never exceeds 1).
    """
    tokens = re.findall(r"\w+", prompt)
    if not tokens:
        raise EmptyPrompt("prompt has no tokens")
    state = np.zeros(dim, dtype=np.float64)
    for step, token in enumerate(tokens, start=1):
        state = (1.0 - _EMA_DECAY) * token_vector(token) + _EMA_DECAY * state
    return state / (1.0 - _EMA_DECAY**step)


def encode_prompt(prompt: str, dim: int, seed: int) -> TextEmbedding:
    """Embed a prompt: hash tokens to sign vectors, causal EMA, take the final state."""
    if dim < 1:
        raise ShapeError(f"embedding dim must be >= 1, got {dim}")
    vector = _ema_encode(prompt, dim, lambda token: _token_vector(token, dim, seed))
    return TextEmbedding(vector=vector, key=prompt_key(prompt))


class PromptEncoder:
    """On-the-fly text source backed by the builtin encoder.

    Token vectors are memoized; prompts share a small vocabulary, so this cuts
    encoding cost without changing any output.
    """

    def __init__(self, dim: int, seed: int):
        self.dim = dim
        self.seed = seed
        self._tokens: dict[str, np.ndarray] = {}

    def _token(self, token: str) -> np.ndarray:
        vector = self._tokens.get(token)
        if vector is None:
            vector = _token_vector(token, self.dim, self.seed)
            self._tokens[token] = vector
        return vector

    def embed(self, prompt: str) -> np.ndarray:
        return _ema_encode(prompt, self.dim, self._token)


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
        self._shas: dict[str, str] = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, prompt: str) -> bool:
        return prompt_key(prompt) in self._entries

    def add(self, prompt: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ShapeError(f"embedding shape {vector.shape} != ({self.dim},)")
        key = prompt_key(prompt)
        self._entries[key] = TextEmbedding(vector=vector, key=key)
        self._shas[key] = _prompt_sha(prompt)

    def lookup(self, prompt: str) -> TextEmbedding:
        key = prompt_key(prompt)
        entry = self._entries.get(key)
        if entry is None:
            raise CacheMiss(f"prompt not cached (key {key}): {prompt[:80]!r}")
        sha = self._shas.get(key)
        if sha is not None and sha != _prompt_sha(prompt):
            raise CorruptCache(f"key {key} maps to a different prompt (hash collision or drift)")
        return entry

    def embed(self, prompt: str) -> np.ndarray:
        return self.lookup(prompt).vector


def precompute_cache(prompts, dim: int, seed: int) -> EmbeddingCache:
    """Encode every distinct prompt once."""
    cache = EmbeddingCache(dim=dim)
    for prompt in prompts:
        if prompt not in cache:
            cache.add(prompt, encode_prompt(prompt, dim, seed).vector)
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
                    "prompt_sha256": cache._shas[key],
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
            cache._entries[key] = TextEmbedding(vector=vector, key=key)
            cache._shas[key] = sha
    return cache
