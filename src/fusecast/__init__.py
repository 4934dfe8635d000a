"""Time series forecasting with prompt-fused mixture-of-experts routing.

Context windows are cut into fixed-length segments; each segment is
summarized as a short text prompt (time range plus simple statistics),
embedded, and fused with a learned value embedding through a sigmoid gate.
A small causal backbone contextualizes the sequence and a softmax-gated
set of linear experts emits the next segment. Gradients are hand-written
reverse mode, everything is float64, and all randomness is seeded.
"""

__version__ = "0.1.0"
