"""Time series forecasting with prompt-fused mixture-of-experts routing.

Context windows are cut into fixed-length segments; each segment is
summarized as a short text prompt (time range plus simple statistics),
embedded, and fused with a learned value embedding through a sigmoid gate.
A small causal backbone contextualizes the sequence and a softmax-gated
set of linear experts emits the next segment. Gradients are hand-written
reverse mode, everything is float64, and all randomness is seeded.
"""

from .data import (
    NormStats,
    SplitRanges,
    SplitSpec,
    TimeSeriesFrame,
    WindowSample,
    compute_norm_stats,
    denormalize,
    extend_back,
    load_csv,
    make_splits,
    normalize,
    sample_windows,
    window_count,
)
from .descriptors import (
    PromptRecord,
    Segment,
    StatDescriptor,
    render_prompt,
    render_timestamp_descriptor,
    segment_series,
    stat_descriptor,
)
from .evaluation import (
    ForecastReport,
    LinearBaseline,
    ablation_run,
    forecast_report,
    forecast_windows,
    format_promotion,
    metrics,
    persistence_baseline,
    promotion_run,
    rolling_forecast,
    sweep_run,
)
from .model import (
    ForwardTrace,
    GateMatrix,
    ModelConfig,
    backbone_forward,
    backward,
    forward,
    fuse,
    gelu,
    init_params,
    load_checkpoint,
    moe_forward,
    predict_segment,
    save_checkpoint,
    segment_embed,
)
from .synth import SynthSpec, generate, save_csv
from .textenc import (
    EmbeddingCache,
    PromptEncoder,
    TextEmbedding,
    ZeroTextSource,
    encode_prompt,
    load_cache,
    precompute_cache,
    prompt_key,
    save_cache,
    text_source,
)
from .train import (
    OptState,
    TrainConfig,
    TrainResult,
    WindowTensors,
    adamw_step,
    assemble_windows,
    compute_loss,
    evaluate_windows,
    gradient_check,
    init_opt_state,
    train_model,
    window_tensors,
)

__version__ = "0.1.0"
