"""Frame-level localization of spliced synthetic speech.

The package takes precomputed front-end feature matrices (one column
per time frame), learns an embedding space that separates genuine from
spoofed frames with cosine hinge losses, modulates a temporal
convolution stack with local neighbor similarities, and scores every
160 ms label frame as real or fake. Evaluation pools frame scores over
a corpus and reports EER, precision, recall, and F1 with padding
excluded.
"""

from .data import (
    DatasetStats,
    FeatureSequence,
    FrameLabels,
    Segment,
    SegmentAnnotation,
    SynthSpec,
    compile_labels,
    dataset_stats,
    desk_benchmark_spec,
    load_feature_file,
    stream_dataset,
    synth_dataset,
    write_dataset,
    write_feature_file,
)
from .errors import (
    AnnotationError,
    ConfigError,
    FormatError,
    MetricError,
    NumericError,
    ShapeError,
    TdlError,
    ValidationError,
)
from .esm import EsmConfig, EsmLoss, esm_loss_from_arrays
from .metrics import (
    EvalPool,
    compute_report,
    eer,
    precision_recall_f1,
    render_report,
)
from .model import (
    TdlConfig,
    TdlModel,
    TrainRecord,
    TrainResult,
    build_model,
    desk_config,
    forward,
    gradcheck_battery,
    load_checkpoint,
    full_scale_config,
    param_count_table,
    predict,
    save_checkpoint,
    score_pool,
    total_loss,
    train,
)
from .nn import (Conv1dLayer, FcLayer, OptimizerConfig, adam_step, bce_loss,
                 count_params, grad_check)
from .tconv import neighbor_similarity, tconv_backward, tconv_forward

__version__ = "0.1.0"
