"""Point detection learned from point annotations via a three-stage
pipeline: decode ground truth into target maps, infer maps from images,
encode maps back into points; an outer loop searches the decoder space.
"""

import os
import sys
import warnings

__version__ = "0.1.0"

# msl runs its own threads: `train` gathers minibatches on a second thread,
# `infer_maps` infers on two, and `loop` can run worker processes, which
# inherit the environment. One BLAS thread per msl thread keeps them from
# contending for BLAS's own pool. BLAS reads these once, when numpy is
# first imported, so the pin takes effect only if msl is imported before
# numpy, and a warning says so otherwise; a value the user set is kept.
_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    warnings.warn(
        f"msl set {', '.join(_unset)} to 1 after numpy was imported, so BLAS keeps its own thread "
        "count and may contend with msl's threads; import msl before numpy, or set these variables "
        "before starting Python",
        RuntimeWarning,
    )
del _unset

from .data import (
    Dataset,
    ImageLattice,
    PointSet,
    Sample,
    SynthConfig,
    generate_dataset,
    generate_sample,
    split,
)
from .decoder import (
    DecoderParams,
    DecoderSpace,
    DecoderVariant,
    TargetMap,
    decode,
    decode_careful,
    decode_careless,
    decoder_grid,
)
from .encoder import EncoderParams, EncoderSpace, encode, encoder_grid, fit_encoder
from .inferrer import (
    Architecture,
    InferrerParams,
    TrainConfig,
    TrainResult,
    gradient,
    infer,
    infer_maps,
    init_params,
    train,
)
from .metrics import DetectionReport, Matching, detection_loss, match, report
from .pipeline import LearnedSolution, LoopEntry, LoopResult, Predictor, learn, loop, test

__all__ = [
    "__version__",
    "Architecture",
    "Dataset",
    "DecoderParams",
    "DecoderSpace",
    "DecoderVariant",
    "DetectionReport",
    "EncoderParams",
    "EncoderSpace",
    "ImageLattice",
    "InferrerParams",
    "LearnedSolution",
    "LoopEntry",
    "LoopResult",
    "Matching",
    "PointSet",
    "Predictor",
    "Sample",
    "SynthConfig",
    "TargetMap",
    "TrainConfig",
    "TrainResult",
    "decode",
    "decode_careful",
    "decode_careless",
    "decoder_grid",
    "detection_loss",
    "encode",
    "encoder_grid",
    "fit_encoder",
    "generate_dataset",
    "generate_sample",
    "gradient",
    "infer",
    "infer_maps",
    "init_params",
    "learn",
    "loop",
    "match",
    "report",
    "split",
    "test",
    "train",
]
