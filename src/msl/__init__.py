"""Point detection learned from point annotations via a three-stage
pipeline: decode ground truth into target maps, infer maps from images,
encode maps back into points; an outer loop searches the decoder space.
"""

__version__ = "0.1.0"

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
    init_params,
    train,
)
from .metrics import DetectionReport, Matching, detection_loss, match, report
from .pipeline import LearnedSolution, LoopEntry, LoopResult, learn, loop, test

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
    "init_params",
    "learn",
    "loop",
    "match",
    "report",
    "split",
    "test",
    "train",
]
