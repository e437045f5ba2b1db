"""Numerical core for rotated-box license plate spotting.

Covers the full numeric surface of a single-anchor detector with a CTC
recognition head: rotated-box geometry and IoU, anchor target coding,
the loss suite, region feature extraction (RRoIAlign, deformable conv),
transcription, and the strict end-to-end spotting metric.
"""

from .anchors import (
    AnchorGrid,
    Assignment,
    BoxDelta,
    ShapeDelta,
    assign_targets,
    decode_delta,
    encode_delta,
    generate_anchors,
    refine_anchor,
)
from .ctc import (
    Alphabet,
    default_alphabet,
    ctc_loss,
    exact_match,
    greedy_decode,
)
from .dataio import (
    Annotation,
    PlateType,
    load_alphabet,
    parse_annotation_file,
    parse_predictions,
    save_alphabet,
    synth_fixture,
    write_predictions,
)
from .errors import (
    DegenerateQuadError,
    DomainError,
    ImageIdMismatchError,
    InfeasibleTargetError,
    ParseError,
    ShapeMismatchError,
)
from .feature_ops import (
    BiLstmParams,
    CropSpec,
    FeatureMap,
    LstmParams,
    bilstm_forward,
    conv2d_forward,
    deformable_conv2d_forward,
    roi_align,
    rroi_align,
    training_crop_boxes,
)
from .geometry import (
    Quad,
    RotatedBox,
    ScoredBox,
    quad_to_rbox,
    rbox_to_quad,
    rotated_iou,
    rotated_iou_matrix,
    rotated_nms,
)
from .losses import (
    DetLossWeights,
    EndToEndWeights,
    FocalParams,
    anchor_classification_loss,
    anchor_localization_loss,
    detection_loss,
    end_to_end_loss,
    focal_loss,
    refinement_loss,
    regression_loss,
    smooth_l1,
)
from .spotting import (
    SpottingCounts,
    SpottingItem,
    SpottingRecord,
    aggregate,
    match_image,
    match_records,
)

__version__ = "0.1.0"
