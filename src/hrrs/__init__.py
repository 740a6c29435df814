"""Content-based retrieval for remote-sensing CNN features.

Pipeline: feature tensors from files -> codebooks (k-means / GMM) ->
descriptor aggregation (BOVW / VLAD / IFK) or a trainable mlpconv+GAP head ->
L2 nearest-neighbor retrieval -> ANMRR / mAP / P@k scoring.
"""

from .codebooks import (
    Codebook,
    GmmModel,
    gmm_fit,
    gmm_responsibilities,
    kmeans_fit,
)
from .encoders import (
    EncodedFeature,
    encode_bovw,
    encode_fc,
    encode_ifk,
    encode_vlad,
    extract_descriptors,
    fisher_vector_raw,
    l2_normalize,
    power_normalize,
    vlad_residuals,
)
from .evaluation import (
    EvalProtocol,
    EvalReport,
    QueryJudgment,
    anmrr,
    average_precision,
    evaluate_dataset,
    mean_ap,
    nmrr,
    precision_at_k,
    write_report,
)
from .head import (
    HeadConfig,
    MlpconvHead,
    TrainConfig,
    TrainState,
    head_backward,
    head_feature,
    head_forward,
    head_init,
    head_train,
    param_count,
    softmax_xent,
)
from .reduction import PcaModel, pca_apply, pca_fit
from .retrieval import Index, build_index, rank
from .tensor_store import (
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    TensorFormatError,
    gen_synthetic,
    load_manifest,
    read_tensor,
    save_manifest,
    write_synthetic,
    write_tensor,
)

__version__ = "0.1.0"
