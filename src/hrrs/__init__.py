"""Content-based retrieval for remote-sensing CNN features.

Pipeline: feature tensors from files -> codebooks (k-means / GMM) ->
descriptor aggregation (BOVW / VLAD / IFK) or a trainable mlpconv+GAP head ->
L2 nearest-neighbor retrieval -> ANMRR / mAP / P@k scoring.
"""

__version__ = "0.4.0"
