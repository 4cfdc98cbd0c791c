"""Graph-based speaker clustering for overlap-aware diarization.

Segment embeddings become a cosine affinity graph, a GCN refines the
local linkages, Leiden community detection assigns primary speakers, and
belonging coefficients add second speakers on overlapped frames.
"""

from .gcn import GcnWeights, gcn_forward, load_weights, save_weights, train
from .graphs import (
    EmbeddingSet,
    SpeakerGraph,
    SubGraph,
    build_subgraph,
    cosine_affinity,
    knn_graph,
    merge_subgraphs,
    read_embeddings,
    write_embeddings,
)
from .leiden import LeidenConfig, Partition, leiden
from .osd import (
    OverlapMask,
    apply_overlap,
    belonging_coefficients,
    read_overlap_mask,
    second_community,
    write_overlap_mask,
)
from .pipeline import (
    MODES,
    PipelineConfig,
    read_vad_regions,
    run_pipeline,
    segment_speech,
    write_vad_regions,
)
from .scoring import DerBreakdown, der, rttm_speaker_counts, speaker_count_mse
from .timeline import DiarizationTimeline, RttmRecord, read_rttm, write_rttm

__version__ = "0.1.0"
