"""Attributed-graph clustering: a GCN trained to maximize soft modularity,
with hard clusters extracted from the unit-sphere embeddings by BIRCH."""

from .birch import BirchParams, CfTree, birch_fit
from .gcn import (
    AdamState,
    GcnModel,
    GradientTape,
    adam_step,
    backward,
    gcn_forward,
    init_adam,
    init_model,
    load_checkpoint,
    save_checkpoint,
    selu,
    transform_embeddings,
)
from .graph import (
    UNLABELED,
    Graph,
    Partition,
    generate_sbm,
    load_features,
    load_graph,
    load_labels,
    load_pairs,
    load_partition,
    normalized_adjacency,
    write_partition,
)
from .losses import (
    AuxiliaryInfo,
    LossReport,
    aux_loss_labels,
    aux_loss_pairs,
    collapse_regularizer,
    modularity_loss,
    onehot_from_labels,
    total_loss,
)
from .metrics import MetricsReport, conductance, evaluate, modularity, nmi, pairwise_f1
from .pipeline import (
    RunArtifacts,
    RunConfig,
    cmd_eval,
    cmd_generate,
    cmd_scaling,
    cmd_train,
    derive_seed,
    train_single_seed,
    transform_forward,
)

__version__ = "0.1.0"
