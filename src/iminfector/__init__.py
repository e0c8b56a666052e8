"""Influence maximization from diffusion cascades.

Learn influencer/susceptible embeddings from cascade logs with a two-headed
shallow network, distill them into a pruned diffusion-probability matrix,
pick seeds by lazy greedy, and score seed sets by distinct nodes influenced
on a held-out split.
"""

__version__ = "0.1.0"

from .cascades import (
    Cascade,
    CascadeCorpus,
    EdgeList,
    build_corpus,
    derive_edges,
    edge_list,
    initiator_stats,
    load_cascades,
    load_edges,
    parse_cascades,
    parse_edges,
    save_cascades,
    serialize_cascades,
    temporal_split,
)
from .context import (
    SIZE_PAIR,
    TrainingStream,
    build_training_stream,
    sampling_weights,
    size_targets,
)
from .diffusion import (
    DiffusionMatrix,
    SpreadBudget,
    build_matrix,
    compute_budgets,
    load_matrix,
    save_matrix,
)
from .evaluation import (
    EvaluationResult,
    avg_size_ranking,
    core_numbers,
    dni,
    kcore_ranking,
)
from .exceptions import (
    AllZeroNorms,
    CascadeFormatError,
    CorruptFile,
    DegenerateSplit,
    EmptyCascade,
    EmptyMatrix,
    FormatVersionMismatch,
    MalformedLine,
    NonFiniteMatrix,
    NonFiniteUpdate,
    TimeOrderViolation,
)
from .model import (
    InfectorModel,
    ModelConfig,
    TrainReport,
    forward_classify,
    forward_regress,
    init_model,
    load_embeddings,
    save_embeddings,
    step_classify,
    step_regress,
    train,
)
from .seeding import (
    SeedSelection,
    SelectedSeed,
    select_seeds_celf,
    select_seeds_naive,
    sigma,
)
from .synth import generate_corpus, lure_ids, planted_ids
