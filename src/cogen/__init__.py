"""Collaborative text generation across a context-holding device model
and a context-blind cloud logit service."""

from .backends import (
    BackendKind,
    ConditioningInput,
    ContextBundle,
    NGramBackend,
    Role,
    TableBackend,
    perplexity,
    train_ngram,
)
from .combmodel import (
    CombExample,
    CombModelParams,
    CombTrainConfig,
    comb_forward,
    comb_grad,
    comb_init,
    comb_load,
    comb_loss,
    comb_save,
    comb_train,
    harvest_examples,
)
from .core import (
    SamplingConfig,
    TokenDistribution,
    Vocab,
    argmax_token,
    sample_top_p,
    softmax,
    top_k_project,
)
from .decoder import (
    DecodeMode,
    DecodeResult,
    GenerationSession,
    WeightTrace,
    decode,
    decode_single,
    fused_teacher_forced_ppl,
    read_trace,
    session_for_record,
    write_trace,
)
from .fusion import AlignedPair, FusionStrategy, align_supports, fuse
from .rng import Splitmix64
from .tokenizer import Tokenizer, build_vocab

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "BackendKind",
    "CombExample",
    "CombModelParams",
    "CombTrainConfig",
    "ConditioningInput",
    "ContextBundle",
    "DecodeMode",
    "DecodeResult",
    "FusionStrategy",
    "GenerationSession",
    "NGramBackend",
    "Role",
    "SamplingConfig",
    "Splitmix64",
    "TableBackend",
    "TokenDistribution",
    "Tokenizer",
    "Vocab",
    "WeightTrace",
    "align_supports",
    "argmax_token",
    "build_vocab",
    "comb_forward",
    "comb_grad",
    "comb_init",
    "comb_load",
    "comb_loss",
    "comb_save",
    "comb_train",
    "decode",
    "decode_single",
    "fuse",
    "fused_teacher_forced_ppl",
    "harvest_examples",
    "perplexity",
    "read_trace",
    "sample_top_p",
    "session_for_record",
    "softmax",
    "top_k_project",
    "train_ngram",
    "write_trace",
]
