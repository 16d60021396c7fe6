"""Subword basis induction and pronunciation lexicon composition for
proper-name corpora."""

from .corpus import (
    Corpus,
    CorpusError,
    EmptyCorpusError,
    NameRecord,
    frequency_rank,
    load_names,
    normalize,
)
from .engine import (
    IterationStats,
    RunConfig,
    check_convergence,
    global_cost,
    grid_search_weights,
    run_alg1,
    run_alg2,
    seed_basis,
    segment_corpus,
    trivial_case_a,
    trivial_case_b,
)
from .features import (
    ALG1_DEFAULT_WEIGHTS,
    ALG2_DEFAULT_WEIGHTS,
    WeightSet,
)
from .lexicon import (
    Lexicon,
    LexiconError,
    TranscriptionEntry,
    TranscriptionTable,
    build_lexicon,
    compose,
    emit_lexicon,
    load_transcriptions,
)
from .ortho import (
    Basis,
    count_constructions,
    first_construction,
    is_constructible,
    is_ortho,
    make_ortho,
)
from .segmenter import (
    SequenceCandidate,
    candidate_words,
)
from .syntax import CharClassTable, accepts_syntax

__version__ = "0.1.0"
