"""Exact extraction of low-doubling subsets from high-energy additive sets.

The library computes additive energy, partitions differences by popularity,
and extracts a subset whose difference set is provably small relative to
its size, with every inequality certified in exact integer and rational
arithmetic.  See the README for the pipeline and the file formats.
"""

from .additive_stats import (
    EnergyReport,
    RepTable,
    energy,
    rep_table,
)
from .bsg import (
    ExtractionReport,
    Params,
    PartitionPQ,
    PWitness,
    QWitness,
    extract,
    extract_p,
    extract_q,
    partition_pq,
)
from .errors import AsetFormatError, InvariantViolation
from .generators import (
    GenSpec,
    SplitMix64,
    gen_ap,
    gen_axis,
    gen_ball,
    gen_random,
    sample_subset,
)
from .groups import (
    AdditiveSet,
    Element,
    GroupSpec,
    parse_set,
    serialize_set,
)
from .numeric_lemma import (
    PrefixSelection,
    select_index_set,
)
from .oracle import (
    CheckRecord,
    VerificationResult,
    verify_report_dict,
)
from .relation_lemma import Relation, TvWitness, extract_tv

__version__ = "0.1.0"

__all__ = [
    "AdditiveSet",
    "AsetFormatError",
    "CheckRecord",
    "Element",
    "EnergyReport",
    "ExtractionReport",
    "GenSpec",
    "GroupSpec",
    "InvariantViolation",
    "Params",
    "PartitionPQ",
    "PrefixSelection",
    "PWitness",
    "QWitness",
    "Relation",
    "RepTable",
    "SplitMix64",
    "TvWitness",
    "VerificationResult",
    "energy",
    "extract",
    "extract_p",
    "extract_q",
    "extract_tv",
    "gen_ap",
    "gen_axis",
    "gen_ball",
    "gen_random",
    "parse_set",
    "partition_pq",
    "rep_table",
    "sample_subset",
    "select_index_set",
    "serialize_set",
    "verify_report_dict",
]
