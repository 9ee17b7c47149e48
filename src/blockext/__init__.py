"""Seedless two-source randomness extraction for block sources over GF(2^q).

The toolkit covers the full post-processing path for raw data from paired
independent entropy sources: exact parameter planning with log-domain error
bounds, streaming equal-block and incremental-block extraction built on the
inner product over binary fields, deterministic source simulators with
min-entropy certificates, brute-force verification oracles for the
underlying combinatorics, and cost models for hardware mapping.
"""

from .bench import (
    FpgaModel,
    GateCostModel,
    SpeedProjection,
    gate_count,
    measure_throughput,
    projected_speed,
)
from .extractor import Extraction, OutputChunk, ext_ip, extract_eq, extract_neq
from .gf2q import GFContext, MAX_FIELD_BITS, field, is_irreducible
from .params import (
    EqPlan,
    NeqPlan,
    error_bound_block,
    error_bound_eq,
    error_bound_neq,
    extraction_rate,
    plan_eq,
    plan_neq,
)
from .report import ExtractionReport, plan_from_text, plan_to_text
from .sources import (
    MinEntropyCertificate,
    SourceModel,
    certify_forward_block,
    file_source,
    generate,
    iid_biased,
    iid_table,
    joint_table,
    markov,
)
from .verify import (
    BiasReport,
    DistanceReport,
    check_extractor_distance,
    check_first_bit_bijection,
    check_hadamard,
    check_one_bit_bias,
    check_xor_lemma_instance,
    hadamard_instances,
)

__version__ = "0.1.0"
