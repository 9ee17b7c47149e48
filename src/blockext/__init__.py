"""Seedless two-source randomness extraction for block sources over GF(2^q).

The toolkit covers the full post-processing path for raw data from paired
independent entropy sources: exact parameter planning with log-domain error
bounds, streaming equal-block and incremental-block extraction built on the
inner product over binary fields, deterministic source simulators with
min-entropy certificates, brute-force verification oracles for the
underlying combinatorics, and cost models for hardware mapping.

The extraction path is imported with the package; the cost models, source
simulators and oracles (`bench`, `sources`, `verify`) load on first access
to one of their names, so an extract command never compiles them.
"""

import importlib

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

# Public name -> the submodule that defines it, imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(("FpgaModel", "GateCostModel", "SpeedProjection", "gate_count",
                     "measure_throughput", "projected_speed"), "bench"),
    **dict.fromkeys(("MinEntropyCertificate", "SourceModel", "certify_forward_block",
                     "file_source", "generate", "iid_biased", "iid_table", "joint_table",
                     "markov"), "sources"),
    **dict.fromkeys(("BiasReport", "DistanceReport", "check_extractor_distance",
                     "check_first_bit_bijection", "check_hadamard", "check_one_bit_bias",
                     "check_xor_lemma_instance", "hadamard_instances"), "verify"),
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__all__ = [
    "BiasReport", "DistanceReport", "EqPlan", "Extraction", "ExtractionReport", "FpgaModel",
    "GFContext", "GateCostModel", "MAX_FIELD_BITS", "MinEntropyCertificate", "NeqPlan",
    "OutputChunk", "SourceModel", "SpeedProjection", "certify_forward_block",
    "check_extractor_distance", "check_first_bit_bijection", "check_hadamard",
    "check_one_bit_bias", "check_xor_lemma_instance", "error_bound_block", "error_bound_eq",
    "error_bound_neq", "ext_ip", "extract_eq", "extract_neq", "extraction_rate", "field",
    "file_source", "gate_count", "generate", "hadamard_instances", "iid_biased", "iid_table",
    "is_irreducible", "joint_table", "markov", "measure_throughput", "plan_eq",
    "plan_from_text", "plan_neq", "plan_to_text", "projected_speed",
]

__version__ = "0.1.0"
