"""The package's public surface: every name, wherever it is imported from."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockext

# Every public name of `blockext`, with the submodule that defines it.
PUBLIC = {
    "bench": ("FpgaModel", "GateCostModel", "SpeedProjection", "gate_count",
              "measure_throughput", "projected_speed"),
    "extractor": ("Extraction", "OutputChunk", "ext_ip", "extract_eq", "extract_neq"),
    "gf2q": ("GFContext", "MAX_FIELD_BITS", "field", "is_irreducible"),
    "params": ("EqPlan", "NeqPlan", "error_bound_block", "error_bound_eq", "error_bound_neq",
               "extraction_rate", "plan_eq", "plan_neq"),
    "report": ("ExtractionReport", "plan_from_text", "plan_to_text"),
    "sources": ("MinEntropyCertificate", "SourceModel", "certify_forward_block", "file_source",
                "generate", "iid_biased", "iid_table", "joint_table", "markov"),
    "verify": ("BiasReport", "DistanceReport", "check_extractor_distance",
               "check_first_bit_bijection", "check_hadamard", "check_one_bit_bias",
               "check_xor_lemma_instance", "hadamard_instances"),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_the_defining_modules_own_object(module, name):
    value = getattr(blockext, name)
    assert value is getattr(importlib.import_module(f"blockext.{module}"), name)
    assert name in dir(blockext)
    assert name in blockext.__all__


def test_all_lists_every_public_name_once():
    names = [n for names in PUBLIC.values() for n in names]
    assert len(names) == 43
    assert sorted(blockext.__all__) == sorted(names)


def test_submodules_import_from_the_package():
    from blockext import bench, sources, verify

    assert verify is sys.modules["blockext.verify"]
    assert {bench.__name__, sources.__name__} == {"blockext.bench", "blockext.sources"}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        blockext.no_such_name


def test_import_loads_the_extraction_path_only():
    env_path = str(Path(blockext.__file__).resolve().parents[1])
    lazy = ("blockext.verify", "blockext.sources", "blockext.bench", "json")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blockext; print(sorted(m for m in "
         f"{(*lazy, 'numpy', 'blockext.extractor')!r} if m in sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=env_path), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['blockext.extractor', 'numpy']\n"
