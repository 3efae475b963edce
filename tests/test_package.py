"""The top-level package: every public name, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tuhf

SRC = Path(__file__).resolve().parents[1] / "src"

# Each public name by the module that defines it, as the package listed
# them when it imported every module up front.
PUBLIC = {
    "errors": ("DomainError", "FormatError", "TuhfError"),
    "supernatural": (
        "INF", "SupernaturalNumber", "factorize", "is_prime", "multiply",
        "rational_pair_witness",
    ),
    "partitions": (
        "Order", "OrderedPartition", "OrderedSubpartition", "compare", "compose",
        "format_partition", "interleaved_runs", "ordered_partitions",
        "parse_partition", "psize_oracle", "restrict_prefix", "runs_of",
    ),
    "embeddings": (
        "RegularEmbedding", "alternating", "compare_embeddings", "compose_embeddings",
        "identity_embedding", "image_of_unit", "nest", "standard", "tensor_embed",
    ),
    "matrices": (
        "ComplexUpperTriangular", "DiagonalUnitary", "PartialPermutationMatrix",
        "apply_to_matrix", "conjugate_by_diagonal", "format_matrix",
        "normalizer_split", "parse_matrix", "recompose", "straighten_level",
    ),
    "towers": (
        "Descriptor", "TensorTower", "TowerSpec", "format_descriptor",
        "format_tower", "load_tower", "parse_descriptor",
    ),
    "gelfand": (
        "GelfandPoint", "RelationPair", "gelfand_compare",
        "gelfand_compare_via_projections", "parse_point", "projection_chain",
        "relation_member",
    ),
    "automorphisms": (
        "FiniteAutoData", "ShiftWord", "alternating_iso", "combine_tensor_autos",
        "common_infinite_primes", "detect_interval_form", "dirichlet_dimension_check",
        "factor_automorphism", "factor_report", "format_auto_data", "format_word",
        "lift_block_words", "load_auto_data", "materialize_word",
        "normalize_for_prime", "normalize_for_word", "out_rank", "parse_word",
        "shift_auto", "torsion_check", "validate_word", "word_action",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
# The modules a per-layer tracer reads off the package by name.
TRACED = (
    "cli", "checks", "automorphisms", "gelfand", "towers",
    "embeddings", "partitions", "matrices", "supernatural",
)


def _fresh_python(script):
    """stdout of ``script`` in a new interpreter that imports tuhf from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.stderr == ""
    return result.stdout


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_public_name_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from tuhf import {name}", namespace)
    owner = importlib.import_module(f"tuhf.{module}")
    assert namespace[name] is getattr(owner, name) is getattr(tuhf, name)


def test_dir_all_and_star_import_list_every_public_name():
    names = {name for _, name in NAMES}
    assert set(tuhf.__all__) == names and len(tuhf.__all__) == len(names)
    assert names <= set(dir(tuhf))
    assert set(TRACED) <= set(dir(tuhf))
    namespace = {}
    exec("from tuhf import *", namespace)
    assert names <= namespace.keys()
    assert all(namespace[name] is getattr(tuhf, name) for name in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        tuhf.no_such_name
    assert str(exc.value) == "module 'tuhf' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        exec("from tuhf import no_such_name", {})


def test_import_tuhf_loads_no_submodule_and_each_resolves_on_use():
    script = (
        "import sys\n"
        "import tuhf\n"
        "print(sorted(m for m in sys.modules if m.startswith('tuhf')))\n"
        f"for m in {TRACED!r}:\n"
        "    print(m, getattr(tuhf, m) is sys.modules['tuhf.' + m])\n"
    )
    assert _fresh_python(script).splitlines() == ["['tuhf']"] + [f"{m} True" for m in TRACED]


def test_a_name_loads_only_its_module_and_what_that_imports():
    script = (
        "import sys\n"
        "from tuhf import SupernaturalNumber\n"
        "print(sorted(m for m in sys.modules if m.startswith('tuhf')))\n"
    )
    assert _fresh_python(script) == "['tuhf', 'tuhf.errors', 'tuhf.supernatural']\n"
