"""The package's public names: pinned, unique, resolvable, and library-only."""

import cuspcheck
import cuspcheck.cli
from cuspcheck import arthur, engine, errors, partitions, satake, smallrep

PUBLIC = [
    "ArthurParameter", "Assumption", "BoundsReport", "CharacterLabel", "CuspcheckError",
    "Existence", "FamilyMatch", "FieldKind", "Firing", "GroupFamily", "InternalInvariantViolation",
    "InvalidArgument", "InvalidPartition", "InvalidWeight", "Order", "OrderChoice",
    "ParameterError", "Partition", "ScanCell", "SelfDualType", "SimpleParameter", "SmallFamily",
    "Status", "ThetaBound", "Triviality", "Verdict", "barbasch_vogan_dual", "bounds",
    "check_r_theta", "compare_dominance", "compare_lex", "conjectured_so_lower_bound",
    "dominance_le", "expansion", "grs_max_weight", "grs_minimal_partition",
    "hypercuspidal_existence", "is_grs_admissible", "is_realizable", "is_special", "lex_le",
    "nonsingular_expansion", "nonsingular_partition", "parse_parameter", "parse_partition",
    "partitions_of", "rank_only_bound", "render_parameter", "satake_exponent_bound", "scan",
    "small_family_match", "symplectic_collapse", "verdict",
]  # fmt: skip


def test_public_names_are_pinned_and_unique():
    assert sorted(cuspcheck.__all__) == PUBLIC
    assert len(set(cuspcheck.__all__)) == len(cuspcheck.__all__)


def test_every_name_resolves_to_its_module_object():
    for module in (errors, partitions, arthur, engine, satake, smallrep):
        for name in module.__all__:
            assert getattr(cuspcheck, name) is getattr(module, name), name


def test_nothing_from_the_cli_is_exported():
    assert not set(cuspcheck.__all__) & set(cuspcheck.cli.__all__)
    for name in cuspcheck.__all__:
        assert getattr(getattr(cuspcheck, name), "__module__", None) != "cuspcheck.cli", name
