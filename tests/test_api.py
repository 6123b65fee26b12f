"""The package's public names: pinned, unique, resolvable, and library-only;
its enum arguments, which take a member or its value and nothing else; its
integer arguments, which take an ``int`` and nothing else; its text
arguments, which take a ``str`` and nothing else; and its object arguments,
which take an instance of their class and nothing else."""

import pytest

import cuspcheck
import cuspcheck.cli
from cuspcheck import (
    ArthurParameter,
    Assumption,
    CharacterLabel,
    FieldKind,
    GroupFamily,
    InvalidArgument,
    InvalidPartition,
    OrderChoice,
    Partition,
    SelfDualType,
    SimpleParameter,
    Status,
    Triviality,
    arthur,
    bounds,
    conjectured_so_lower_bound,
    engine,
    errors,
    expansion,
    grs_max_weight,
    grs_minimal_partition,
    hypercuspidal_existence,
    is_special,
    nonsingular_partition,
    parse_parameter,
    parse_partition,
    partitions,
    partitions_of,
    rank_only_bound,
    satake,
    satake_exponent_bound,
    scan,
    smallrep,
    verdict,
)

PUBLIC = [
    "ArthurParameter", "Assumption", "BoundsReport", "CharacterLabel", "CuspcheckError",
    "Existence", "FamilyMatch", "FieldKind", "Firing", "GroupFamily", "InternalInvariantViolation",
    "InvalidArgument", "InvalidPartition", "InvalidWeight", "OrderChoice",
    "ParameterError", "Partition", "ScanCell", "SelfDualType", "SimpleParameter", "SmallFamily",
    "Status", "ThetaBound", "Triviality", "Verdict", "barbasch_vogan_dual", "bounds",
    "check_r_theta", "conjectured_so_lower_bound",
    "dominance_le", "expansion", "grs_max_weight", "grs_minimal_partition",
    "hypercuspidal_existence", "is_grs_admissible", "is_special", "lex_le",
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


TI = FieldKind.TOTALLY_IMAGINARY
SPEH = parse_parameter("(1c,1)+(4s,8)")

# (call taking one enum argument, a member of that argument's enum)
ENUM_CALLS = {
    "verdict-field": (lambda x: verdict(SPEH, x).to_dict(), TI),
    "verdict-assumption": (lambda x: verdict(SPEH, TI, [x]).to_dict(), Assumption.DOMINANCE_UPPER_BOUND_CONJ),
    "scan-field": (lambda x: [c.to_dict() for c in scan("(1c,$b)+(4s,8)", [("b", [1, 2])], x)], TI),
    "grs_max_weight": (lambda x: grs_max_weight(Partition([4, 2]), x), OrderChoice.DOMINANCE),
    "satake_exponent_bound": (lambda x: satake_exponent_bound(5, x), TI),
    "hypercuspidal_existence": (lambda x: hypercuspidal_existence(6, x), TI),
    "nonsingular_partition": (lambda x: nonsingular_partition(x, 5), GroupFamily.C),
    "conjectured_so_lower_bound": (lambda x: conjectured_so_lower_bound(x, 5), GroupFamily.B),
    "is_special": (lambda x: is_special(Partition([3, 1, 1]), x), GroupFamily.B),
    "expansion": (lambda x: expansion(Partition([2, 2, 1]), x), GroupFamily.B),
    "SimpleParameter-dual_type": (lambda x: SimpleParameter("b", 2, 2, x), SelfDualType.SYMPLECTIC),
    # Through the warning, which compares the triviality with the member.
    "CharacterLabel-triviality": (
        lambda x: ArthurParameter([SimpleParameter("a", 1, 3, SelfDualType.ORTHOGONAL, CharacterLabel("x", x))]).warnings,
        Triviality.NONTRIVIAL,
    ),
}


@pytest.mark.parametrize("name", ENUM_CALLS)
def test_enum_argument_takes_its_value_as_the_member(name):
    call, member = ENUM_CALLS[name]
    assert call(member.value) == call(member)


@pytest.mark.parametrize("garbage", ["nonsense", None, Status.UNDETERMINED])
@pytest.mark.parametrize("name", ENUM_CALLS)
def test_enum_argument_rejects_anything_else(name, garbage):
    call, _ = ENUM_CALLS[name]
    with pytest.raises(InvalidArgument):
        call(garbage)


def test_enum_value_gets_the_members_checks():
    # [2^2 1^2] has even weight: not a so-odd partition, whichever way B is named.
    with pytest.raises(InvalidPartition):
        expansion(Partition([2, 2, 1, 1]), "so-odd")


# call taking one integer argument
INT_CALLS = {
    "satake_exponent_bound": lambda x: satake_exponent_bound(x, TI),
    "hypercuspidal_existence": lambda x: hypercuspidal_existence(x, TI),
    "nonsingular_partition": lambda x: nonsingular_partition(GroupFamily.C, x),
    "conjectured_so_lower_bound": lambda x: conjectured_so_lower_bound(GroupFamily.D, x),
    "grs_minimal_partition": lambda x: grs_minimal_partition(x),
    "partitions_of": lambda x: list(partitions_of(x)),  # a generator: it checks on the first step
    "rank_only_bound": lambda x: rank_only_bound([x, 1]),
    "SimpleParameter-rank": lambda x: SimpleParameter("a", x, 1, SelfDualType.ORTHOGONAL),
    "SimpleParameter-mult": lambda x: SimpleParameter("a", 2, x, SelfDualType.SYMPLECTIC),
}


@pytest.mark.parametrize("garbage", [2.0, True, "5"])
@pytest.mark.parametrize("name", INT_CALLS)
def test_integer_argument_rejects_anything_else(name, garbage):
    with pytest.raises(InvalidArgument, match="must be an integer"):
        INT_CALLS[name](garbage)


# (call taking one text argument, the error it raises for anything else)
TEXT_CALLS = {
    "parse_partition": (parse_partition, InvalidPartition),
    "parse_parameter": (parse_parameter, InvalidArgument),
    "scan-template": (lambda x: scan(x, [("b", range(1, 3))]), InvalidArgument),
    "SimpleParameter-label": (lambda x: SimpleParameter(x, 1, 1, SelfDualType.ORTHOGONAL), InvalidArgument),
    "scan-slot-name": (lambda x: scan("(1c,$b)", [("b", [1]), (x, [1])]), InvalidArgument),
    "CharacterLabel-name": (CharacterLabel, InvalidArgument),
}


@pytest.mark.parametrize("garbage", [None, 5, b"(1c,3)"], ids=["none", "int", "bytes"])
@pytest.mark.parametrize("name", TEXT_CALLS)
def test_text_argument_rejects_anything_else(name, garbage):
    call, error = TEXT_CALLS[name]
    with pytest.raises(error, match="must be a string"):
        call(garbage)


# A call passing an object argument of the wrong class, one per argument.
OBJECT_CALLS = {
    "verdict": lambda: verdict("(1c,3)"),
    "bounds": lambda: bounds(None),
    "grs_max_weight": lambda: grs_max_weight([4, 2], "lex"),
    "ArthurParameter-summands": lambda: ArthurParameter(None),
    "ArthurParameter-summand": lambda: ArthurParameter("(1c,3)"),
    "SimpleParameter-central_char": lambda: SimpleParameter("a", 1, 3, SelfDualType.ORTHOGONAL, "chi"),
    "scan-ranges": lambda: scan("(1c,$b)", None),
    "scan-range": lambda: scan("(1c,$b)", [("b", 5)]),
}


@pytest.mark.parametrize("name", OBJECT_CALLS)
def test_object_argument_rejects_another_class(name):
    with pytest.raises(InvalidArgument, match=r"must be an? [A-Z]\w+, got "):
        OBJECT_CALLS[name]()
