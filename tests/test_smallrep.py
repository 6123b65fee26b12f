import collections
import hashlib

import pytest

import cuspcheck.partitions
from cuspcheck import (
    ArthurParameter,
    CharacterLabel,
    Existence,
    FieldKind,
    GroupFamily,
    InvalidArgument,
    Partition,
    SelfDualType,
    SimpleParameter,
    SmallFamily,
    Triviality,
    conjectured_so_lower_bound,
    dominance_le,
    grs_minimal_partition,
    hypercuspidal_existence,
    is_grs_admissible,
    is_special,
    lex_le,
    nonsingular_expansion,
    nonsingular_partition,
    parse_parameter,
    small_family_match,
)

import oracles

P = Partition
TI = FieldKind.TOTALLY_IMAGINARY


class TestGrsMinimal:
    def test_invalid_inputs(self):
        for bad in (0, 7, -2):
            with pytest.raises(InvalidArgument):
                grs_minimal_partition(bad)

    def test_against_oracle(self):
        # An admissible partition of 2n lexicographically below every other
        # one is their lexicographic minimum.
        for two_n in range(2, 31, 2):
            got = grs_minimal_partition(two_n)
            assert got.weight == two_n and is_grs_admissible(got)
            for p in oracles.grs_with_parts_at_most(two_n, two_n):
                if p.weight == two_n:
                    assert lex_le(got, p), (two_n, p)


class TestNonsingular:
    def test_c_and_d_fixed(self):
        for n in range(1, 8):
            assert nonsingular_expansion(GroupFamily.C, n) == nonsingular_partition(GroupFamily.C, n)
            assert nonsingular_expansion(GroupFamily.D, n) == nonsingular_partition(GroupFamily.D, n)

    def test_b_expansion_properties(self):
        for n in range(2, 7):
            ns = nonsingular_partition(GroupFamily.B, n)
            exp = nonsingular_expansion(GroupFamily.B, n)
            assert is_special(exp, GroupFamily.B)
            assert dominance_le(ns, exp)
            assert exp == oracles.oracle_expansion(
                ns,
                admits=lambda q: q.weight % 2 == 1 and q.is_orthogonal(),
                special=lambda q: is_special(q, GroupFamily.B),
            )

    def test_displayed_shapes(self, monkeypatch):
        # The closed form needs no enumeration, so it reaches n = 1000.
        def no_enumeration(*args, **kwargs):
            raise AssertionError("expansion enumerated partitions")

        monkeypatch.setattr(cuspcheck.partitions, "partitions_of", no_enumeration)
        for e in range(1, 501):
            assert nonsingular_expansion(GroupFamily.B, 2 * e) == P([3] + [2] * (2 * e - 2) + [1, 1])
            assert nonsingular_expansion(GroupFamily.B, 2 * e + 1) == P([3] + [2] * (2 * e - 2) + [1] * 4)


class TestTablesOverRuns:
    SIZES = [*range(1, 301), 10**9]

    @staticmethod
    def expected(family, n):
        # (nonsingular, expansion, conjectured bound) as runs, zero
        # multiplicities dropped; the bound is None where none is displayed.
        def runs(*pairs):
            return [(v, m) for v, m in pairs if m]

        e, odd = divmod(n, 2)
        if family is GroupFamily.C:
            return runs((2, n)), runs((2, n)), None
        if family is GroupFamily.D:
            ns = runs((2, 2 * e), (1, 2 * odd))
            bound = runs((5, 1), (3, e - 1), (1, e)) if odd else runs((3, e), (1, e))
            return ns, ns, bound if n > 1 else None
        ns = runs((2, 2 * e), (1, 1 + 2 * odd))
        exp = ns if n == 1 else runs((3, 1), (2, 2 * e - 2), (1, 2 + 2 * odd))
        return ns, exp, runs((3, e + odd), (1, e + 1 - odd))

    def test_displayed_shapes_build_no_value_lists(self, monkeypatch):
        grs = {n: grs_minimal_partition(2 * n).exponents() for n in self.SIZES}

        def no_value_list(self, values=()):
            raise AssertionError("a table entry was built from a value list")

        monkeypatch.setattr(Partition, "__init__", no_value_list)
        cases = [(f, n) for f in GroupFamily for n in self.SIZES]
        cases += [(f, 10**30) for f in (GroupFamily.B, GroupFamily.D)]
        for family, n in cases:
            ns, exp, bound = self.expected(family, n)
            assert nonsingular_partition(family, n).exponents() == ns
            assert nonsingular_expansion(family, n).exponents() == exp
            if bound is not None:
                assert conjectured_so_lower_bound(family, n).exponents() == bound
            if family is GroupFamily.C:
                assert grs_minimal_partition(2 * n).exponents() == grs[n]
        assert small_family_match(parse_parameter("(3o,5)")).claimed_pm.exponents() == [(2, 7)]

    def test_grs_minimal_at_scale(self):
        # First part T = 44722 is the least even T with T(T+2) >= 2*10**9.
        got = grs_minimal_partition(2 * 10**9)
        assert got.weight == 2 * 10**9 and is_grs_admissible(got)
        assert len(got.exponents()) == 22361 and got.part_at(0) == 44722

    def test_runs_above_the_cap_rejected(self):
        with pytest.raises(InvalidArgument, match="runs"):
            grs_minimal_partition(2 * 10**30)


class TestConjecturedLowerBound:
    @pytest.mark.parametrize(
        "family,n,expected",
        [
            pytest.param(family, n, expected, id=f"{family.name}{n}")
            for family, n, expected in [
                (GroupFamily.B, 4, [3, 3, 1, 1, 1]),
                (GroupFamily.B, 5, [3, 3, 3, 1, 1]),
                (GroupFamily.D, 4, [3, 3, 1, 1]),
                (GroupFamily.D, 5, [5, 3, 1, 1]),
                (GroupFamily.B, 1, [3]),
                (GroupFamily.D, 3, [5, 1]),
            ]
        ],
    )
    def test_values(self, family, n, expected):
        assert conjectured_so_lower_bound(family, n) == P(expected)

    def test_weights(self):
        for n in range(2, 9):
            assert conjectured_so_lower_bound(GroupFamily.B, n).weight == 2 * n + 1
            assert conjectured_so_lower_bound(GroupFamily.D, n).weight == 2 * n

    def test_family_c_rejected(self):
        with pytest.raises(InvalidArgument):
            conjectured_so_lower_bound(GroupFamily.C, 4)

    def test_degenerate_d_rejected(self):
        with pytest.raises(InvalidArgument):
            conjectured_so_lower_bound(GroupFamily.D, 1)


def _summand(label, rank, mult, triviality):
    """A summand of the type its multiplicity allows; ``triviality`` None keeps
    the default character (label ``1`` trivial, anything else unknown)."""
    char = None if triviality is None else CharacterLabel(label, triviality)
    return SimpleParameter(label, rank, mult, "symplectic" if mult % 2 == 0 else "orthogonal", char)


def _family_grid():
    """Every ``(1,b)+(2,m)`` with odd b < 40 and m < 40 in both orders, rank-1
    labels ``1`` and ``x``; every ``(3o,b)`` with b < 100; each with four
    central characters; then every ``oracles.shape_domain()`` parameter."""
    characters = [None, *Triviality]
    for b in range(1, 40, 2):
        for m in range(1, 40):
            t = _summand("t", 2, m, None)
            for label in ("1", "x"):
                for triviality in characters:
                    c = _summand(label, 1, b, triviality)
                    yield ArthurParameter([c, t])
                    yield ArthurParameter([t, c])
    for b in range(1, 100, 2):
        for triviality in characters:
            yield ArthurParameter([_summand("t", 3, b, triviality)])
    for pairs in oracles.shape_domain():
        yield oracles.build_parameter(pairs)


class TestSmallFamilyMatch:
    def test_saito_kurokawa_even(self):
        m = small_family_match(parse_parameter("(2s,4)+(1c,1)"))
        assert m.family is SmallFamily.SAITO_KUROKAWA_EVEN
        assert m.claimed_pm == P([2, 2, 2, 2])

    def test_saito_kurokawa_odd(self):
        m = small_family_match(parse_parameter("(2o,5)+(1o:w,1)"))
        assert m.family is SmallFamily.SAITO_KUROKAWA_ODD
        assert m.claimed_pm == P([2] * 5)

    def test_rank3_tower(self):
        m = small_family_match(parse_parameter("(3o,5)"))
        assert m.family is SmallFamily.RANK3_TOWER
        assert m.claimed_pm == P([2] * 7)

    def test_multiplicity_below_range_rejected(self):
        # 2i < e means the character multiplicity is too large for the family.
        m = small_family_match(parse_parameter("(2s,2)+(1c,9)"))  # n = 6, e = 3, 2i = 2 < 3
        assert m.family is SmallFamily.NONE

    def test_in_range_interior_point(self):
        m = small_family_match(parse_parameter("(2s,2)+(1c,5)"))  # n = 4, e = 2, 2i = 2
        assert m.family is SmallFamily.SAITO_KUROKAWA_EVEN

    def test_no_match_for_other_shapes(self):
        assert small_family_match(parse_parameter("(5o,1)+(2s,8)")).family is SmallFamily.NONE
        assert small_family_match(parse_parameter("(1c,7)+(2s,2)")).family is SmallFamily.NONE

    def test_generic_never_matches(self):
        for text in ["(3o,1)", "(2o,1)+(1c,1)", "(2s,1)+(1c,1)"]:
            try:
                psi = parse_parameter(text)
            except Exception:
                continue
            assert small_family_match(psi).family is SmallFamily.NONE

    def test_generic_random_never_matches(self):
        import random

        rng = random.Random(3)
        seen = 0
        for _ in range(200):
            psi = oracles.random_parameter(rng)
            if psi.is_generic():
                assert small_family_match(psi).family is SmallFamily.NONE
                seen += 1
        assert seen > 0

    def test_nontrivial_character_disqualifies_trivial_slot(self):
        psi = ArthurParameter(
            [
                SimpleParameter("tau", 2, 4, SelfDualType.SYMPLECTIC),
                SimpleParameter(
                    "chi", 1, 1, SelfDualType.ORTHOGONAL, CharacterLabel("chi", Triviality.NONTRIVIAL)
                ),
            ]
        )
        assert small_family_match(psi).family is SmallFamily.NONE

    def test_pinned_over_the_grid(self):
        """The family and claimed partition of every grid parameter, as counts
        and as one SHA-256 over the line ``f"{psi} {family} {claimed_pm}"`` of
        each parameter in order."""
        counts = collections.Counter()
        h = hashlib.sha256()
        for psi in _family_grid():
            m = small_family_match(psi)
            counts[m.family] += 1
            h.update(f"{psi} {m.family.value} {m.claimed_pm}\n".encode())
        assert counts == {
            SmallFamily.NONE: 14_964,
            SmallFamily.SAITO_KUROKAWA_EVEN: 1_859,
            SmallFamily.SAITO_KUROKAWA_ODD: 2_475,
            SmallFamily.RANK3_TOWER: 151,
        }
        assert h.hexdigest() == "90e5b98147cd5fbbbfb89f59eea0e8c49f24e900b31f028ec2796c839803e7b9"


class TestHypercuspidal:
    def test_thresholds(self):
        assert hypercuspidal_existence(5, TI) is Existence.NONE_EXIST
        assert hypercuspidal_existence(4, TI) is Existence.UNKNOWN
        assert hypercuspidal_existence(7, FieldKind.GENERAL) is Existence.UNKNOWN
        assert hypercuspidal_existence(9, TI) is Existence.NONE_EXIST

    def test_invalid_n(self):
        with pytest.raises(InvalidArgument):
            hypercuspidal_existence(0, TI)
