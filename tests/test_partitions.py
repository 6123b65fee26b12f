import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspcheck
from cuspcheck import (
    GroupFamily,
    InternalInvariantViolation,
    InvalidArgument,
    InvalidPartition,
    InvalidWeight,
    Partition,
    barbasch_vogan_dual,
    dominance_le,
    expansion,
    is_grs_admissible,
    is_special,
    lex_le,
    parse_partition,
    partitions_of,
    symplectic_collapse,
)
from cuspcheck.partitions import (
    _MAX_DIGITS,
    _MAX_PARSED_PARTS,
    _collapse,
    _family_admits,
    _read_int,
)

import oracles

P = Partition

partition_lists = st.lists(st.integers(min_value=1, max_value=24), max_size=14)


def by_input(rows):
    """``(p, expected)`` rows as parameters whose ids are the input, e.g. ``[4^2 1]``."""
    return [pytest.param(p, expected, id=str(P(p))) for p, expected in rows]


def all_upto(maxweight, step=1, start=0):
    for w in range(start, maxweight + 1, step):
        yield from oracles.all_partitions(w)


class TestConstruction:
    def test_normalize_sorts(self):
        assert P([2, 7, 2]).parts == (7, 2, 2)

    def test_empty_is_weight_zero(self):
        assert P([]).parts == () and P().weight == 0

    def test_zeros_dropped(self):
        assert P([1, 0, 3]).parts == (3, 1)

    def test_negative_rejected(self):
        with pytest.raises(InvalidPartition):
            P([3, -1])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidPartition):
            P([2.5])  # type: ignore[list-item]

    def test_hashable_and_eq(self):
        assert P([3, 2]) == P([2, 3]) and hash(P([3, 2])) == hash(P([2, 3]))

    def test_views_match_sorted_tuples(self):
        # The runs are the stored state; every part-by-part view must read
        # exactly as a plain non-increasing tuple would.
        def tuples(n, largest):
            if n == 0:
                yield ()
                return
            for first in range(min(n, largest), 0, -1):
                for rest in tuples(n - first, first):
                    yield (first,) + rest

        refs = [t for w in range(15) for t in tuples(w, w)]
        built = {}
        for ref in refs:
            p = P(reversed(ref))
            n = len(ref)
            assert p.parts == ref and tuple(p) == ref and len(p) == n
            assert p.weight == sum(ref) and bool(p) == bool(ref)
            assert [p.part_at(i) for i in range(-1, n + 2)] == [0, *ref, 0, 0]
            assert p.exponents() == [(v, ref.count(v)) for v in sorted(set(ref), reverse=True)]
            assert p == P(ref) and hash(p) == hash(P(ref))
            built[p] = ref
        assert len(built) == len(refs)

    @pytest.mark.parametrize("runs", [[(3, 1), (1, 2)], [(1, 10**9)]], ids=["[3 1^2]", "[1^1000000000]"])
    def test_repr_is_built_from_runs_and_evaluates_back(self, runs):
        # [1^1000000000] is the dual of (1c,1000000001): its repr lists runs, not parts.
        p = P._from_runs(runs)
        assert len(repr(p)) < 50
        assert eval(repr(p), vars(cuspcheck)) == p


class TestFromRuns:
    """``_from_runs`` is the one constructor that puts runs in canonical form."""

    def test_merges_and_drops_zeros(self):
        p = P._from_runs([(5, 1), (3, 2), (3, 1), (2, 0), (0, 4)])
        assert p == P([5, 3, 3, 3]) and hash(p) == hash(P([5, 3, 3, 3]))
        assert p.exponents() == [(5, 1), (3, 3)] and p.weight == 14

    def test_merges_across_a_dropped_run(self):
        assert P._from_runs([(4, 0), (4, 2), (2, 0), (2, 1)]).exponents() == [(4, 2), (2, 1)]
        assert P._from_runs([(0, 3)]) == P() and P._from_runs([]) == P()

    @pytest.mark.parametrize(
        "runs",
        [[(2, 1), (3, 1)], [(2, 0), (3, 1)], [(0, 1), (1, 1)], [(3, 1), (2, -1)], [(-1, 2)], [(3, -1), (2, 1)]],
    )
    def test_rising_or_negative_runs_rejected(self, runs):
        with pytest.raises(InternalInvariantViolation):
            P._from_runs(runs)


class TestTranspose:
    @pytest.mark.parametrize(
        "p,expected",
        by_input([
            ([7, 2, 2], [3, 3, 1, 1, 1, 1, 1]),
            ([8, 8, 1, 1, 1, 1, 1], [7, 2, 2, 2, 2, 2, 2, 2]),
            ([5, 5, 5, 2, 2, 2, 2], [7, 7, 3, 3, 3]),
            ([], []),
        ]),
    )
    def test_examples(self, p, expected):
        assert P(p).transpose() == P(expected)

    def test_involution_exhaustive(self):
        # Streamed rather than cached: a quarter-million partitions.
        for w in range(0, 41):
            for p in partitions_of(w):
                assert p.transpose().transpose() == p

    @settings(max_examples=200)
    @given(partition_lists)
    def test_involution_random(self, values):
        p = P(values)
        assert p.transpose().transpose() == p
        assert p.transpose().weight == p.weight


class TestDecrement:
    def test_examples(self):
        assert P([3, 1, 1, 1, 1, 1, 1]).decrement() == P([3, 1, 1, 1, 1, 1])
        assert P([7, 2, 2, 2, 2, 2, 2, 2]).decrement() == P([7, 2, 2, 2, 2, 2, 2, 1])
        assert P([1]).decrement() == P()

    def test_empty_rejected(self):
        with pytest.raises(InvalidPartition):
            P().decrement()

    def test_weight_drops_by_one(self):
        for p in all_upto(14, start=1):
            assert p.decrement().weight == p.weight - 1


class TestParity:
    def test_examples(self):
        assert P([3, 3, 1, 1, 1, 1]).is_symplectic()
        assert not P([7, 2, 2, 2, 2, 2, 2, 1]).is_symplectic()
        assert not P([5, 4]).is_orthogonal()

    def test_empty_is_both(self):
        assert P().is_symplectic() and P().is_orthogonal()


class TestCollapse:
    def test_worked_example(self):
        assert symplectic_collapse(P([7, 2, 2, 2, 2, 2, 2, 1])) == P([6, 2, 2, 2, 2, 2, 2, 2])

    def test_derived_example(self):
        assert symplectic_collapse(P([7, 2, 1])) == P([6, 2, 2])

    def test_fixes_symplectic(self):
        assert symplectic_collapse(P([3, 3, 1, 1, 1, 1])) == P([3, 3, 1, 1, 1, 1])

    def test_odd_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            symplectic_collapse(P([3, 2]))

    @pytest.mark.parametrize("parity", [0])
    def test_both_parities_against_oracle(self, parity):
        # Orthogonal partitions have any weight; the symplectic parity, which
        # needs even weight, is acceptance 7a.
        for p in all_upto(16):
            assert _collapse(p, parity) == oracles.oracle_collapse(p, parity), p

    def test_idempotent_and_fixed_points(self):
        for p in all_upto(14, step=2):
            c = symplectic_collapse(p)
            assert symplectic_collapse(c) == c
            if p.is_symplectic():
                assert c == p


def relation(le, p, q):
    """How ``p`` stands to ``q`` under the order ``le``, read off both directions."""
    return {(True, True): "Equal", (True, False): "Less", (False, True): "Greater"}.get(
        (le(p, q), le(q, p)), "Incomparable"
    )


class TestOrders:
    def test_lex_examples(self):
        assert relation(lex_le, P([4, 4, 4, 4, 2, 2, 2, 2]), P([6, 2, 2, 2, 2, 2, 2, 2])) == "Less"
        assert relation(lex_le, P([2, 2]), P([2, 2])) == "Equal"
        assert relation(lex_le, P([2, 2]), P([3, 1, 1])) == "Less"

    def test_dominance_examples(self):
        assert relation(dominance_le, P([3, 3, 1, 1, 1, 1]), P([2, 2, 2, 2, 2])) == "Incomparable"
        assert relation(dominance_le, P([4, 4, 2, 2, 2, 2]), P([6, 2, 2, 2, 2, 2, 2, 2])) == "Less"
        assert relation(dominance_le, P([2, 2]), P([2, 2])) == "Equal"
        # Multiplicities of 10^9: the walk goes over runs, never over parts.
        ones = P._from_runs([(1, 10**9)])
        assert relation(dominance_le, ones, P._from_runs([(2, 5 * 10**8)])) == "Less"
        assert relation(dominance_le, ones, P._from_runs([(3, 10**8), (1, 7 * 10**8)])) == "Less"

    def test_unequal_weights(self):
        # Dominance across weights forces |p| <= |q|.
        assert relation(dominance_le, P([2, 2]), P([3, 2, 2])) == "Less"
        assert relation(dominance_le, P([3, 2, 2]), P([2, 2])) == "Greater"
        assert relation(lex_le, P([2]), P([2, 1])) == "Less"

    def test_against_naive(self):
        pool = list(all_upto(10))
        for p in pool:
            for q in pool:
                assert dominance_le(p, q) == oracles.naive_dominance_le(p, q)
                assert lex_le(p, q) == oracles.naive_lex_le(p, q)

    @settings(max_examples=200)
    @given(partition_lists, partition_lists)
    def test_dominance_implies_lex(self, a, b):
        p, q = P(a), P(b)
        if relation(dominance_le, p, q) == "Less":
            assert relation(lex_le, p, q) == "Less"


class TestBarbaschVoganDual:
    @pytest.mark.parametrize(
        "p,expected",
        by_input([
            ([1] * 11, [10]),
            ([4, 4, 1], [2, 2, 2, 2]),
            ([5, 5, 5], [3, 3, 3, 3, 2]),
            ([5, 3, 3, 1, 1], [4, 4, 2, 2]),
        ]),
    )
    def test_goldens(self, p, expected):
        assert barbasch_vogan_dual(P(p)) == P(expected)

    def test_even_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            barbasch_vogan_dual(P([2, 2]))


class TestSpecial:
    def test_known_verdicts(self):
        assert is_special(P([2, 2, 2, 2]), GroupFamily.C)
        assert not is_special(P([2, 2, 1]), GroupFamily.B)
        assert not is_special(P([2, 1, 1]), GroupFamily.C)

    def test_verdict_families(self):
        for e in range(1, 4):
            assert is_special(P([2] * (2 * e) + [1]), GroupFamily.B) is False
            assert is_special(P([2] * (2 * e) + [1, 1, 1]), GroupFamily.B) is False
            assert is_special(P([2] * (2 * e)), GroupFamily.D)
            assert is_special(P([2] * (2 * e) + [1, 1]), GroupFamily.D)
        for n in range(1, 8):
            assert is_special(P([2] * n), GroupFamily.C)

    def test_inadmissible_rejected(self):
        with pytest.raises(InvalidPartition):
            is_special(P([3, 1]), GroupFamily.C)  # not symplectic

    def test_sp_specials_match_duality_image(self):
        # The special symplectic partitions of 2n are exactly the duals of
        # the orthogonal partitions of 2n+1.
        for two_n in range(2, 13, 2):
            image = {
                barbasch_vogan_dual(q)
                for q in oracles.all_partitions(two_n + 1)
                if q.is_orthogonal()
            }
            direct = {
                p
                for p in oracles.all_partitions(two_n)
                if p.is_symplectic() and is_special(p, GroupFamily.C)
            }
            assert image == direct


class TestExpansion:
    def test_known_values(self):
        assert expansion(P([2, 2, 2, 2, 1]), GroupFamily.B) == P([3, 2, 2, 1, 1])
        assert expansion(P([2, 2, 1, 1, 1]), GroupFamily.B) == P([3, 1, 1, 1, 1])

    def test_special_fixed_point(self):
        assert expansion(P([2, 2, 2, 2]), GroupFamily.C) == P([2, 2, 2, 2])
        assert expansion(P([2, 2, 1, 1]), GroupFamily.D) == P([2, 2, 1, 1])

    def test_against_oracle(self):
        for family in GroupFamily:
            for w in range(1, 19):
                for p in oracles.all_partitions(w):
                    if not _family_admits(p, family):
                        continue
                    got = expansion(p, family)
                    assert dominance_le(p, got)
                    assert is_special(got, family)
                    assert got == oracles.oracle_expansion(
                        p,
                        admits=lambda q: _family_admits(q, family),
                        special=lambda q: is_special(q, family),
                    )


class TestGrs:
    def test_examples(self):
        assert is_grs_admissible(P([4, 4, 4, 4, 2, 2, 2, 2]))
        assert not is_grs_admissible(P([2, 2, 2, 2, 2]))
        assert not is_grs_admissible(P([3, 3]))
        assert is_grs_admissible(P())

    def test_enumerate_small(self):
        grs = oracles.grs_with_parts_at_most
        assert set(grs(2)) == {P(), P([2]), P([2, 2]), P([2, 2, 2]), P([2, 2, 2, 2])}
        assert grs(0) == (P(),)
        assert len(grs(4)) == 25 and all(is_grs_admissible(p) for p in grs(4))

    def test_enumerate_odd_bound_same_as_even(self):
        # Admissible parts are even, so parts <= 3 means parts <= 2.
        assert oracles.grs_with_parts_at_most(3) == oracles.grs_with_parts_at_most(2)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in partitions_of(10)) == 42
        assert list(partitions_of(0)) == [P()]
        assert sorted(p.parts for p in partitions_of(4)) == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument, match="n must be at least 0, got -1"):
            list(partitions_of(-1))


class TestParseRender:
    @pytest.mark.parametrize(
        "text,parts",
        [
            ("[6,2,2,2,2,2,2,2]", (6, 2, 2, 2, 2, 2, 2, 2)),
            ("6 2^7", (6, 2, 2, 2, 2, 2, 2, 2)),
            ("[6 2^7]", (6, 2, 2, 2, 2, 2, 2, 2)),
            ("[]", ()),
            ("", ()),
            ("[2,7,2]", (7, 2, 2)),
        ],
    )
    def test_parse(self, text, parts):
        assert parse_partition(text).parts == parts

    def test_render_canonical(self):
        assert str(P([6, 2, 2, 2, 2, 2, 2, 2])) == "[6 2^7]"
        assert str(P()) == "[]"
        assert str(P([3, 3, 1, 1, 1, 1])) == "[3^2 1^4]"

    def test_round_trip(self):
        for p in all_upto(12):
            assert parse_partition(str(p)) == p

    def test_bad_terms(self):
        for bad in ["x", "2^^3", "[1,", "3 -1", "2^999999999"]:
            with pytest.raises(InvalidPartition):
                parse_partition(bad)

    def test_integers_capped_at_2000_digits(self):
        at_cap = "9" * _MAX_DIGITS
        assert parse_partition(f"{at_cap}^2").weight == 2 * int(at_cap)
        with pytest.raises(InvalidPartition, match="more than 2000 digits"):
            parse_partition("9" + at_cap)
        assert _read_int("-" + at_cap) == -int(at_cap)
        for over in ("1" + "0" * _MAX_DIGITS, "-1" + "0" * _MAX_DIGITS):
            with pytest.raises(InvalidArgument, match="more than 2000 digits"):
                _read_int(over)

    @pytest.mark.parametrize(
        "text,runs", [("2^100000", [(2, 100000)]), ("3^2 3 0^4 1", [(3, 3), (1, 1)])]
    )
    def test_parse_builds_no_value_list(self, monkeypatch, text, runs):
        def no_value_list(self, values=()):
            raise AssertionError("parsing built a value list")

        monkeypatch.setattr(Partition, "__init__", no_value_list)
        assert parse_partition(text).exponents() == runs

    @pytest.mark.parametrize("text,term", [("2^100001", "2^100001"), ("2^100000 2", "2"), ("0^99999 5^2", "5^2")])
    def test_part_cap_counts_every_term(self, text, term):
        assert _MAX_PARSED_PARTS == 100_000
        with pytest.raises(InvalidPartition, match=re.escape(f"partition too large in term {term!r}")):
            parse_partition(text)

    @pytest.mark.parametrize(
        "text",
        [" 12 ", "+3", "-0", "\t7\n", "1_0", "12_", "\u0664", "\u0661\u0662", "\u00b2", "", " ",
         "0x1", "1e3", "+-1", "1 2", "\x1c5", "5\u2003"],
    )  # fmt: skip
    def test_integer_grammar(self, text):
        # One grammar: ASCII digits, an optional sign, ASCII whitespace around.
        if re.fullmatch(r"[ \t\n\v\f\r]*[+-]?[0-9]+[ \t\n\v\f\r]*", text):
            assert _read_int(text) == int(text)
        else:
            with pytest.raises(ValueError):
                _read_int(text)
