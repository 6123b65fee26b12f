import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcheck import (
    ArthurParameter,
    CharacterLabel,
    InvalidArgument,
    InvalidPartition,
    ParameterError,
    Partition,
    SelfDualType,
    SimpleParameter,
    Triviality,
    parse_parameter,
    parse_partition,
    render_parameter,
)

import oracles

P = Partition
ORTH = SelfDualType.ORTHOGONAL
SYMP = SelfDualType.SYMPLECTIC


def simple(label, rank, mult, dual, triv=Triviality.UNKNOWN, char=None):
    cc = CharacterLabel(char or f"w({label})", triv)
    return SimpleParameter(label=label, rank=rank, mult=mult, dual_type=dual, central_char=cc)


class TestValidate:
    def test_sp10_example(self):
        psi = ArthurParameter(
            [
                simple("chi", 1, 7, ORTH, Triviality.TRIVIAL, char="1"),
                simple("tau", 2, 2, SYMP),
            ]
        )
        assert psi.n == 5

    def test_symplectic_needs_even_mult(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 2, 3, SYMP)])
        assert "parity-rule" in exc.value.codes

    def test_sp20_example(self):
        psi = ArthurParameter([simple("tau1", 5, 1, ORTH), simple("tau2", 2, 8, SYMP)])
        assert psi.n == 10

    def test_symplectic_needs_even_rank(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 3, 2, SYMP), simple("chi", 1, 1, ORTH)])
        assert "parity-rule" in exc.value.codes

    def test_orthogonal_needs_odd_mult(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 3, 2, ORTH), simple("chi", 1, 1, ORTH)])
        assert "parity-rule" in exc.value.codes

    def test_duplicate_summand(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 3, 1, ORTH), simple("tau", 3, 1, ORTH), simple("c", 1, 1, ORTH)])
        assert "duplicate-summand" in exc.value.codes

    def test_equal_shape_distinct_labels_allowed(self):
        psi = ArthurParameter([simple("a", 3, 1, ORTH), simple("b", 3, 1, ORTH), simple("c", 1, 1, ORTH)])
        assert psi.n == 3

    def test_even_total_rejected(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 2, 2, SYMP)])
        assert "not-odd-weight" in exc.value.codes

    def test_single_symplectic_always_rejected(self):
        # Even rank times even mult is even, so a lone symplectic summand
        # can never reach odd total size.
        for rank in (2, 4, 6):
            for mult in (2, 4, 8):
                with pytest.raises(ParameterError):
                    ArthurParameter([simple("tau", rank, mult, SYMP)])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ArthurParameter([])

    def test_issues_aggregate(self):
        with pytest.raises(ParameterError) as exc:
            ArthurParameter([simple("tau", 3, 2, SYMP)])
        assert set(exc.value.codes) >= {"parity-rule", "not-odd-weight"}


class TestValueSemantics:
    def test_equal_summands_give_equal_parameters(self):
        a, b = parse_parameter("(1c,7)+(2s,2)"), parse_parameter("(1c,7)+(2s,2)")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert ArthurParameter(list(a.summands)) == a
        assert a != str(a)

    def test_summand_order_matters(self):
        a, b = parse_parameter("(1c:x,7)+(2s:t,2)"), parse_parameter("(2s:t,2)+(1c:x,7)")
        assert a.dual_partition() == b.dual_partition()
        assert a != b

    @pytest.mark.parametrize("name", ["n", "summands"])
    def test_fields_are_read_only(self, name):
        psi = parse_parameter("(1c,7)+(2s,2)")
        with pytest.raises(AttributeError):
            setattr(psi, name, getattr(psi, name))


class TestPartitions:
    def test_attached_partition(self):
        psi = parse_parameter("(1c,7)+(2s,2)")
        assert psi.attached_partition() == P([7, 2, 2])
        psi = parse_parameter("(5o,1)+(2s,8)")
        assert psi.attached_partition() == P([8, 8, 1, 1, 1, 1, 1])

    def test_generic_partition(self):
        psi = parse_parameter("(5o,1)+(3o,1)+(1c,1)")
        assert psi.attached_partition() == P([1] * 9)
        assert psi.dual_partition() == P([8])

    def test_dual_examples(self):
        assert parse_parameter("(1c,7)+(2s,2)").dual_partition() == P([3, 3, 1, 1, 1, 1])
        assert parse_parameter("(5o,1)+(2s,8)").dual_partition() == P([6, 2, 2, 2, 2, 2, 2, 2])
        assert parse_parameter("(3o,5)").dual_partition() == P([3, 3, 3, 3, 2])

    def test_is_generic(self):
        assert parse_parameter("(3o,1)+(2o,1)").is_generic()
        assert not parse_parameter("(1c,7)+(2s,2)").is_generic()
        assert parse_parameter("(5o,1)").is_generic()

    def test_random_weights_and_duality(self):
        rng = random.Random(987)
        for _ in range(300):
            psi = oracles.random_parameter(rng)
            p = psi.attached_partition()
            eta = psi.dual_partition()
            assert p.weight == 2 * psi.n + 1
            assert p.is_orthogonal()
            assert eta.weight == 2 * psi.n
            assert eta.is_symplectic()
            if psi.is_generic():
                assert eta == P([2 * psi.n])


class TestParse:
    def test_basic(self):
        psi = parse_parameter("(1c,7)+(2s,2)")
        chi, tau = psi.summands
        assert (chi.rank, chi.mult, chi.dual_type) == (1, 7, ORTH)
        assert (tau.rank, tau.mult, tau.dual_type) == (2, 2, SYMP)
        assert chi.label == "tau1" and tau.label == "tau2"

    def test_labels_and_characters(self):
        psi = parse_parameter("(1c:1,7)+(2s:tau,2)")
        chi, tau = psi.summands
        assert chi.central_char == CharacterLabel("1", Triviality.TRIVIAL)
        assert tau.label == "tau" and tau.central_char.name == "w(tau)"

    def test_unicode_label(self):
        psi = parse_parameter("(2o,5)+(1o:\u03c9,1)")
        assert psi.summands[1].central_char.name == "\u03c9"

    def test_c_forces_rank_one(self):
        from cuspcheck import InvalidArgument

        with pytest.raises(InvalidArgument):
            parse_parameter("(2c,2)")

    def test_rank_one_symplectic_rejected(self):
        with pytest.raises(ParameterError):
            parse_parameter("(1s,2)+(1c,1)")

    def test_garbage_rejected(self):
        from cuspcheck import InvalidArgument

        for bad in ["", "(c,1)", "(2x,1)", "1c,7", "(1c 7)"]:
            with pytest.raises((InvalidArgument, ParameterError)):
                parse_parameter(bad)

    def test_overlong_integer_is_input_error(self):
        # More digits than int() converts by default (4,300).
        digits = "9" * 5000
        for text in (f"(1c,{digits})", f"({digits}o,1)"):
            with pytest.raises(InvalidArgument, match="too long"):
                parse_parameter(text)
        for text in (digits, f"2^{digits}"):
            with pytest.raises(InvalidPartition, match="too long"):
                parse_partition(text)

    def test_round_trip(self):
        for text in ["(1c,7)+(2s,2)", "(2s:tau,4)+(1c:1,1)", "(3o,5)", "(5o,1)+(2s,8)"]:
            psi = parse_parameter(text)
            again = parse_parameter(render_parameter(psi))
            assert again == psi
            assert render_parameter(again) == render_parameter(psi)

    @settings(max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 9))
    def test_render_parse_random(self, rank, mult):
        if mult % 2 == 0:
            rank += rank % 2
            typ = "s"
        else:
            typ = "o"
        text = f"({rank}{typ},{mult})+(1c,{3 - (rank * mult) % 2 or 1})"
        # Only check strings that actually validate.
        try:
            psi = parse_parameter(text)
        except ParameterError:
            return
        assert parse_parameter(render_parameter(psi)) == psi


class TestLabels:
    # A label is one token of the parameter grammar: no whitespace, ',', '(',
    # ')' or '+', so every accepted summand renders to text that parses back.
    @pytest.mark.parametrize(
        "label", ["a+b", "a b", "a,b", "(a", "a)", "", "\t", "a\u2003b", "a\nb"]
    )
    def test_label_the_grammar_cannot_read_back_is_rejected(self, label):
        with pytest.raises(InvalidArgument, match="summand label"):
            SimpleParameter(label, 2, 2, SYMP)

    @settings(max_examples=300)
    @given(st.text(min_size=1, max_size=6))
    def test_accepted_labels_round_trip(self, label):
        try:
            tau = SimpleParameter(label, 2, 2, SYMP)
        except InvalidArgument:
            return
        psi = ArthurParameter([tau, SimpleParameter("x", 1, 1, ORTH)])
        assert parse_parameter(render_parameter(psi)) == psi

    def test_empty_character_name_rejected(self):
        with pytest.raises(InvalidArgument, match="character label name must be nonempty"):
            CharacterLabel("")

    def test_label_with_colon_round_trips(self):
        psi = ArthurParameter([SimpleParameter("a:b", 2, 2, SYMP), SimpleParameter("1", 1, 1, ORTH)])
        assert render_parameter(psi) == "(2s:a:b,2)+(1c:1,1)"
        assert parse_parameter(render_parameter(psi)) == psi

class TestCentralCharacterAdvisory:
    def test_unknown_blocks_nothing(self):
        psi = parse_parameter("(1c,7)+(2s,2)")
        assert psi.warnings == ()

    def test_all_trivial_passes(self):
        psi = ArthurParameter(
            [
                simple("chi", 1, 7, ORTH, Triviality.TRIVIAL, char="1"),
                simple("tau", 2, 2, SYMP, Triviality.TRIVIAL),
            ]
        )
        assert psi.warnings == ()

    def test_single_nontrivial_odd_exponent_warns(self):
        psi = ArthurParameter(
            [
                simple("chi", 1, 7, ORTH, Triviality.NONTRIVIAL, char="chi"),
                simple("tau", 2, 2, SYMP, Triviality.TRIVIAL),
            ]
        )
        assert len(psi.warnings) == 1
        assert "nontrivial" in psi.warnings[0]

    def test_nontrivial_even_exponent_passes(self):
        # chi appears with total exponent 1 + 3 = 4, so its contribution cancels.
        psi = ArthurParameter(
            [
                simple("a", 1, 1, ORTH, Triviality.NONTRIVIAL, char="chi"),
                simple("b", 1, 3, ORTH, Triviality.NONTRIVIAL, char="chi"),
                simple("tau", 3, 1, ORTH, Triviality.TRIVIAL),
            ]
        )
        assert psi.warnings == ()

    def test_three_distinct_odd_exponents_indeterminate(self):
        psi = ArthurParameter(
            [
                simple("a", 1, 1, ORTH, Triviality.NONTRIVIAL, char="x"),
                simple("b", 1, 3, ORTH, Triviality.NONTRIVIAL, char="y"),
                simple("c", 1, 5, ORTH, Triviality.NONTRIVIAL, char="z"),
            ]
        )
        assert len(psi.warnings) == 1
        assert "cannot be verified" in psi.warnings[0]
