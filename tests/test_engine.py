import random
import time

import pytest

from cuspcheck import (
    Assumption,
    FieldKind,
    InvalidArgument,
    OrderChoice,
    Partition,
    Status,
    bounds,
    dominance_le,
    grs_max_weight,
    is_grs_admissible,
    lex_le,
    parse_parameter,
    rank_only_bound,
    scan,
    small_family_match,
    verdict,
)
from cuspcheck import engine

import oracles

P = Partition
TI = FieldKind.TOTALLY_IMAGINARY


class TestRankOnlyBound:
    def test_examples(self):
        assert rank_only_bound([5, 2]) == 48
        assert rank_only_bound([6, 1]) == 48  # rank sum 7, odd
        assert rank_only_bound([1, 2]) == 8

    def test_even_sum(self):
        assert rank_only_bound([2, 2]) == 4 * 4 + 2 * 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            rank_only_bound([])

    def test_closed_form(self):
        for a in range(1, 60):
            assert rank_only_bound([a]) == (a * a + 2 * a if a % 2 == 0 else a * a - 1), a

    @pytest.mark.parametrize("ranks", [[-3], [0], [4, 0]])
    def test_rank_below_one_rejected(self, ranks):
        with pytest.raises(InvalidArgument):
            rank_only_bound(ranks)


class TestGrsMaxWeight:
    def test_eta_itself_admissible(self):
        assert grs_max_weight(P([2, 2]), OrderChoice.LEX) == (4, P([2, 2]))
        assert grs_max_weight(P([2, 2]), OrderChoice.DOMINANCE) == (4, P([2, 2]))

    def test_nothing_feasible_but_empty(self):
        assert grs_max_weight(P([1, 1]), OrderChoice.LEX) == (0, P())
        assert grs_max_weight(P([1, 1]), OrderChoice.DOMINANCE) == (0, P())

    def test_non_symplectic_rejected(self):
        with pytest.raises(InvalidArgument):
            grs_max_weight(P([3, 1]), OrderChoice.LEX)

    def test_witness_properties(self):
        rng = random.Random(13)
        for _ in range(200):
            psi = oracles.random_parameter(rng)
            eta = psi.dual_partition()
            w1, p1 = grs_max_weight(eta, OrderChoice.LEX)
            w2, p2 = grs_max_weight(eta, OrderChoice.DOMINANCE)
            assert p1.weight == w1 and p2.weight == w2
            assert (not p1) or is_grs_admissible(p1)
            assert (not p2) or is_grs_admissible(p2)
            assert lex_le(p1, eta)
            assert dominance_le(p2, eta)

    def test_against_oracles_small(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            psi = oracles.random_parameter(rng, max_summands=2, max_rank=4, max_mult=7)
            eta = psi.dual_partition()
            if eta in seen or eta.part_at(0) > 10:
                continue
            seen.add(eta)
            assert grs_max_weight(eta, OrderChoice.DOMINANCE) == oracles.oracle_grs_max_dominated(eta)
            assert grs_max_weight(eta, OrderChoice.LEX) == oracles.oracle_grs_max_lex(eta)


class TestBounds:
    def test_star_family_rank_bound(self):
        for b1, b2 in [(1, 2), (3, 2), (5, 2), (1, 4)]:
            report = bounds(parse_parameter(f"(1c,{b1})+(2s,{b2})"))
            assert report.n_a == 8

    def test_derived_small_case(self):
        report = bounds(parse_parameter("(1c,1)+(2s,2)"))
        assert (report.n_a, report.n1, report.n2) == (8, 4, 4)


class TestVerdict:
    def test_kudla_rallis_example(self):
        v = verdict(parse_parameter("(1c,7)+(2s,2)"), FieldKind.GENERAL)
        assert v.status is Status.NO_CUSPIDAL
        assert any(f.rule == "R2" and f.conditional_on is None for f in v.firings)

    def test_satake_source_example(self):
        v = verdict(parse_parameter("(1o:w,1)+(2o,5)"), TI)
        assert v.status is Status.NO_CUSPIDAL
        fired = {f.rule for f in v.firings}
        assert {"R4", "R5"} <= fired

    def test_star_point_undetermined(self):
        v = verdict(parse_parameter("(1c,1)+(2s,2)"), TI)
        assert v.status is Status.UNDETERMINED

    def test_speh_family_example(self):
        # l=2, m=4: rank-4 symplectic with multiplicity 8 plus the trivial
        # character; rank sum 5 gives bound 24 < 2n = 32.
        v = verdict(parse_parameter("(1c,1)+(4s,8)"), TI)
        assert v.status is Status.NO_CUSPIDAL
        assert any(f.rule == "R4" for f in v.firings)

    def test_eta_computed_once(self, monkeypatch):
        import cuspcheck.arthur
        import cuspcheck.partitions

        calls = {"dual": 0, "collapse": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        cuspcheck.partitions.barbasch_vogan_dual.cache_clear()
        dual = counted("dual", cuspcheck.partitions.barbasch_vogan_dual)
        monkeypatch.setattr(cuspcheck.arthur, "barbasch_vogan_dual", dual)
        monkeypatch.setattr(cuspcheck.partitions, "barbasch_vogan_dual", dual)
        monkeypatch.setattr(
            cuspcheck.partitions,
            "symplectic_collapse",
            counted("collapse", cuspcheck.partitions.symplectic_collapse),
        )
        verdict(parse_parameter("(1c,7)+(2s,2)"), TI, frozenset(Assumption))
        # One dual, which runs both recipes: one collapse each.
        assert calls == {"dual": 1, "collapse": 2}
        # The same p_psi under other labels asks for its dual again, and the
        # cache answers without running either recipe.
        verdict(parse_parameter("(1c:x,7)+(2s:y,2)"), TI, frozenset(Assumption))
        assert calls == {"dual": 2, "collapse": 2}

    def test_one_dual_per_parameter(self, monkeypatch):
        import cuspcheck.arthur
        import cuspcheck.partitions

        calls = []
        original = cuspcheck.partitions.barbasch_vogan_dual

        def dual(p):
            calls.append(p)
            return original(p)

        for module in (cuspcheck.arthur, cuspcheck.partitions):
            monkeypatch.setattr(module, "barbasch_vogan_dual", dual)
        # A Saito-Kurokawa parameter, so small_family_match reads eta too.
        psi = parse_parameter("(2s,4)+(1c,1)")
        verdict(psi, TI, frozenset(Assumption))
        bounds(psi)
        assert small_family_match(psi).claimed_pm is not None
        assert calls == [psi.attached_partition()]

    def test_cost_follows_shape(self):
        # p_psi is a single part and eta a single run; a verdict must not
        # touch the ten million rows one by one.
        psi = parse_parameter("(1c,10000001)")
        start = time.perf_counter()
        v = verdict(psi, TI)
        elapsed = time.perf_counter() - start
        assert v.eta.exponents() == [(1, 10000000)]
        assert v.p_psi.exponents() == [(10000001, 1)]
        assert elapsed < 2.0

    def test_generic_contains_cuspidal(self):
        v = verdict(parse_parameter("(3o,1)+(2o,1)"), TI)
        assert v.status is Status.CONTAINS_CUSPIDAL
        assert [f.rule for f in v.firings] == ["R1"]

    def test_conditional_rules_recorded_but_inactive(self):
        v = verdict(parse_parameter("(1c,5)+(2s,2)"), FieldKind.GENERAL)
        assert v.status is Status.UNDETERMINED
        assert any(f.rule == "R7" and f.conditional_on is Assumption.MOEGLIN_CRITERION for f in v.firings)

    def test_assumption_activates_conclusion(self):
        psi = parse_parameter("(1c,5)+(2s,2)")
        v = verdict(psi, FieldKind.GENERAL, {Assumption.MOEGLIN_CRITERION})
        assert v.status is Status.NO_CUSPIDAL

    def test_upbfc_rule(self):
        # n = 6 even, b = 9 > n+1: R3 under the dominance-bound hypothesis,
        # and R2 unconditionally.
        psi = parse_parameter("(1c,9)+(2s,2)")
        v = verdict(psi, FieldKind.GENERAL)
        assert {f.rule for f in v.firings} >= {"R2", "R3"}
        v2 = verdict(psi, FieldKind.GENERAL, {Assumption.DOMINANCE_UPPER_BOUND})
        assert v2.status is Status.NO_CUSPIDAL

    def test_totally_real_behaves_as_general(self):
        psi = parse_parameter("(1c,1)+(2s,6)")
        assert verdict(psi, FieldKind.TOTALLY_REAL).status is verdict(psi, FieldKind.GENERAL).status
        assert verdict(psi, TI).status is Status.NO_CUSPIDAL

    def test_json_shape(self):
        v = verdict(parse_parameter("(1c,7)+(2s,2)"), FieldKind.GENERAL)
        d = v.to_dict()
        assert set(d) == {"status", "n", "p_psi", "eta", "bounds", "firings", "warnings"}
        assert set(d["bounds"]) == {"N_a", "N1", "N2", "N1_witness", "N2_witness"}
        assert all(set(f) == {"rule", "status", "conditional_on"} for f in d["firings"])


class TestScan:
    def test_row_major_order(self):
        cells = scan("(1c,$b)+(2s,2)", [("b", [1, 3])])
        assert [dict(c.slots)["b"] for c in cells] == [1, 3]

    def test_general_field_thresholds(self):
        cells = scan("(1c,$b)+(2s,2)", [("b", [5, 7])], field=FieldKind.GENERAL)
        by_b = {dict(c.slots)["b"]: c.status_text for c in cells}
        assert by_b == {5: "Undetermined", 7: "NoCuspidal"}

    def test_empty_range(self):
        assert list(scan("(1c,$b)+(2s,2)", [("b", [])])) == []

    def test_invalid_cells_reported(self):
        cells = scan("(1c,$b)+(2s,2)", [("b", [1, 2])])
        by_b = {dict(c.slots)["b"]: c for c in cells}
        assert by_b[1].status_text == "Undetermined"
        assert by_b[2].status_text == "Invalid"
        assert "odd multiplicity" in (by_b[2].error or "")

    def test_slot_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            scan("(1c,$b)+(2s,$c)", [("b", [1])])
        with pytest.raises(InvalidArgument):
            scan("(1c,$b)+(2s,2)", [("b", [1]), ("x", [1])])

    def test_duplicate_slot_name_rejected(self):
        with pytest.raises(InvalidArgument, match="duplicate slot name"):
            scan("(1c,$b)+(2s,2)", [("b", [1]), ("b", [3])])

    def test_malformed_template_rejected(self):
        for bad in ["(1c,$1)+(2s,$b)", "(1c,$b)+(2s,2)$", "(1c,${b)+(2s,2)"]:
            with pytest.raises(InvalidArgument, match="malformed placeholder"):
                scan(bad, [("b", [1])])
        # An escaped $$ is a literal dollar sign, not a slot.
        with pytest.raises(InvalidArgument, match="slots"):
            scan("(1c,$$b)+(2s,2)", [("b", [1])])

    def test_over_cap_grid_rejected(self):
        # Counted before any cell is built; the second grid is longer than
        # len() of a range can report.
        for ranges in (
            [("b1", range(1, 1001)), ("b2", range(1, 102))],
            [("b1", range(1, 10**30)), ("b2", [2])],
        ):
            with pytest.raises(InvalidArgument, match="more than 100000 cells"):
                scan("(1c,$b1)+(2s,$b2)", ranges)

    def test_cells_are_evaluated_lazily(self, monkeypatch):
        calls = []
        original = engine.verdict

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "verdict", counted)
        cells = scan("(1c,$b)+(2s,2)", [("b", [1, 3, 5])])
        assert calls == []
        assert next(cells).status_text == "Undetermined"
        assert len(calls) == 1

    def test_cap_counts_cells(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_SCAN_CELLS", 4)
        assert len(list(scan("(1c,$b1)+(2s,$b2)", [("b1", [1, 3]), ("b2", [2, 4])]))) == 4
        with pytest.raises(InvalidArgument, match="more than 4 cells"):
            scan("(1c,$b1)+(2s,$b2)", [("b1", [1, 3, 5]), ("b2", [2, 4])])
