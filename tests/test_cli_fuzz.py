"""Bounded argv fuzz: every command line ends in exit 0, 2 or 3, quickly.

Argument vectors are drawn from a grammar over the seven verbs plus an
unknown one, valid and invalid flag values, partitions with parts and
exponents 0..60 (and one 2,001-digit literal), parameters with ranks 0..12
and multiplicities 0..15, labels mixing allowed and forbidden characters,
``scan`` templates with a ``$b`` slot over at most 30 cells, and ``--n``
from -3 to 10**6 plus text the integer grammar refuses.  Each runs in
process through ``cli.main``.  The same draws also require ``main``'s
one-verb parser to print the bytes the full parser prints.  ``--out`` is
left out: it writes files.

Parameters stay small on purpose: the ``N2`` dominance DP still walks every
even value below the dual partition's first part, so a parameter whose
``eta[0]`` is large can take seconds.  At most four summands of rank 12
keep ``eta[0]`` under 50.  Widen the grammar once ``N2`` no longer grows
with ``eta[0]``.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cuspcheck import cli
from cuspcheck.cli import main
from cuspcheck.engine import Assumption, FieldKind

VERBS = ["dual", "collapse", "analyze", "bounds", "scan", "satake", "small"]
LONG = "9" * 2001  # one digit past the integer cap

small_int = st.integers(0, 60).map(str)
term = st.one_of(small_int, st.tuples(small_int, small_int).map("^".join))
partition = st.one_of(
    st.lists(term, max_size=6).map(" ".join),
    st.lists(term, max_size=6).map(lambda ts: "[" + ",".join(ts) + "]"),
    st.sampled_from([LONG, f"{LONG}^2", f"2^{LONG}", "x", "2^^3", "[1,", "3 -1"]),
)

label = st.text(alphabet="ab1_:é ,()+$", min_size=0, max_size=4)
summand_parts = st.tuples(
    st.integers(0, 12).map(str),
    st.sampled_from("oscx"),
    st.none() | label,
    st.integers(0, 15).map(str),
)


def render(parts) -> str:
    rank, typ, lab, mult = parts
    return f"({rank}{typ}{'' if lab is None else ':' + lab},{mult})"


# Summands that pass the parity rules, so that whole parameters are often valid.
valid_summand = st.one_of(
    st.tuples(st.integers(1, 12), st.integers(0, 7)).map(lambda rm: (str(rm[0]), "o", None, str(2 * rm[1] + 1))),
    st.tuples(st.integers(1, 6), st.integers(1, 7)).map(lambda rm: (str(2 * rm[0]), "s", None, str(2 * rm[1]))),
)


def odd_total(summands):
    total = sum(int(rank) * int(mult) for rank, _, _, mult in summands)
    return summands + [("1", "c", None, "1")] if total % 2 == 0 else summands


parameter = st.one_of(
    st.lists(summand_parts, min_size=1, max_size=4),
    st.lists(valid_summand, min_size=1, max_size=3).map(odd_total),
).map(lambda ss: "+".join(map(render, ss)))


@st.composite
def template_and_range(draw):
    summands = draw(st.lists(summand_parts, min_size=1, max_size=3))
    slot = draw(st.integers(0, len(summands) - 1))
    rank, typ, lab, _ = summands[slot]
    pieces = [render(s) for s in summands]
    pieces[slot] = render((rank, typ, lab, draw(st.sampled_from(["$b", "$c", "${b}"]))))
    start, step = draw(st.integers(-3, 20)), draw(st.integers(1, 3))
    stop = start + step * (draw(st.integers(1, 30)) - 1)
    spec = draw(st.sampled_from([f"b={start}:{stop}:{step}", f"b={start}:{stop}", "b=1", "b=x:3", "b=1:5:0", "=1:2"]))
    return ["--template", "+".join(pieces), "--range", spec]


def flag(name, values):
    return st.none() | st.sampled_from(values).map(lambda v: [name, v])


fmt = flag("--format", ["text", "json", "csv", "yaml"])
field = flag("--field", [f.value for f in FieldKind] + ["finite"])
assume_flags = st.lists(st.sampled_from([a.value for a in Assumption] + ["conj-x"]), max_size=2).map(
    lambda xs: [t for a in xs for t in ("--assume", a)]
)
n_value = st.one_of(st.integers(-3, 10**6).map(str), st.sampled_from(["1_0", "٣", LONG]))
n_flag = st.none() | n_value.map(lambda v: ["--n", v])
group = st.sampled_from(["sp", "so-odd", "so-even", "gl"]).map(lambda g: ["--group", g])


def argv_for(verb, *pieces):
    def join(drawn):
        out = [verb]
        for piece in drawn:
            if isinstance(piece, str):
                out.append(piece)
            elif piece is not None:
                out.extend(piece)
        return out

    return st.tuples(*pieces).map(join)


ARGV = st.one_of(
    argv_for("dual", partition, fmt),
    argv_for("collapse", partition, fmt),
    argv_for("analyze", parameter, field, assume_flags, fmt),
    argv_for("bounds", parameter, fmt),
    argv_for("scan", template_and_range(), field, assume_flags, fmt),
    argv_for("satake", n_flag, field, fmt),
    argv_for("small", group, n_flag, field, fmt),
    argv_for("frobnicate", partition),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Every test here walks the same derandomized draws.
fuzz = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow],
)


def test_every_argv_ends_in_a_documented_exit_code():
    seen = set()

    @fuzz
    @given(ARGV)
    def check(argv):
        code, _, err = run(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        seen.add((argv[0], code))

    check()
    # The grammar reaches success on every verb and errors on every verb.
    assert {verb for verb, code in seen if code == 0} == set(VERBS)
    assert {verb for verb, code in seen if code == 2} == {*VERBS, "frobnicate"}


def test_one_verb_parser_matches_the_full_parser():
    """``main`` builds only the verb argv names; every byte and exit code stays."""
    full_parser = cli.build_parser

    # The draws never reach the top-level usage line or a verb's help, so
    # these are added by hand.
    @fuzz
    @given(ARGV)
    @example(["dual", "7 2^2", "--bogus"])
    @example(["small", "--group", "sp", "--n", "3", "extra"])
    @example(["analyze"])
    @example(["scan", "--help"])
    def check(argv):
        one_verb = run(argv)
        with patch.object(cli, "build_parser", lambda verb=None: full_parser()):
            assert run(argv) == one_verb, argv

    check()


def test_full_parser_has_every_verb():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == VERBS
