"""Fuzz of the CLI contract: any input document and any argv exit 0, or 2 with
one line; and the report writer."""

import contextlib
import io
import json
import os
import pathlib
import tempfile
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from quadriline import QQ, PrimeField, Ratio, cli, svgfig
from quadriline.census import MAX_CENSUS_PRIME
from quadriline.cli import json_text, load_config, main
from quadriline.configuration import DiagonalMarker, LocusShape
from quadriline.errors import ParseError, QuadrilineError
from quadriline.rectangles import INDETERMINATE, Marker
from conftest import CFG1_PAIRS, CFG2_PAIRS, bounded_ratio_samples, write_config
from membership import Line, parse
from membership import covector as reference_covector

# 60013 is the least prime above the census bound; the last one is the largest
# prime below psi_13, the largest accepted modulus.
GOOD_MODULI = [3, 5, 7, 11, 13, 31, 59, 60013, 10**9 + 7, 10**18 + 3, 3317044064679887385961813]

# The wild_* strategies draw values that are mostly, not always, invalid.
wild_moduli = st.one_of(
    st.booleans(),
    st.integers(-10**30, 10**30),
    st.integers(min_value=3317044064679887385961981, max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.from_regex(r"\A[0-9]{1,30}\Z"),
    st.just("9" * 5000),  # past the interpreter's int-to-str digit limit
    st.text(max_size=6),
    st.none(),
    st.lists(st.integers(0, 20), max_size=2),
)
wild_field_tags = st.one_of(
    st.fixed_dictionaries({"prime": wild_moduli}),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.text(max_size=8),
    st.none(),
)
integer_literals = st.integers(-9, 9).map(str)
rational_literals = st.one_of(
    integer_literals,
    st.tuples(st.integers(-9, 9), st.integers(1, 5)).map(lambda t: "%d/%d" % t),
)
# Long literals: past the float range of a drawing, and with products past the
# int-to-str digit limit of a report.
long_digits = st.builds(
    lambda digit, n: digit * n, st.sampled_from("123456789"), st.integers(150, 4300)
)
long_integers = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-"]), long_digits)
long_rationals = st.one_of(
    long_integers,
    st.builds("{}/{}".format, long_integers, st.one_of(long_digits, st.integers(1, 9).map(str))),
)
wild_literals = st.one_of(
    st.integers(-20, 20),
    st.tuples(st.integers(-9, 9), st.integers(-3, 0)).map(lambda t: "%d/%d" % t),
    st.integers(-10**60, 10**60).map(str),
    st.sampled_from(["", "1.5", "x", "1/2/3", " 7 ", "-0", "+3"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
wild_lines = st.one_of(
    st.dictionaries(st.sampled_from("abcd"), integer_literals, max_size=4),
    st.lists(integer_literals, max_size=3),
    wild_literals,
)
wild_pairs = st.one_of(
    st.lists(st.lists(integer_literals, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    wild_literals,
)


field_tags = st.one_of(
    st.just("rational"),
    st.sampled_from(GOOD_MODULI).map(lambda p: {"prime": p}),
    st.sampled_from(GOOD_MODULI).map(lambda p: {"prime": str(p)}),
)
# The primes where a census runs in milliseconds.
census_field_tags = st.sampled_from([p for p in GOOD_MODULI if p < 60]).map(lambda p: {"prime": p})


@st.composite
def documents(draw, fields=field_tags):
    """A well-formed document over a field drawn from ``fields``, then at most
    one corruption at a drawn site, or rarely a well-formed document with long
    literals."""
    field = draw(fields)
    literals = rational_literals if field == "rational" else integer_literals
    lines = [{key: draw(literals) for key in "abc"} for _ in range(4)]
    doc = {"field": field, "pairs": [lines[:2], lines[2:]]}
    if not draw(st.integers(0, 7)):  # one document in eight: long literals, no corruption
        if draw(st.integers(0, 3)):  # mostly over Q, where a literal keeps its length
            doc["field"] = "rational"
        long_literals = long_rationals if doc["field"] == "rational" else long_integers
        for _ in range(draw(st.integers(1, 3))):
            lines[draw(st.integers(0, 3))][draw(st.sampled_from("abc"))] = draw(long_literals)
        return doc
    site = draw(st.sampled_from(["none", "none", "field", "pairs", "line", "literal", "key", "doc"]))
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    if site == "field":
        doc["field"] = draw(wild_field_tags)
    elif site == "pairs":
        doc["pairs"] = draw(wild_pairs)
    elif site == "line":
        doc["pairs"][i][j] = draw(wild_lines)
    elif site == "literal":
        doc["pairs"][i][j][draw(st.sampled_from("abc"))] = draw(wild_literals)
    elif site == "key":
        del doc[draw(st.sampled_from(["field", "pairs"]))]
    elif site == "doc":
        return draw(st.one_of(st.lists(st.integers(), max_size=3), wild_literals))
    return doc


commands = st.sampled_from(
    [
        ["classify"],
        ["rect", "--slope=3/7"],
        ["rect", "--slope=1/0"],
        ["rect", "--aspect=-1/2"],
        ["path", "--samples", "3"],
        ["path", "--kind", "aspect", "--samples", "3"],
        ["locus"],
        ["census"],
        ["render", "--samples", "2", "--diagonals"],
    ]
)


def _census_is_quick(doc):
    """False for a modulus 60 <= p <= MAX_CENSUS_PRIME, where a census can take
    seconds.  Below 60 it takes milliseconds; above the bound, and for any
    other field, it exits 2 at once."""
    tag = doc.get("field") if isinstance(doc, dict) else None
    prime = tag.get("prime") if isinstance(tag, dict) else None
    if isinstance(prime, str) and prime.isdecimal() and len(prime) < 40:
        prime = int(prime)
    return type(prime) is not int or not 60 <= prime <= MAX_CENSUS_PRIME


def _write(directory, doc):
    path = os.path.join(directory, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def _run(argv):
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_0_or_2_with_one_line(code, out, err):
    assert code in (0, 2), err
    if code == 0:
        assert not err
        json.loads(out)
    else:
        assert not out
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "Traceback" not in err


@st.composite
def calls(draw):
    """A command and a document for it.  Three times in four a census gets a
    prime below 60 and a render the rationals, the fields where they can
    succeed; otherwise the document's field is drawn as for any command."""
    argv = draw(commands)
    fields = field_tags
    if draw(st.integers(0, 3)):
        fields = {"census": census_field_tags, "render": st.just("rational")}.get(argv[0], fields)
    return draw(documents(fields)), argv


def _call(doc, argv) -> int:
    """Run the command on the document; asserts exit 0, or 2 with one line, and
    returns the exit code."""
    if argv == ["census"] and not _census_is_quick(doc):
        argv = ["classify"]  # a census costs about 0.14 ms per unit of p
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--input", _write(tmp, doc)]
        if argv[0] == "render":
            argv += ["--out", os.path.join(tmp, "out.svg")]
        code, out, err = _run(argv)
    assert_exit_0_or_2_with_one_line(code, out, err)
    return code


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(calls())
def test_main_exits_0_or_2_with_one_line(call):
    _call(*call)


def test_fuzz_reaches_a_census_and_a_drawing():
    """A fixed-seed run of the property above succeeds on census and render
    too, so it checks them past their error paths."""
    succeeded = set()

    @seed(19)
    @settings(max_examples=100, deadline=None, database=None)
    @given(calls())
    def run(call):
        doc, argv = call
        if not _call(doc, argv):
            succeeded.add(argv[0])

    run()
    assert {"census", "render"} <= succeeded


# The argv grammar: a command (or none, or an unknown one) with its own flags,
# each present nine times in ten, and one time in three up to three more drawn
# from every command's flags, so some are foreign, repeated or unknown; all in
# any order, each as --flag=v, as --flag v, or with no value.  The fields are
# Q, small primes, where --samples can exceed p + 1, and three primes up to
# psi_13, where a census exits at once; sample counts stay below 41, so a Q
# path or render stays cheap.
ratio_values = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: "%d/%d" % t),
    st.integers(-(10**60), 10**60).map(str),
    st.tuples(st.integers(-(10**60), 10**60), st.integers(-(10**60), 10**60)).map(
        lambda t: "%d/%d" % t
    ),
    st.sampled_from(["0", "-0", "0/1", "0/0", "1/0", "-1/2", "+3/7", "1/2/3", "1.5", "/", "1/"]),
    st.text(alphabet="0123456789/+-. x\n", max_size=6),
)
flag_values = {
    "--input": st.sampled_from(["INPUT"] * 18 + ["/nonexistent.json", ""]),
    "--slope": ratio_values,
    "--aspect": ratio_values,
    "--kind": st.sampled_from(["slope", "aspect"] * 3 + ["x", ""]),
    "--samples": st.sampled_from(
        [str(n) for n in range(-3, 41)] + ["x", "1.5", "", "0x10", "\u0661"]
    ),
    "--out": st.just("OUT"),
    "--diagonals": st.sampled_from([""] * 5 + ["1"]),
    "--bogus": st.just("1"),
}
COMMAND_FLAGS = {
    "classify": [],
    "rect": [],  # and one of --slope and --aspect
    "path": ["--kind", "--samples"],
    "locus": [],
    "census": [],
    "render": ["--out", "--samples", "--diagonals"],
}
ARGV_FIELDS = ["rational"] * 4 + [{"prime": p} for p in (3, 5, 7, 11, 13, *GOOD_MODULI[-3:])]


@st.composite
def argvs(draw):
    """An argv of the grammar above, with INPUT and OUT standing for the input
    file and the SVG path."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) * 3 + ["", "bogus"]))
    own = ["--input", *COMMAND_FLAGS.get(command, [])]
    if command == "rect":
        own.append(draw(st.sampled_from(["--slope", "--aspect"])))
    flags = [flag for flag in own if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 2)):
        flags += draw(st.lists(st.sampled_from(sorted(flag_values)), min_size=1, max_size=3))
    argv = [command] if command else []
    for flag in draw(st.permutations(flags)):
        value = draw(flag_values[flag])
        form = draw(st.sampled_from(["=", "space"] * 5 + ["bare"]))
        if flag == "--diagonals" and not value:
            form = "bare"
        if form == "=":
            argv.append(f"{flag}={value}")
        elif form == "space":
            argv += [flag, value]
        else:
            argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.sampled_from(ARGV_FIELDS), st.sampled_from([CFG1_PAIRS, CFG2_PAIRS]))
def test_any_argv_exits_0_or_2_with_one_line(argv, field, pairs):
    """Also bounds the work of every ratio_samples call (:func:`bounded_ratio_samples`)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        for module in (cli, svgfig):  # the modules that call ratio_samples
            stack.enter_context(mock.patch.object(module, "ratio_samples", bounded_ratio_samples))
        path = write_config(pathlib.Path(tmp), "input.json", field, pairs)
        out = os.path.join(tmp, "out.svg")
        argv = [token.replace("INPUT", path).replace("OUT", out) for token in argv]
        assert_exit_0_or_2_with_one_line(*_run(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["path", "--input", "INPUT", "--samples", "x"],
        ["path", "--input"],
        ["rect", "--input", "INPUT", "--aspect", "-1/2"],
        ["rect", "--input", "INPUT"],
        [],
        ["bogus"],
        ["classify", "--input", "INPUT", "--bogus"],
        ["classify", "--input", "INPUT", "1\n2"],
    ],
    ids=" ".join,
)
def test_usage_error_returns_2_with_one_line(tmp_path, argv):
    path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
    code, out, err = _run([path if token == "INPUT" else token for token in argv])
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("error: ") and "usage" not in err, err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


@settings(max_examples=300, deadline=None)
@given(documents())
def test_load_config_raises_only_documented_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cfg = load_config(_write(tmp, doc))
        except (QuadrilineError, ValueError):
            return
    tag = doc["field"]
    assert cfg.field.char == (0 if tag == "rational" else int(tag["prime"]))


report_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(report_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [(1, 2), 0.5, {1: "a"}, {"a": [set()]}, b"x", Fraction(-3, 7)])
def test_json_text_rejects_other_types(value):
    """A Fraction too: no report value is one, so the writer has no case for it."""
    with pytest.raises(TypeError):
        json_text(value)


F11 = PrimeField(11)


@pytest.mark.parametrize(
    "value, text",
    [
        (Ratio(QQ, -1, 2), '"-1/2"'),
        (Ratio(QQ, 1, 0), '"1/0"'),
        (Ratio(F11, 3, 2), '"7"'),
        (Ratio(F11, 1, 0), '"1/0"'),
    ],
    ids=repr,
)
def test_json_text_writes_exact_values_as_their_str(value, text):
    assert json_text(value) == json.dumps(str(value)) == text


@pytest.mark.parametrize("member", [*LocusShape, *DiagonalMarker, *Marker], ids=str)
def test_json_text_writes_enum_members_as_their_value(member):
    assert json_text(member) == json.dumps(member.value)


def test_json_text_writes_nested_values():
    report = {"ratios": [Ratio(QQ, 3, 2), INDETERMINATE], "x": Ratio(F11, 4, 1)}
    assert json_text(report) == json.dumps({"ratios": ["3/2", "indeterminate"], "x": "4"}, indent=2)


# Digits with up to three leading zeros: small, or 40 digits long.
digit_strings = st.builds(
    lambda zeros, n: "0" * zeros + str(n),
    st.integers(0, 3),
    st.integers(0, 10**6) | st.integers(10**39, 10**40 - 1),
)
spaces = st.sampled_from(["", " ", "  ", "\t", "\n", " \n "])


@st.composite
def literal_texts(draw, rational):
    """A literal as a file writes it: a sign, digits with leading zeros, over ℚ an
    optional denominator (up to 40 digits, now and then all zeros), and spaces around."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["-0/5", "2/4", "-0012/0008", "+0007", "-12", "-0", "+000", "0"]))
    text = draw(st.sampled_from(["", "+", "-"])) + draw(digit_strings)
    if rational and draw(st.booleans()):
        zero = draw(st.integers(0, 19)) == 0
        text += "/" + ("000" if zero else draw(digit_strings.filter(lambda d: d.strip("0"))))
    return draw(spaces) + text + draw(spaces)


def read_literals(p, literals) -> str:
    """Check that ``load_config`` reads the literals to the ints of the reference reader
    and clearing, or exits with the reference's message; the kind of outcome."""
    field = QQ if p is None else PrimeField(p)
    doc = {
        "field": "rational" if p is None else {"prime": p},
        "pairs": [[dict(zip("abc", line)) for line in pair] for pair in literals],
    }
    expected, error = [], None
    for i, pair in enumerate(literals):
        for j, line in enumerate(pair):
            values = []
            for key, text in zip("abc", line):
                try:
                    values.append(parse(field, text))
                except ParseError as exc:
                    error = error or f"pairs[{i}][{j}].{key}: {exc}"
            if len(values) == 3:
                zero_normal = not values[0] and not values[1]
                expected.append(f"pairs[{i}][{j}]: line needs (a, b) != (0, 0)" if zero_normal
                                else reference_covector(field, Line(*values)))
    # Every literal is read before the lines are checked, so a literal error comes first.
    error = error or next((e for e in expected if isinstance(e, str)), None)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, doc)
        if error is not None:
            with pytest.raises(ParseError) as exc:
                load_config(path)
            assert str(exc.value) == f"{path}: {error}"
            return "zero normal" if error.endswith("(0, 0)") else "literal error"
        cfg_input = load_config(path)
    assert [(ln.a, ln.b, -ln.c) for ln in (*cfg_input.pair1, *cfg_input.pair2)] == expected
    return "read"


def literal_quads(p):
    return st.lists(
        st.lists(st.lists(literal_texts(p is None), min_size=3, max_size=3), min_size=2, max_size=2),
        min_size=2, max_size=2,
    )


FIELDS = [None, 5, 7, 1009, 10**9 + 7]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda p: st.tuples(st.just(p), literal_quads(p))))
def test_load_config_reads_the_reference_ints(drawn):
    """Each line ``load_config`` reads is exactly, not only up to scale, the int covector
    that the reference reader and clearing give (``membership.parse`` to Fractions or
    FpElements, then ``membership.covector``), and a literal the reference rejects, or a
    line whose (a, b) vanishes, exits with the reference's message at its slot."""
    read_literals(*drawn)


def test_literal_strategy_reaches_every_outcome():
    """Over ℚ and over F_p the drawn literals are read, rejected, and make a zero normal."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(FIELDS).flatmap(lambda p: st.tuples(st.just(p), literal_quads(p))))
    def collect(drawn):
        seen.add((drawn[0] is None, read_literals(*drawn)))

    collect()
    assert seen == {(q, kind) for q in (True, False) for kind in ("read", "literal error", "zero normal")}
