"""Fuzz of the CLI contract: any input document exits 0, or 2 with one line."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from quadriline.census import MAX_CENSUS_PRIME
from quadriline.cli import json_text, load_config, main
from quadriline.errors import QuadrilineError

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


@st.composite
def documents(draw):
    """A well-formed document, then at most one corruption at a drawn site."""
    field = draw(
        st.one_of(
            st.just("rational"),
            st.sampled_from(GOOD_MODULI).map(lambda p: {"prime": p}),
            st.sampled_from(GOOD_MODULI).map(lambda p: {"prime": str(p)}),
        )
    )
    literals = rational_literals if field == "rational" else integer_literals
    lines = [{key: draw(literals) for key in "abc"} for _ in range(4)]
    doc = {"field": field, "pairs": [lines[:2], lines[2:]]}
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), commands)
def test_main_exits_0_or_2_with_one_line(doc, argv):
    if argv == ["census"] and not _census_is_quick(doc):
        argv = ["classify"]  # a census costs about 0.14 ms per unit of p
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--input", _write(tmp, doc)]
        if argv[0] == "render":
            argv += ["--out", os.path.join(tmp, "out.svg")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert not err
        json.loads(out)
    else:
        assert not out
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "Traceback" not in err


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


@pytest.mark.parametrize("value", [(1, 2), 0.5, {1: "a"}, {"a": [set()]}, b"x"])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
