"""Command-line interface.

    quadriline <classify|rect|path|locus|census|render> --input FILE [flags]

The input file is JSON: {"field": "rational" | {"prime": p}, "pairs": [[lineA,
lineC], [lineB, lineD]]} with each line {"a": ..., "b": ..., "c": ...} written
in the exact literal grammar (integers, or "p/q" over the rationals), read straight
into the ints of an ``InputLine``.  A rectangle's values (:func:`rectangle_json`), the
``classify`` constants and the plane map are text written straight from ints
(``scalars.ratio_text``); any other exact value, a ``Ratio``, prints as its ``str``, a
marker as its value, and :func:`json_text` alone writes the JSON.  Floats appear only in
SVG output.

Exit codes: 0 success, 2 parse, usage or precondition error (one ``error:``
line on stderr), 3 internal assertion failure (a theorem-backed check went
wrong, i.e. a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from enum import Enum
from json.encoder import encode_basestring_ascii

from .census import quadric_point_count, verify_against_paths
from .configuration import (
    ROLES,
    ConfigurationInput,
    InputLine,
    classify,
    diagonal_slopes,
    normalize,
)
from .errors import (
    AllParallelError,
    InternalCheckError,
    ParseError,
    PreconditionError,
    QuadrilineError,
)
from .locus import all_parallel_analysis, centers_paths, scaled, special_rectangles
from .paths import (
    aspect_path_eval,
    aspect_path_polys,
    eval_path,
    ratio_samples,
    slope_path_eval,
    slope_path_polys,
)
from .rectangles import (
    INDETERMINATE, ProjectiveRectangle, _aspect_pair, _slope_pair, aspects_at_infinity,
    slopes_at_infinity,
)
from .scalars import (
    _INT_RE, PSI_13, PrimeField, QQ, Ratio, digit_limit_error, ratio_parse, ratio_text,
)
from .svgfig import render


def _json_int(text: str):
    """A JSON integer literal; past int()'s digit limit it stays text, for its field to reject."""
    try:
        return int(text)
    except ValueError:
        return text


def _prime_modulus(path: str, value) -> int:
    """The modulus as written: a JSON integer (not a bool) or a string of digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        digits = value.lstrip("0")
        # More digits than PSI_13 is too large for PrimeField, and possibly for int().
        if len(digits) > len(str(PSI_13)):
            raise ParseError(
                f"{path}: field.prime has {len(digits)} digits: "
                f"only odd primes below {PSI_13} are supported"
            )
        return int(digits or "0")
    raise ParseError(
        f"{path}: prime must be an integer or a string of digits, not {json.dumps(value)}"
    )


def load_config(path: str) -> ConfigurationInput:
    """The configuration of a JSON file.  Each literal is read to its canonical ints
    (n, d), (n mod p, 1) over F_p, and each line's three are cleared by one lcm to the
    ints of its ``InputLine``.  Once every literal is read, a line whose (a, b) vanishes
    in the field is reported at its slot."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_json_int)
    except ValueError as exc:  # JSONDecodeError, or a file that is not UTF-8
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: the configuration must be a JSON object")
    field_tag = raw.get("field")
    if field_tag == "rational":
        field = QQ
    elif isinstance(field_tag, dict) and "prime" in field_tag:
        field = PrimeField(_prime_modulus(path, field_tag["prime"]))
    else:
        raise ParseError(f"{path}: field must be \"rational\" or {{\"prime\": p}}")
    pairs = raw.get("pairs")
    if not isinstance(pairs, list) or len(pairs) != 2:
        raise ParseError(f"{path}: pairs must hold two ordered pairs of lines")
    parsed = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{path}: pairs[{i}] must hold two lines")
        lines = []
        for j, entry in enumerate(pair):
            coeffs = []
            for key in ("a", "b", "c"):
                if not isinstance(entry, dict) or key not in entry:
                    raise ParseError(f"{path}: pairs[{i}][{j}] missing '{key}'")
                try:
                    coeffs.append(field.parse(str(entry[key])))
                except ParseError as exc:
                    raise ParseError(f"{path}: pairs[{i}][{j}].{key}: {exc}") from None
            (a, s), (b, t), (c, u) = coeffs
            m = math.lcm(s, t, u)
            lines.append(InputLine(a * (m // s), b * (m // t), c * (m // u)))
        parsed.append(tuple(lines))
    try:
        return ConfigurationInput(field, parsed[0], parsed[1])
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _plane_map_json(pm):
    """The plane map's relabeling, translation (-X / Z, -Y / Z) off the last column
    (X, Y, Z) of its matrix, reflection parameter and scale, as text from its ints."""
    p = pm.field.char
    (_, _, x), (_, _, y), (_, _, z) = pm.matrix
    return {
        "swaps": {"pair1": pm.swaps[0], "pair2": pm.swaps[1], "roles": pm.swaps[2]},
        "role_to_input": dict(pm.role_to_input),
        "translation": [ratio_text(p, -x, z), ratio_text(p, -y, z)],
        "reflection_t": None if pm.t is None else ratio_text(p, pm.t, 1),
        "scale": ratio_text(p, *pm.s),
    }


def _pair_text(p: int, pair) -> str:  # a rectangles._slope_pair or _aspect_pair outcome
    return INDETERMINATE.value if pair is None else ratio_text(p, *pair)


def rectangle_json(rect: ProjectiveRectangle, pm) -> dict:
    """A rectangle's report, each value written as text straight from the int key."""
    p, key = rect.field.char, rect.key
    pivot = 1 if p else next(c for c in reversed(key) if c)  # an F_p key is at pivot 1
    out = {
        "projective": [ratio_text(p, c, pivot) for c in key],
        "at_infinity": rect.at_infinity,
        "slope": _pair_text(p, _slope_pair(key)),
        "aspect": _pair_text(p, _aspect_pair(key)),
        "sequence": [pm.role_to_input[r] for r in ROLES],
        "vertices": None,
        "center": None,
    }
    if not rect.at_infinity:
        # Over F_p the center is taken at w (h = 1/2): the affine N gives the five one W.
        xa, ya, xb, yb, xc, yc, xd, yd, w = key
        h, w2 = ((p + 1) // 2, w) if p else (1, 2 * w)
        center = ((xa + xc) * h, (ya + yc) * h, w2)
        images = pm.original([(xa, ya, w), (xb, yb, w), (xc, yc, w), (xd, yd, w), center])
        if p:
            inv = pow(images[0][2], -1, p)
            images = [(X * inv, Y * inv, 1) for X, Y, _ in images]
        *vertices, out["center"] = [[ratio_text(p, X, W), ratio_text(p, Y, W)] for X, Y, W in images]
        out["vertices"] = {pm.role_to_input[r]: v for r, v in zip(ROLES, vertices)}
    return out


def _field_json(field):
    return "rational" if not field.char else {"prime": field.char}


def _all_parallel_json(cfg_input) -> dict:
    field, by_label = cfg_input.field, cfg_input.lines_by_label()
    report = all_parallel_analysis(field, [by_label[r] for r in ROLES])
    out = {**vars(report)}
    if report.midline:  # at the one scale of every printed line, as cmd_locus prints lines
        n0, n1, n2 = report.midline
        out["midline"] = dict(zip("abc", scaled(field, (n0, n1, -n2))))
    return out


def cmd_classify(args) -> dict:
    cfg_input = load_config(args.input)
    try:
        cfg, pm = normalize(cfg_input)
    except AllParallelError:
        return {
            "field": _field_json(cfg_input.field),
            "all_parallel": _all_parallel_json(cfg_input),
        }
    e_diag, f_diag = diagonal_slopes(cfg)
    # The values of the standing ints: m_L, b_A over δ, e1, e2, f2 over δ², f1 over δ³.
    m_a, m_b, m_c, m_d, b_a, d, e1, e2, f1, f2 = cfg.standing
    q = functools.partial(ratio_text, cfg.field.char)
    return {
        "field": _field_json(cfg.field),
        "normalized": {
            "m_A": q(m_a, d), "m_B": q(m_b, d), "m_C": q(m_c, d), "m_D": q(m_d, d),
            "b_A": q(b_a, d),
        },
        "constants": {
            "e1": q(e1, d * d), "e2": q(e2, d * d), "f1": q(f1, d**3), "f2": q(f2, d * d)
        },
        "diagonals": {"E": e_diag, "F": f_diag},
        "class": vars(classify(cfg)),
        "at_infinity": {"slopes": slopes_at_infinity(cfg), "aspects": aspects_at_infinity(cfg)},
        "plane_map": _plane_map_json(pm),
    }


def cmd_rect(args) -> dict:
    cfg_input = load_config(args.input)
    cfg, pm = normalize(cfg_input)
    if args.slope is not None:
        rect = slope_path_eval(cfg, ratio_parse(args.slope, cfg.field))
    else:
        rect = aspect_path_eval(cfg, ratio_parse(args.aspect, cfg.field))
    return rectangle_json(rect, pm)


def cmd_path(args) -> dict:
    if args.samples < 1:
        raise PreconditionError("--samples must be at least 1")
    cfg_input = load_config(args.input)
    cfg, pm = normalize(cfg_input)
    pp = slope_path_polys(cfg) if args.kind == "slope" else aspect_path_polys(cfg)
    rects = [
        {"ratio": ratio_text(cfg.field.char, *st), **rectangle_json(eval_path(cfg, pp, st), pm)}
        for st in ratio_samples(cfg.field, args.samples)
    ]
    return {"kind": args.kind, "rectangles": rects}


def cmd_locus(args) -> dict:
    cfg_input = load_config(args.input)
    try:
        cfg, pm = normalize(cfg_input)
    except AllParallelError:
        return {"shape": "AllParallel", **_all_parallel_json(cfg_input)}
    report, field = centers_paths(cfg), cfg.field
    out = {"shape": report.shape}
    for key in ("slope_centers", "aspect_centers", "gauss_newton", "diagonal_g", "single_line"):
        desc = getattr(report, key)
        out[key] = None
        if desc is not None:
            n0, n1, n2 = desc.normal
            out[key] = {**dict(zip("abc", scaled(field, (n0, n1, -n2)))), "source": desc.source}
    out["conic"] = list(scaled(field, report.conic)) if report.conic else None
    out["point"] = list(scaled(field, report.point)[:2]) if report.point else None
    if report.points:
        out["points"] = [list(scaled(field, point)[:2]) for point in report.points]
    try:
        special = special_rectangles(cfg, report)
    except PreconditionError:
        special = None
    if special is not None:
        out["special_rectangles"] = {
            "center": rectangle_json(special.center_rectangle, pm),
            "centroid": rectangle_json(special.centroid_rectangle, pm),
        }
    else:
        out["special_rectangles"] = None
    return out


def cmd_census(args) -> dict:
    cfg_input = load_config(args.input)
    if not cfg_input.field.char:
        raise PreconditionError("census requires a prime field configuration")
    cfg, _pm = normalize(cfg_input)
    report = verify_against_paths(cfg)
    return {**vars(report), "quadric_points": quadric_point_count(cfg)}


def cmd_render(args) -> dict:
    if args.samples < 0:
        raise PreconditionError("--samples must not be negative")
    cfg_input = load_config(args.input)
    cfg, pm = normalize(cfg_input)
    try:
        render(cfg_input, cfg, pm, args.out, samples=args.samples, diagonals=args.diagonals)
    except OverflowError:
        raise PreconditionError("the drawing does not fit in floats") from None
    return {"written": args.out}


_STR_TYPES = frozenset({str, Ratio})


def json_text(value, indent: str = "\n") -> str:
    """The one writer of report text: ``json.dumps(value, indent=2)`` for dicts
    with str keys, lists, strs, ints, bools and None; a ``Ratio`` as the JSON
    string of its ``str``, and an ``Enum`` member as its value.  Any other type
    raises ``TypeError``, and a number past the int-to-str digit limit
    ``PreconditionError``.

    Values are tested on their exact type, one set lookup or identity test each, so a
    subclass of str, dict or list, which may override what this writer reads, is a
    ``TypeError`` rather than written.  A dict writes its str and int values itself,
    and a list of strs is one join.  The standard encoder runs in pure
    Python when ``indent`` is set, and leaves its nested closures in reference cycles for
    the cyclic garbage collector; this writer leaves none.
    """
    try:
        if type(value) in _STR_TYPES:
            return encode_basestring_ascii(str(value))
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = indent + "  "
        if type(value) is dict:
            if not value:
                return "{}"
            items = [
                inner + encode_basestring_ascii(k) + ": "
                + (encode_basestring_ascii(v) if type(v) is str
                   else int.__repr__(v) if type(v) is int else json_text(v, inner))
                for k, v in value.items()
            ]
            return "{" + ",".join(items) + indent + "}"
        if type(value) is list:
            if not value:
                return "[]"
            try:  # a list of strs, as most of a report's lists are, in one join
                body = ("," + inner).join(map(encode_basestring_ascii, value))
            except TypeError:  # an item that is not a str
                body = ("," + inner).join([json_text(v, inner) for v in value])
            return "[" + inner + body + indent + "]"
        if isinstance(value, Enum):
            return json_text(value.value)
    except ValueError:
        raise digit_limit_error() from None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _samples(text: str) -> int:
    """A ``--samples`` value: a sign and ASCII digits, with whitespace around them, as an
    F_p literal is read.  Anything else is the usage error that argparse's ``int`` gives."""
    if match := _INT_RE.match(text.strip()):
        try:
            return int(match[1])
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through ``add_subparsers`` each of its subparsers,
    whose usage errors raise ``ParseError`` instead of printing usage and exiting."""

    def error(self, message):
        # "unrecognized arguments" quotes argv as given, newlines included.
        raise ParseError(message.replace("\n", "\\n"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="quadriline",
        description="Rectangles inscribed in four lines, exactly, over Q or F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", required=True, help="configuration JSON file")
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify, help="normalized constants, diagonals, classification")
    p_rect = add("rect", cmd_rect, help="the inscribed rectangle of a given slope or aspect")
    group = p_rect.add_mutually_exclusive_group(required=True)
    group.add_argument("--slope", help="slope ratio s/t (write --slope=-1/2 for negatives)")
    group.add_argument("--aspect", help="aspect ratio u/v (write --aspect=-1/2 for negatives)")
    p_path = add("path", cmd_path, help="sample a path of rectangles")
    p_path.add_argument("--kind", choices=("slope", "aspect"), default="slope")
    p_path.add_argument("--samples", type=_samples, default=8)
    add("locus", cmd_locus, help="the locus of rectangle centers")
    add("census", cmd_census, help="brute-force verification over a prime field")
    p_render = add("render", cmd_render, help="draw the configuration as SVG")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--samples", type=_samples, default=12)
    p_render.add_argument("--diagonals", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = json_text(args.fn(args))
    except InternalCheckError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (QuadrilineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
