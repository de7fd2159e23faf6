"""Command-line front end.

Subcommands mirror the library modules; every payload is deterministic JSON
on stdout (sorted keys, no timestamps), diagnostics and the version header go
to stderr.  Exit codes: 0 success, 1 validation error, 2 unsupported
structure; a usage error (an unknown subcommand or option, a missing or
malformed argument) is a validation error.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import warnings
from json.encoder import INFINITY as _INF, c_make_encoder, encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .benjamin_ono import bo_report
from .classification import classification_report, decompose_module
from .errors import UnsupportedStructureError, ValidationError
from .exact_linalg import IntVecFin, format_rational_pair, parse_int, parse_rational, parse_rational_pair
from .frequency import DEFAULT_DEPTH, DEFAULT_PRECISION_BITS, FrequencyVector, SigmaSequence, clamp_depth, parse_frequency_spec
from .resonance_reduction import reduce_flow, reduce_vector, resonance_basis
from .solenoid_geometry import (
    SolenoidCoords,
    TorusPoint,
    is_member,
    times_and_target,
    to_coordinates,
)


def _float(x: float) -> str:
    return "NaN" if x != x else "Infinity" if x == _INF else "-Infinity" if x == -_INF else float.__repr__(x)


# the JSON text of each scalar type, looked up by exact type; subclasses of
# str, int and float are found by isinstance in _encode
_LEAF = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
         bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}
_STR, _DICT = {str}, {dict}
# the least length of a list of records that json's C encoder writes, a
# shorter list being as fast on the recursive path; none without the encoder
_C_RECORDS = 8 if c_make_encoder else sys.maxsize


def _flat_records(x) -> bool:
    """Whether the nonempty sequence x holds only flat records: nonempty
    dicts with exact-``str`` keys and values of an exact scalar type.  The
    first record's values are tried first, so a list of nested dicts fails
    fast."""
    return (type(x[0]) is dict and _LEAF.keys() >= set(map(type, x[0].values()))
            and set(map(type, x)) == _DICT and all(x)
            and _LEAF.keys() >= set(map(type, itertools.chain.from_iterable(map(dict.values, x))))
            and set(map(type, itertools.chain.from_iterable(x))) == _STR)


def _encode(x, nl: str, out: list[str]) -> None:
    """Append x to ``out`` in the bytes of ``json.dumps(x, sort_keys=True,
    indent=2)``; ``nl`` is a newline plus the indent of x's line.  Keys must
    be ``str``: another key, like a value of any other type, is a TypeError.

    A list or tuple of at least ``_C_RECORDS`` flat records (see
    ``_flat_records``) is one call of json's C encoder, whose comma
    separator is a newline plus the keys' indent ``rec``; one
    ``str.replace`` then puts each record boundary ``},`` rec ``{`` on its
    own lines.  The bytes are json.dumps's because
    ``encode_basestring_ascii`` escapes every control character, so a raw
    newline comes only from a separator, and a record's values are scalars,
    so a separator followed by ``{`` starts a record and nothing else."""
    leaf = _LEAF.get(type(x))
    if leaf:
        out.append(leaf(x))
    elif isinstance(x, dict):
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k in sorted(x):  # encode_basestring_ascii raises TypeError on a non-str key
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _encode(x[k], inner, out)
            sep = comma
        out.append(nl + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner = nl + "  "
        kinds = set(map(type, x))  # a list of one scalar type is written in one join
        if len(kinds) == 1 and (leaf := _LEAF.get(kinds.pop())):
            out.append("[" + inner + ("," + inner).join(map(leaf, x)) + nl + "]")
            return
        if len(x) >= _C_RECORDS and _flat_records(x):
            rec = inner + "  "  # the keys' lines; sorted keys, no indent, each comma followed by rec
            encoder = c_make_encoder(None, None, encode_basestring_ascii, None, ": ", "," + rec, True, False, True)
            text = "".join(encoder(x, 0))[2:-2]  # without the outer "[{" and "}]"
            out.append("[" + inner + "{" + rec + text.replace("}," + rec + "{", inner + "}," + inner + "{" + rec)
                       + inner + "}" + nl + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for v in x:
            out.append(sep)
            _encode(v, inner, out)
            sep = comma
        out.append(nl + "]" if x else "[]")
    else:
        leaf = next((_LEAF[t] for t in (str, int, float) if isinstance(x, t)), None)
        if leaf is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        out.append(leaf(x))


def _emit(payload) -> None:
    out: list[str] = []
    _encode(payload, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _load_json(path: str):
    """The JSON document in file ``path``, the one reader of spec, ``--poly``
    and ``bo`` files: an unreadable file, text that is not UTF-8 or not JSON,
    and JSON nested past the recursion limit are validation errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _load_spec(path: str) -> FrequencyVector:
    return parse_frequency_spec(_load_json(path))


def _entries(text: str, option: str) -> list[str]:
    """The entries of ``option``'s comma list, the one reader of every comma
    option: a list of blank entries only is empty, and a blank entry among
    others is an error, since dropping it would shift the later entries."""
    entries = text.split(",")
    blank = [k for k, v in enumerate(entries, 1) if not v.strip()]
    if len(blank) == len(entries):
        raise ValidationError(f"{option} is empty")
    if blank:
        raise ValidationError(f"{option} entry {blank[0]} is empty")
    return entries


def _parse_nu(text: str) -> IntVecFin:
    return IntVecFin.from_list([parse_int(v, "--nu entry") for v in _entries(text, "--nu")])


def _parse_sequence(text: str) -> SigmaSequence:
    """--a accepts either a comma list (treated as the prefix, with a constant
    tail continuing the last entry) or inline JSON {"prefix": ..., "tail": ...}."""
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"--a JSON is malformed: {exc}") from None
        return SigmaSequence.from_json(doc)
    values = tuple(parse_int(v, "--a entry") for v in _entries(text, "--a"))
    tail = values[-1] if len(values) > 1 and values[-1] > 1 else 2
    return SigmaSequence(values, "constant", (tail,))


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """--theta as integer pairs (p mod q, q): each angle wrapped into [0,1),
    never reduced and never made a Fraction."""
    return [(p % q, q) for p, q in map(parse_rational_pair, _entries(text, "--theta"))]


def _start(fv: FrequencyVector, args) -> TorusPoint:
    """A float subcommand's start point: --theta0, which must have as many
    entries as --depth clamped to a finite vector, or the origin there."""
    depth = clamp_depth(fv, args.depth)
    theta0 = TorusPoint.exact_point(_entries(args.theta0, "--theta0")) if args.theta0 else TorusPoint.origin(depth)
    if theta0.depth != depth:
        raise ValidationError(f"depth {depth} does not match point depth {theta0.depth}")
    return theta0


def _precision(args) -> int:
    bits = args.precision
    if bits is None:
        env = os.environ.get("KRON_PRECISION")
        bits = parse_int(env, "KRON_PRECISION") if env else DEFAULT_PRECISION_BITS
    if bits < DEFAULT_PRECISION_BITS:
        raise ValidationError(f"precision must be >= {DEFAULT_PRECISION_BITS} bits, got {bits}")
    return bits


# -- subcommand handlers


def _cmd_classify(args) -> None:
    fv = _load_spec(args.spec)
    _emit(classification_report(fv, args.depth))


def _cmd_resonance(args) -> None:
    fv = _load_spec(args.spec)
    _emit(resonance_basis(fv, args.depth).to_json())


def _cmd_reduce(args) -> None:
    nu = _parse_nu(args.nu)
    cert = reduce_vector(nu)
    payload = cert.to_json()
    payload["input"] = nu.to_json()
    _emit(payload)


def _cmd_reduce_flow(args) -> None:
    fv = _load_spec(args.spec)
    _emit(reduce_flow(fv, args.depth).to_json())


# The float subcommands import mpmath and dynamics when they run, and evaluate
# at the --precision that main resolved, so the exact subcommands never load
# mpmath or numpy.


def _cmd_simulate(args) -> None:
    import mpmath

    from .dynamics import sample_trajectory

    fv = _load_spec(args.spec)
    theta0 = _start(fv, args)
    # all rows exist before --out is opened, so a rejected request leaves it intact
    with mpmath.workprec(args.precision):
        rows = sample_trajectory(fv, theta0, args.t0, args.t1, args.steps)
    # the bytes of csv.writer: no %.12g text of a finite double holds a comma,
    # a quote, CR or LF, so no cell is quoted, and each line ends in "\r\n"
    row = ",".join(["%.12g"] * (theta0.depth + 1)) + "\r\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["t"] + [f"theta_{j}" for j in range(1, theta0.depth + 1)]) + "\r\n")
            fh.writelines(row % (t, *angles) for t, angles in rows)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from None
    _emit({"out": args.out, "steps": args.steps, "depth": theta0.depth})


def _cmd_average(args) -> None:
    import mpmath

    from .dynamics import haar_average, parse_polynomial, time_average

    fv = _load_spec(args.spec)
    poly = parse_polynomial(_load_json(args.poly))
    theta0 = _start(fv, args)
    with mpmath.workprec(args.precision):
        rows = time_average(fv, poly, theta0, args.T)
    _emit({"haar": str(haar_average(poly)),
           "rows": [{"T": t, "value": value, "envelope": envelope} for t, (value, envelope) in zip(args.T, rows)]})


def _cmd_equidistribution(args) -> None:
    import mpmath

    from .dynamics import equidistribution_report

    fv = _load_spec(args.spec)
    nus = [_parse_nu(n) for n in args.nu]
    theta0 = _start(fv, args)
    with mpmath.workprec(args.precision):
        rows = equidistribution_report(fv, nus, args.T, theta0)
    _emit({"rows": rows})


def _cmd_solenoid(args) -> None:
    a = _parse_sequence(args.a)
    if args.solenoid_op in ("member", "coords") and not args.theta:
        raise ValidationError(f"solenoid {args.solenoid_op} needs --theta")
    if args.solenoid_op == "times" and args.tau is None:
        raise ValidationError("solenoid times needs --tau")
    if args.solenoid_op == "times" and not args.digits:
        raise ValidationError("solenoid times needs --digits (depth >= 2)")
    if args.solenoid_op == "member":
        theta = _parse_pairs(args.theta)
        verdict = is_member(a, theta)
        _emit({"member": verdict, "depth": len(theta), "verdict": f"member at depth {len(theta)}" if verdict else "not a member"})
    elif args.solenoid_op == "coords":
        _emit(to_coordinates(a, _parse_pairs(args.theta)).to_json())
    else:  # times
        digits = tuple(parse_int(v, "--digits entry") for v in _entries(args.digits, "--digits"))
        coords = SolenoidCoords(parse_rational(args.tau), digits)
        times, target = times_and_target(a, coords)
        _emit({
            "times": [format_rational_pair(*t) for t in times],
            "target": [format_rational_pair(*theta) for theta in target],
        })


def _cmd_bo(args) -> None:
    doc = _load_json(args.spec)
    if isinstance(doc, dict):
        doc = {"kind": "bo", **doc}  # only `kron bo` may omit the kind
        if doc["kind"] != "bo":
            raise ValidationError(f"kron bo needs a spec of kind 'bo', got {doc['kind']!r}")
    _emit(bo_report(parse_frequency_spec(doc), args.depth))


def _cmd_iso(args) -> None:
    md1 = decompose_module(_load_spec(args.spec1), args.depth)
    md2 = decompose_module(_load_spec(args.spec2), args.depth)
    _emit({
        "homeomorphic": md1.closure_homeomorphic(md2),
        "left": md1.closure(),
        "right": md2.closure(),
    })


# -- the grammar

_DEPTH = {"--depth": {"type": int, "default": DEFAULT_DEPTH}}
_T = {"--T": {"type": float, "nargs": "+", "default": (100.0, 1000.0, 10000.0)}}

# The one declaration of kron's command line: the top-level options, then
# per subcommand its handler, its help, its positionals and its options.
# Each positional (by dest) and each option (by flag) carries the keywords
# of its argparse ``add_argument`` call: ``type``, ``default``,
# ``required``, ``choices``, ``help``, and ``nargs="+"`` or
# ``action="append"``.  build_parser builds argparse's parser from it, and
# _read_argv reads a well-formed argv from it.
_OPTIONS = {"--precision": {"type": int, "help": "mantissa bits (>= 64); env KRON_PRECISION"}}
_COMMANDS = {
    "classify": (_cmd_classify, "module decomposition and orbit-closure descriptor", {"spec": {}}, _DEPTH),
    "resonance": (_cmd_resonance, "basis of the integer relations", {"spec": {}}, _DEPTH),
    "reduce": (_cmd_reduce, "collapse an integer vector to (gcd, 0, ...)", {}, {"--nu": {"required": True}}),
    "reduce-flow": (_cmd_reduce_flow, "conjugate to zero block + kernel-free block", {"spec": {}}, _DEPTH),
    "simulate": (_cmd_simulate, "sample a float trajectory to CSV", {"spec": {}}, {
        "--t0": {"type": float, "default": 0.0},
        "--t1": {"type": float, "required": True},
        "--steps": {"type": int, "required": True},
        **_DEPTH,
        "--theta0": {"help": "comma list of rationals (turns)"},
        "--out": {"required": True},
    }),
    "average": (_cmd_average, "closed-form time average of a polynomial", {"spec": {}}, {
        "--poly": {"required": True}, **_T, **_DEPTH, "--theta0": {},
    }),
    "equidistribution": (_cmd_equidistribution, "decay table for monomials", {"spec": {}}, {
        "--nu": {"action": "append", "required": True, "help": "comma list; repeatable"}, **_T, **_DEPTH, "--theta0": {},
    }),
    "solenoid": (_cmd_solenoid, "membership, coordinates, approximating times",
                 {"solenoid_op": {"choices": ["member", "coords", "times"]}}, {
        "--a": {"required": True, "help": "comma list (prefix) or JSON sequence"},
        "--theta": {"help": "comma list of rationals (turns)"},
        "--tau": {},
        "--digits": {},
    }),
    "bo": (_cmd_bo, "integrable-flow classification report", {"spec": {}}, _DEPTH),
    "iso": (_cmd_iso, "are the orbit closures homeomorphic?", {"spec1": {}, "spec2": {}}, _DEPTH),
}


def _dest(flag: str) -> str:
    """The dest argparse gives an option flag."""
    return flag.lstrip("-").replace("-", "_")


def build_parser():
    """kron's argparse parser, built from ``_COMMANDS``: the source of every
    usage error message and of ``--help``.  argparse is imported here, so a
    call that ``_read_argv`` reads never loads it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argparse parser whose usage errors are validation errors (exit
        1, one ``error:`` line), not argparse's exit 2 with a usage banner;
        the subparsers are built from the same class."""

        def error(self, message: str):
            raise ValidationError(message)

    parser = _Parser(prog="kron", description=__doc__)
    for flag, keywords in _OPTIONS.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        for name_or_flag, keywords in (positionals | options).items():
            p.add_argument(name_or_flag, **keywords)
    return parser


def _parse_args(argv: list):
    """``build_parser().parse_args(argv)``, for an argv that ``_read_argv``
    declines.  argparse drops a ``--`` value (``--depth=--``) and stores
    ``[]``, or appends ``[]`` to an ``append`` list: that option is missing
    its value, a usage error in argparse's own words."""
    args = build_parser().parse_args(argv)
    for flag, keywords in (_OPTIONS | _COMMANDS[args.command][3]).items():
        value = getattr(args, _dest(flag))
        if value == [] or keywords.get("action") == "append" and [] in (value or ()):
            wanted = "at least one argument" if keywords.get("nargs") == "+" else "one argument"
            raise ValidationError(f"argument {flag}: expected {wanted}")
    return args


def _value(keywords: dict, text: str):
    """text converted as argparse converts an argument of these keywords;
    ValueError where argparse rejects it."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(text)
    return value


def _read(argv: list[str], k: int, options: dict, limit: int) -> tuple[dict, list[str], int]:
    """Read argv from index k until the end or its ``limit``-th positional:
    each option's value into a dict under the option's dest.  Returns the
    dict, the positionals (the tokens not starting with "-" that no option
    took) and the index after the last token read.  Raises ValueError on a
    token argparse might read another way and on a value it rejects."""
    values: dict = {}
    positionals: list[str] = []
    while k < len(argv) and len(positionals) < limit:
        token = argv[k]
        k += 1
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        keywords = options.get(flag)
        if keywords is None:  # -h, --help, --, -, an abbreviation, a negative number, an unknown option
            raise ValueError(token)
        dest = _dest(flag)
        if keywords.get("nargs") == "+":
            end = next((j for j in range(k, len(argv)) if argv[j].startswith("-")), len(argv))
            if eq or end == k:  # no value, or --T=v, which argparse reads as one value
                raise ValueError(token)
            values[dest] = [_value(keywords, value) for value in argv[k:end]]
            k = end
            continue
        if not eq:
            if k == len(argv) or argv[k].startswith("-"):
                raise ValueError(token)
            text = argv[k]
            k += 1
        elif text == "--":  # argparse drops a "--" value
            raise ValueError(token)
        if keywords.get("action") == "append":
            values.setdefault(dest, []).append(_value(keywords, text))
        else:
            values[dest] = _value(keywords, text)
    return values, positionals, k


def _read_argv(argv: list) -> SimpleNamespace | None:
    """The namespace of ``build_parser().parse_args(argv)``, read from
    ``_COMMANDS`` in one pass, or None: argparse then reads argv, so it
    alone writes usage errors and ``--help``.

    The reader accepts ``str`` tokens only: the exact top-level options, an
    exact subcommand name, then that subcommand's exact options and its
    positionals in any order, as many positionals as it declares, and every
    required option.  An option takes ``--opt=value`` or the next token if
    that does not start with "-"; an ``nargs="+"`` option takes the tokens
    up to the next one that does, at least one, and has no ``=`` form.  Any
    other token starting with "-" (``-h``, ``--``, an abbreviation, a
    negative number), a value argparse rejects and a missing required option
    are left to argparse."""
    if not all(isinstance(token, str) for token in argv):
        return None
    try:
        top, head, k = _read(argv, 0, _OPTIONS, 1)
        if not head or head[0] not in _COMMANDS:
            return None
        fn, _, positionals, options = _COMMANDS[head[0]]
        values, tokens, _ = _read(argv, k, options, len(argv))
        if len(tokens) != len(positionals) or any(
                keywords.get("required") and _dest(flag) not in values for flag, keywords in options.items()):
            return None
        return SimpleNamespace(**{
            **{_dest(flag): keywords.get("default") for flag, keywords in (_OPTIONS | options).items()},
            **top, "command": head[0], "fn": fn, **values,
            **{dest: _value(keywords, token) for (dest, keywords), token in zip(positionals.items(), tokens)},
        })
    except ValueError:
        return None


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact integers of any size, read and written, for this call only
    with warnings.catch_warnings():  # restores the caller's filters and display on return
        warnings.simplefilter("always", UserWarning)  # the library's warnings: each one, on every call
        warnings.showwarning = _show_warning
        try:
            args = _read_argv(argv) or _parse_args(argv)
            print(f"kronflow {__version__}", file=sys.stderr)
            args.precision = _precision(args)  # checked for every subcommand, used by the float ones
            args.fn(args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except UnsupportedStructureError as exc:
            print(f"unsupported structure: {exc}", file=sys.stderr)
            return 2
        finally:
            sys.set_int_max_str_digits(digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
