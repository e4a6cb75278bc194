"""Command-line front end.

Subcommands: genus, index, verify, stats, zeta-det, spectral.  Exit codes:
0 on success, 1 when a verification fails, 2 on input or domain errors,
including floating-point overflow that leaves no answer to print.
Exact values are printed as p/q, numeric values with 17 significant
digits, and identical inputs always produce byte-identical output.  JSON
output (``--format json``) is byte-identical to
``json.dumps(payload, indent=2, sort_keys=True)``; one small writer emits it
for every command, because the standard library falls back to its
pure-Python encoder whenever an indent is set.  The grammar is declared
once, as a table of ``add_argument`` calls.  ``main()`` first reads the
command line with a small exact parser driven by that table; only a line
it declines (help, an abbreviation, ``--opt=value``, any usage error) goes
to the argparse tree built from the same table, which is built on the
first such call and reused by every later one in the process.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional, Sequence

from ._record import Record
from .series import format_rational, parse_rational
from .symmetric import poly_str
from .genera import GENUS_KINDS, genus_polynomial
from .bundles import RootModel
from .manifolds import catalog, genus_number
from .pairings import PAIRING_KINDS, hrr_index, pairing_index, verify_identity
from .statmech import LevelSystem, LevelTable, correspondence_check, grand_ensemble
from .spectral import SpectrumSpec, build_spectral_report, zeta_det

__all__ = ["main", "RunConfig"]

FORMATS = ("text", "json", "csv")


class RunConfig(Record, frozen=False):
    __slots__ = __match_args__ = ("degree", "fmt", "tolerance")

    def __init__(self, degree: Optional[int] = None, fmt: str = "text", tolerance: float = 1e-12):
        if degree is not None and (isinstance(degree, bool) or not isinstance(degree, int)):
            raise ValueError(f"degree must be an integer, got {degree!r}")
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
            raise ValueError(f"tolerance must be a number, got {tolerance!r}")
        if degree is not None and degree < 0:
            raise ValueError("degree must be >= 0")
        if not tolerance > 0:  # also rejects nan
            raise ValueError("tolerance must be positive")
        if tolerance == float("inf"):  # truncates every series after one term
            raise ValueError("tolerance must be finite")
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        self.degree = degree
        self.fmt = fmt
        self.tolerance = tolerance


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _json_float(value: float) -> str:
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _float_texts(values) -> List[str]:
    """The JSON text of each float: ``float.__repr__``, with inf and nan
    spelled as JSON spells them."""
    texts = list(map(float.__repr__, values))
    if "n" in "".join(texts):  # inf or nan
        texts = list(map(_json_float, values))
    return texts


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# exact types whose text needs no further test
_SCALAR_TEXT = {float: _json_float, str: encode_basestring_ascii, int: int.__repr__}


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        # bool, int, float and None keys become strings, as json writes them
        return '"' + _json_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


class _Stream(list):
    """The parts of a JSON text on their way to ``write``: the parts before
    a long list's body are written out when the body starts, and the body
    then a piece at a time (``_append_body``)."""

    __slots__ = ("write",)

    def flush(self) -> None:
        self.write("".join(self))
        self.clear()


def _append_body(parts: List[str], pieces: Iterable[str], separator: str) -> None:
    """Append the body of a long list, made in pieces of one slice of items
    each, joined by ``separator``; to a ``_Stream``, write them as they come."""
    if type(parts) is _Stream:
        parts.flush()
        add = parts.write
    else:
        add = parts.append
    joiner = ""
    for piece in pieces:
        add(joiner)
        add(piece)
        joiner = separator


def _write_json(value, parts: List[str], indent: str) -> None:
    """Append the text of ``value`` at the nesting whose line break and
    indentation is ``indent``; a ``LevelTable`` is its list of records."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        parts.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        separator = "," + inner
        opening = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(opening)
            parts.append(_json_key(key))
            parts.append(": ")
            _write_json(item, parts, inner)
            opening = separator
        parts.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        separator = "," + inner
        if all(type(item) is float for item in value):
            if len(value) > _RECORD_SLICE:
                parts.append("[" + inner)
                _append_body(parts, _float_pieces(value, separator), separator)
                parts.append(indent + "]")
                return
            parts += ("[" + inner, separator.join(_float_texts(value)), indent + "]")
            return
        opening = "[" + inner
        for item in value:
            parts.append(opening)
            _write_json(item, parts, inner)
            opening = separator
        parts.append(indent + "]")
    elif type(value) is LevelTable:
        if not value.count:
            parts.append("[]")
            return
        inner = indent + "  "
        separator = "," + inner
        parts.append("[" + inner)
        _append_body(parts, _table_pieces(value, inner, separator), separator)
        parts.append(indent + "]")
    else:
        parts.append(_json_scalar(value))


# floats per slice of a long float list
_RECORD_SLICE = 1024


# The two generators below are kept out of ``_write_json``: a generator
# expression there would turn its locals into closure cells, which slows
# every call.
def _float_pieces(values, separator: str) -> Iterator[str]:
    """The texts of a long float list, ``_RECORD_SLICE`` floats at a time,
    each slice's joined by ``separator``."""
    for at in range(0, len(values), _RECORD_SLICE):
        yield separator.join(_float_texts(values[at:at + _RECORD_SLICE]))


def _table_pieces(table: LevelTable, indent: str, separator: str) -> Iterator[str]:
    """The records of a ``LevelTable`` at the nesting ``indent``, a slice at
    a time, each slice's joined by ``separator``."""
    template = _row_template(table.keys, indent)
    for columns in table.slices():
        yield _rows_text(template, columns, separator)


def _row_template(keys: Sequence[str], indent: str) -> str:
    """The %-template of one record, at the nesting ``indent``, whose str
    ``keys`` (in sorted order) each take one float's text."""
    inner = indent + "  "
    return "{" + ",".join(
        inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    ) + indent + "}"


def _rows_text(template: str, columns: Sequence[Sequence[float]], separator: str) -> str:
    """The records whose float columns, in key order, are ``columns``, each
    through the row ``template``, joined by ``separator``."""
    return separator.join(map(template.__mod__, zip(*map(_float_texts, columns))))


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte."""
    parts: List[str] = []
    _write_json(payload, parts, "\n")
    return "".join(parts)


def _emit_json(payload) -> None:
    """Write ``_json_text(payload)`` and a line break, in pieces: a long
    list is written a slice at a time, so its text is never held whole."""
    parts = _Stream()
    parts.write = sys.stdout.write
    _write_json(payload, parts, "\n")
    parts.append("\n")
    parts.flush()


def _arg(*names: str, **kwargs):
    return names, kwargs


# The command-line grammar, declared once: the ``add_argument`` names and
# keyword arguments of the global options and of each subcommand, in order.
# A list holds the members of a required mutually exclusive group.
_GLOBAL_ARGS = (
    _arg("--config", help="JSON config file; flags override its keys"),
    _arg("--degree", type=int, help="series truncation degree"),
    _arg("--format", choices=FORMATS, dest="fmt", help="output format"),
    _arg("--tolerance", type=float, help="numeric tolerance"),
)
_COMMANDS = {
    "genus": ("genus polynomials and genus numbers", (
        _arg("kind", choices=GENUS_KINDS),
        [
            _arg("--degree", type=int, dest="genus_degree",
                 help="print the degree-homogeneous class polynomial"),
            _arg("--manifold", help="evaluate the genus on a catalog manifold"),
        ],
    )),
    "index": ("index pairings on catalog manifolds", (
        _arg("pairing", choices=PAIRING_KINDS + ("hrr",)),
        _arg("manifold"),
        _arg("--mode", choices=("exact", "nondegenerate"), default="exact"),
        _arg("--bundle",
             help="line bundle for hrr, e.g. O(3) or O(1,2) (one integer per generator)"),
    )),
    "verify": ("dual-route identity verification", (
        _arg("kind", nargs="?", choices=PAIRING_KINDS),
        _arg("--all", action="store_true", help="verify all four pairings"),
        _arg("--l", type=int, default=2, dest="roots", help="number of roots"),
        _arg("--degree", type=int, dest="verify_degree",
             help="series truncation (default 2l+4)"),
    )),
    "stats": ("grand canonical ensemble report", (
        _arg("input", help="JSON file with {levels, mu, beta, statistics}"),
        _arg("--check-correspondence", action="store_true",
             help="also check Xi against the Fock-character routes"),
    )),
    "zeta-det": ("zeta-regularized spectral determinant", (
        [
            _arg("--finite", help="comma-separated eigenvalues, e.g. 1,2,3"),
            _arg("--affine", nargs=2, type=float, metavar=("A", "C"),
                 help="spectrum a*(n+c), n >= 0"),
            _arg("--input", help="JSON SpectrumSpec file"),
        ],
    )),
    "spectral": ("full spectral-pair report", (
        _arg("input", help="JSON SpectrumSpec file"),
    )),
}


def _add_arguments(parser, entries) -> None:
    """``add_argument`` each grammar entry; a list becomes a required
    mutually exclusive group."""
    for entry in entries:
        group = isinstance(entry, list)
        target = parser.add_mutually_exclusive_group(required=True) if group else parser
        for names, kwargs in entry if group else [entry]:
            target.add_argument(*names, **kwargs)


@lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree of the grammar, built once per process and only
    for a command line that the fast parser declines.  Parsing keeps no
    state in it: every call gets a fresh namespace, and no action appends
    to a shared default."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="statindex",
        description=(
            "Exact characteristic-class and index computations driven by "
            "quantum-statistics generating functions."
        ),
    )
    _add_arguments(parser, _GLOBAL_ARGS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, entries) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), entries)
    return parser


def _fast_grammar(entries):
    """(positionals, options, defaults, groups) of one parser level: each
    argument as (dest, kwargs), options keyed by option string, every
    dest's default as argparse sets it, and the dests of each required
    group."""
    positionals, options, defaults, groups = [], {}, {}, []
    for entry in entries:
        group = isinstance(entry, list)
        if group:
            groups.append([])
        for (name,), kwargs in entry if group else [entry]:
            dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
            store_true = kwargs.get("action") == "store_true"
            defaults[dest] = kwargs.get("default", False if store_true else None)
            if name[0] == "-":
                options[name] = dest, kwargs
            else:
                positionals.append((dest, kwargs))
            if group:
                groups[-1].append(dest)
    return positionals, options, defaults, groups


_, _GLOBAL_OPTIONS, _GLOBAL_DEFAULTS, _ = _fast_grammar(_GLOBAL_ARGS)
_FAST_COMMANDS = {command: _fast_grammar(entries) for command, (_, entries) in _COMMANDS.items()}


def _fast_value(kwargs, text: str):
    """``text`` converted and checked as argparse would; ValueError for a
    value the fast parser leaves to argparse."""
    if text[:1] == "-":
        raise ValueError(text)
    value = kwargs.get("type", str)(text)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(text)
    return value


def _fast_options(options, argv: Sequence[str], at: int, values: dict, given: set) -> int:
    """Read the options of one level from ``argv[at:]`` until a token that
    does not start with ``-``; the index of that token, or an index past
    the end of ``argv`` when the last option lacks values."""
    while at < len(argv) and argv[at][:1] == "-":
        dest, kwargs = options[argv[at]]
        if dest in given:
            raise ValueError(argv[at])
        given.add(dest)
        if kwargs.get("action") == "store_true":
            values[dest] = True
            at += 1
            continue
        count = kwargs.get("nargs", 1)
        converted = [_fast_value(kwargs, text) for text in argv[at + 1:at + 1 + count]]
        values[dest] = converted if "nargs" in kwargs else converted[0]
        at += 1 + count
    return at


def _fast_parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed command line, or None.

    Accepted: global options before the command, the command's positionals
    before its options, exact option strings given at most once, values
    that do not start with ``-``, and exactly one member of each required
    group.  Anything else, ``-h``, ``--opt=value``, abbreviations and ``--``
    among it, is left to argparse, which also writes every error."""
    values = dict(_GLOBAL_DEFAULTS)
    try:
        at = _fast_options(_GLOBAL_OPTIONS, argv, 0, values, set())
        positionals, options, defaults, groups = _FAST_COMMANDS[argv[at]]
        values["command"] = argv[at]
        values.update(defaults)
        at += 1
        for dest, kwargs in positionals:
            if at < len(argv) and argv[at][:1] != "-":
                values[dest] = _fast_value(kwargs, argv[at])
                at += 1
            elif kwargs.get("nargs") != "?":
                return None
        given = set()
        if _fast_options(options, argv, at, values, given) != len(argv):
            return None
    except (ValueError, IndexError, KeyError):
        return None
    if any(len(given.intersection(group)) != 1 for group in groups):
        return None
    return SimpleNamespace(**values)


def _load_config(args: SimpleNamespace) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        for key in ("degree", "tolerance"):
            if key in raw:
                values[key] = raw[key]
        if "format" in raw:
            values["fmt"] = raw["format"]
    if args.degree is not None:
        values["degree"] = args.degree
    if args.fmt is not None:
        values["fmt"] = args.fmt
    if args.tolerance is not None:
        values["tolerance"] = args.tolerance
    return RunConfig(**values)


def _parse_spectrum(args: SimpleNamespace) -> SpectrumSpec:
    if getattr(args, "finite", None) is not None:
        eigenvalues = [float(part) for part in args.finite.split(",") if part.strip()]
        return SpectrumSpec.finite(eigenvalues)
    if getattr(args, "affine", None):
        return SpectrumSpec.affine(args.affine[0], args.affine[1])
    with open(args.input, "r", encoding="utf-8") as handle:
        return SpectrumSpec.from_json_dict(json.load(handle))


def _parse_bundle(spec: str, model) -> RootModel:
    text = spec.strip()
    if text.lower() in ("o", "trivial", "o(0)"):
        return RootModel.build(model.generators, model.complex_dim, [({}, 1)])
    if not (text.startswith("O(") and text.endswith(")")):
        raise ValueError(f"cannot parse bundle {spec!r}; expected O(k1,...)")
    try:
        coeffs = [parse_rational(part) for part in text[2:-1].split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse bundle {spec!r}: {exc}") from exc
    if len(coeffs) != len(model.generators):
        raise ValueError(
            f"bundle {spec!r} has {len(coeffs)} twist(s), manifold "
            f"{model.name} has {len(model.generators)} generator(s)"
        )
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"bundle {spec!r} has a twist that is not an integer")
    root = dict(zip(model.generators, coeffs))
    return RootModel.build(model.generators, model.complex_dim, [(root, 1)])


def _cmd_genus(args: SimpleNamespace, config: RunConfig) -> int:
    if args.genus_degree is not None:
        poly = genus_polynomial(args.kind, args.genus_degree)
        if config.fmt == "json":
            _emit_json(poly.to_json_dict())
        else:
            print(poly_str(poly))
        return 0
    model, tangent = catalog(args.manifold)
    value = genus_number(args.kind, model, tangent)
    if config.fmt == "json":
        _emit_json({"kind": args.kind, "manifold": model.name,
                    "value": format_rational(value)})
    else:
        print(format_rational(value))
    return 0


def _cmd_index(args: SimpleNamespace, config: RunConfig) -> int:
    model, tangent = catalog(args.manifold)
    if args.pairing == "hrr":
        bundle = _parse_bundle(args.bundle, model) if args.bundle else None
        value = hrr_index((model, tangent), bundle, D=config.degree)
        if config.fmt == "json":
            _emit_json({
                "manifold": model.name,
                "pairing": "hrr",
                "bundle": args.bundle or "trivial",
                "index": format_rational(value),
            })
        else:
            print(format_rational(value))
        return 0
    report = pairing_index(args.pairing, (model, tangent), args.mode, D=config.degree)
    if config.fmt == "json":
        _emit_json(report.to_json_dict())
    else:
        print(format_rational(report.index_value))
    return 0


_TABLE_ROWS = (
    ("operator", {"fb": "Dirac", "bb": "de Rham", "ff": "Dirac", "bf": "de Rham"}),
    ("vector bundle", {
        "fb": "spin bundle",
        "bb": "de Rham symbol bundle",
        "ff": "spin bundle",
        "bf": "de Rham symbol bundle",
    }),
    ("character", {
        "fb": "prod exp(x/2)(1+exp(-x))",
        "bb": "prod (1-exp(-x))(1-exp(x))",
        "ff": "prod exp(x/2)(1+exp(-x))",
        "bf": "prod (1-exp(-x))(1-exp(x))",
    }),
    ("class", {"fb": "A-hat", "bb": "Todd/euler", "ff": "B-hat", "bf": "Td*/euler"}),
)


def _cmd_verify(args: SimpleNamespace, config: RunConfig) -> int:
    kinds = PAIRING_KINDS if args.all or args.kind is None else (args.kind,)
    # the subcommand's --degree wins over the global one (flag or config key)
    D = config.degree if args.verify_degree is None else args.verify_degree
    reports = [verify_identity(kind, args.roots, D) for kind in kinds]
    if config.fmt == "json":
        _emit_json([report.to_json_dict() for report in reports])
    else:
        header = f"pairing dictionary (l = {args.roots}, D = {reports[0].truncation})"
        print(header)
        print("-" * len(header))
        for label, values in _TABLE_ROWS:
            for report in reports:
                print(f"{report.kind:>3}  {label:<14} {values[report.kind]}")
        for report in reports:
            print(f"{report.kind:>3}  density        {report.canonical_form}")
        for report in reports:
            status = "PASS" if report.ok else "FAIL"
            print(f"{report.kind:>3}  dual-route     {status}")
            if report.first_mismatch is not None:
                exps, a, b = report.first_mismatch
                print(f"     first differing coefficient at {exps}: {a} vs {b}")
    if all(report.ok for report in reports):
        return 0
    failing = next(r for r in reports if not r.ok)
    print(f"verification failed for {failing.kind} (l={failing.l})", file=sys.stderr)
    return 1


def _cmd_stats(args: SimpleNamespace, config: RunConfig) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        system = LevelSystem.from_json_dict(json.load(handle))
    report = grand_ensemble(system)
    # checked before the first line is written, so an error prints nothing
    check = None
    if args.check_correspondence:
        check = correspondence_check(system, tol=config.tolerance, ensemble=report)
    if config.fmt == "csv":
        sys.stdout.writelines(report.csv_chunks())
    elif config.fmt == "text":
        print(f"statistics        {system.statistics}")
        print(f"levels            {len(system.levels)}")
        print(f"ln Xi             {_fmt_float(report.log_xi)}")
        print(f"Xi                {_fmt_float(report.xi)}")
        print(f"Omega             {_fmt_float(report.omega)}")
        print(f"mean N            {_fmt_float(report.mean_particle_number)}")
    if config.fmt == "json":
        # per-level records as tables, written from their columns: no dict per level
        payload = report._json_payload()
        if check is not None:
            payload["correspondence"] = check._json_payload()
        _emit_json(payload)
    elif check is not None:
        status = "PASS" if check.ok else "FAIL"
        print(
            f"correspondence    {status} "
            f"(max deviation {_fmt_float(check.max_relative_deviation)})"
        )
    return 0 if check is None or check.ok else 1


def _cmd_zeta_det(args: SimpleNamespace, config: RunConfig) -> int:
    spec = _parse_spectrum(args)
    value = zeta_det(spec)
    if config.fmt == "json":
        _emit_json({"spectrum": spec.to_json_dict(), "determinant": value})
    else:
        print(_fmt_float(value))
    return 0


def _cmd_spectral(args: SimpleNamespace, config: RunConfig) -> int:
    spec = _parse_spectrum(args)
    report = build_spectral_report(spec, tol=config.tolerance)
    if config.fmt == "json":
        _emit_json(report.to_json_dict())
        return 0
    print(f"spectrum          {spec.form}")
    print(f"chern character   {_fmt_float(report.chern_character)}")
    print(f"ln Xi_BE          {_fmt_float(report.log_xi_be)}")
    print(f"ln Xi_FD          {_fmt_float(report.log_xi_fd)}")
    print(f"determinant       {_fmt_float(report.determinant)}")
    print(f"euler class       {_fmt_float(report.euler_class)}")
    if report.pairings is not None:
        for kind in PAIRING_KINDS:
            values = report.pairings[kind]
            print(
                f"pairing {kind}        exact {_fmt_float(values['exact'])}  "
                f"nondegenerate {_fmt_float(values['nondegenerate'])}"
            )
    return 0


_HANDLERS = {
    "genus": _cmd_genus,
    "index": _cmd_index,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "zeta-det": _cmd_zeta_det,
    "spectral": _cmd_spectral,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        config = _load_config(args)
        return _HANDLERS[args.command](args, config)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
