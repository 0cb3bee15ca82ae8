"""Command-line interface and fan-document serialization.

A fan document is a single JSON object with exactly the fields
  rank       integer
  rays       array of integer arrays
  max_cones  array of arrays of ray indices
  name       optional string
Exit codes: 0 success, 1 mathematical/validation failure, 2 usage or
parse error.  All reports are deterministic.  Each command builds its
--json object once and renders the human report from that object, so the
two carry the same fields.  The --json text is indented by 2 with sorted
keys and ASCII escapes, byte-identical to json.dumps(obj, indent=2,
sort_keys=True) (see _json_text).

Documents are loaded into one Fan per canonical fan per process: every
subcommand run in the same process on the same fan (in any ray or cone
order, under any name) reads the same object, so its validation, cones
and the facts kept on it (roots, automorphisms, decomposition, witnesses)
are computed once.  The loaded fans are kept for the life of the process.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .fan import (
    Fan,
    FanValidationError,
    IncompleteFanError,
    is_complete,
    is_simplicial,
    is_smooth,
    per_fan,
    product_fan,
)
from .roots import classify_roots, demazure_roots, product_chart_roots, product_roots
from .structure import (
    aut_structure_report,
    decompose,
    fan_automorphisms,
    wreath_order_check,
)
from .symbolic import (
    action_additivity_check,
    action_chart_check,
    faithfulness_check,
    infinitesimal_check,
    regularity_check,
    witness_holds,
)


class FanDocumentError(ValueError):
    """Malformed or schema-violating fan document."""


_FIELDS = {"rank", "rays", "max_cones", "name"}
_INT = frozenset((int,))  # exact types: bool is an int subclass, and not a JSON integer


class FanDocument(NamedTuple):
    """A parsed fan document; equality and hash ignore the warnings."""

    rank: int
    rays: tuple
    max_cones: tuple
    name: Optional[str] = None
    warnings: tuple = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])


def parse_fan(text: str) -> FanDocument:
    """Parse a fan document; rays are auto-primitivized with a warning."""
    # ValueError: malformed JSON, or an integer literal over Python's digit
    # limit; RecursionError: nesting deeper than the recursion limit
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FanDocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FanDocumentError("document must be a JSON object")
    unknown = set(raw) - _FIELDS
    if unknown:
        raise FanDocumentError(f"unknown fields: {sorted(unknown)}")
    for key in ("rank", "rays", "max_cones"):
        if key not in raw:
            raise FanDocumentError(f"missing field '{key}'")
    rank = raw["rank"]
    if type(rank) is not int or rank < 0:
        raise FanDocumentError("'rank' must be a non-negative integer")
    rays = []
    warnings = []
    if type(raw["rays"]) is not list:
        raise FanDocumentError("'rays' must be an array")
    for i, r in enumerate(raw["rays"]):
        if type(r) is not list or len(r) != rank or not _INT.issuperset(map(type, r)):
            raise FanDocumentError(f"ray {i} must be an array of {rank} integers")
        g = gcd(*r)
        if g == 0:
            raise FanDocumentError(f"ray {i} is the zero vector")
        if g != 1:
            r = [x // g for x in r]
            warnings.append(f"ray {i} normalized to {r}")
        rays.append(tuple(r))
    if type(raw["max_cones"]) is not list:
        raise FanDocumentError("'max_cones' must be an array")
    cones = []
    for j, c in enumerate(raw["max_cones"]):
        if type(c) is not list or not _INT.issuperset(map(type, c)):
            raise FanDocumentError(f"cone {j} must be an array of ray indices")
        idx = sorted(set(c))
        if idx and (idx[0] < 0 or idx[-1] >= len(rays)):
            bad = next(i for i in c if not 0 <= i < len(rays))
            raise FanDocumentError(f"cone {j}: ray index {bad} out of range")
        cones.append(tuple(idx))
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise FanDocumentError("'name' must be a string")
    # a JSON escape such as \ud800 can spell a lone surrogate, which no
    # UTF-8 stream can print
    try:
        (name or "").encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FanDocumentError(f"'name' is not valid Unicode text: {exc.reason}") from exc
    return FanDocument(rank=rank, rays=tuple(rays), max_cones=tuple(cones),
                       name=name, warnings=tuple(warnings))


_LOADED: dict = {}  # canonical fan -> the first Fan loaded for it


def fan_from_document(doc: FanDocument) -> Fan:
    """The process's one Fan for the document's canonical fan (rank, sorted
    rays, maximal cones), so that the facts kept on it are computed once
    however many subcommands load it.  The Fan is kept, with those facts,
    for the life of the process; nothing else keeps a fan.  Fan(...)
    itself still returns a fresh, uncached object."""
    fan = Fan(doc.rank, doc.rays, doc.max_cones)
    return _LOADED.setdefault(fan, fan)


def document_from_fan(fan: Fan, name: Optional[str] = None) -> FanDocument:
    return FanDocument(rank=fan.rank, rays=fan.rays, max_cones=fan.max_cones,
                       name=name)


def _lists(rows) -> list:
    return [list(r) for r in rows]


def _document_obj(doc: FanDocument) -> dict:
    obj = {"rank": doc.rank, "rays": _lists(doc.rays), "max_cones": _lists(doc.max_cones)}
    if doc.name is not None:
        obj["name"] = doc.name
    return obj


def document_to_json(doc: FanDocument) -> str:
    return json.dumps(_document_obj(doc), indent=2)


def _json_text(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for the
    types the commands emit: dict with str keys, list, tuple, str, int,
    True, False and None, each exactly (no subclass); a TypeError for any
    other.  The standard encoder runs in pure Python whenever it indents;
    here each row of ints is one str.join."""
    t = type(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        if _INT.issuperset(map(type, obj)):
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(obj[k], inner)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _load(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FanDocumentError(f"{path}: {exc}") from exc
    doc = parse_fan(text)
    name = doc.name if doc.name is not None else path
    return doc, fan_from_document(doc), name


def _roots_obj(fan: Fan, roots) -> list:
    return [{"e": list(r.e), "ray_index": r.rho_e, "ray": list(fan.rays[r.rho_e])}
            for r in roots]


# ---------------------------------------------------------------------------
# reports.  A command's runner takes (args, fans) and returns (exit code,
# --json object, render); render() gives the human lines from that object
# alone, so every field is formatted in one place.  A per-fan command has an
# `_entry` function building one fan's object and a `_lines` function
# rendering it.


def _validate_entry(fan: Fan, name: str) -> dict:
    report = fan.validation
    entry = {"name": name, "valid": report.ok,
             "violations": [{"code": e.code, "message": e.message}
                            for e in report.entries]}
    if report.ok:
        entry.update(complete=is_complete(fan), smooth=is_smooth(fan),
                     simplicial=is_simplicial(fan))
    return entry


def _validate_lines(e: dict) -> list:
    if e["valid"]:
        return [f"{e['name']}: VALID (complete={e['complete']}, "
                f"smooth={e['smooth']}, simplicial={e['simplicial']})"]
    return [f"{e['name']}: INVALID"] + [f"  - [{v['code']}] {v['message']}"
                                        for v in e["violations"]]


def _roots_entry(fan: Fan, name: str) -> dict:
    roots = demazure_roots(fan)
    pairs, unipotent = classify_roots(roots)
    return {"name": name, "count": len(roots), "roots": _roots_obj(fan, roots),
            "semisimple_pairs": [_lists(pair) for pair in pairs],
            "unipotent": _lists(unipotent)}


def _roots_lines(e: dict) -> list:
    return ([f"{e['name']}: {e['count']} roots"]
            + [f"  e={r['e']}  rho_e=ray {r['ray_index']} {r['ray']}" for r in e["roots"]]
            + [f"  semisimple pairs: {e['semisimple_pairs']}",
               f"  unipotent: {e['unipotent']}"])


def _autos_entry(fan: Fan, name: str) -> dict:
    autos = fan_automorphisms(fan)
    return {"name": name, "order": len(autos),
            "automorphisms": [{"matrix": _lists(a.matrix),
                               "ray_permutation": list(a.ray_permutation)}
                              for a in autos]}


def _autos_lines(e: dict) -> list:
    return [f"{e['name']}: fan automorphism group of order {e['order']}"] + [
        f"  {a['matrix']} permuting rays {a['ray_permutation']}" for a in e["automorphisms"]]


def _decompose_entry(fan: Fan, name: str) -> dict:
    return {"name": name, "factors": [{
        "rank": factor.fan.rank,
        "rays": _lists(factor.fan.rays),
        "max_cones": _lists(factor.fan.max_cones),
        "basis": _lists(factor.basis),
        "certified_indecomposable": factor.certified_indecomposable,
        "certificate": [{"block_a": list(f.block_a),
                         "block_b": list(f.block_b),
                         "failed_criterion": f.failed_criterion}
                        for f in factor.certificate],
    } for factor in decompose(fan).factors]}


def _decompose_lines(e: dict) -> list:
    lines = [f"{e['name']}: {len(e['factors'])} indecomposable factor(s)"]
    for k, factor in enumerate(e["factors"], 1):
        lines.append(f"  factor {k}: rank {factor['rank']}, rays {factor['rays']}, "
                     f"basis {factor['basis']}")
        lines.extend(f"    bipartition {f['block_a']} | {f['block_b']} fails: "
                     f"{f['failed_criterion']}" for f in factor["certificate"])
        if not factor["certificate"]:
            lines.append("    indecomposable: single circuit-closed block")
    return lines


def _report_entry(fan: Fan, name: str) -> dict:
    rep = aut_structure_report(fan)
    return {
        "name": name,
        "torus_rank": rep.torus_rank,
        "root_count": rep.root_count,
        "roots": _roots_obj(fan, rep.roots),
        "dim_aut0": rep.dim_aut0,
        "fan_automorphism_order": rep.fan_automorphism_order,
        "fan_automorphism_generators": [_lists(g.matrix)
                                        for g in rep.fan_automorphism_generators],
        "factor_multiset": [[label, mult] for label, mult in rep.factor_multiset],
        "factor_classes": [{
            "label": cls.label,
            "rank": cls.representative.rank,
            "rays": _lists(cls.representative.rays),
            "multiplicity": cls.multiplicity,
            "root_count": cls.root_count,
            "dim_aut0": cls.dim_aut0,
            "fan_automorphism_order": cls.fan_automorphism_order,
        } for cls in rep.factor_classes],
        "structure_string": rep.structure_string}


def _report_lines(e: dict) -> list:
    return ([f"{e['name']}:",
             f"  torus rank: {e['torus_rank']}",
             f"  roots: {e['root_count']}",
             f"  dim Aut^0: {e['dim_aut0']}",
             f"  fan automorphism group order: {e['fan_automorphism_order']}",
             f"  generators: {e['fan_automorphism_generators']}",
             f"  factor multiset: {e['factor_multiset']}"]
            + [f"    {c['label']}: rank {c['rank']}, multiplicity {c['multiplicity']}, "
               f"roots {c['root_count']}, dim Aut^0 {c['dim_aut0']}, "
               f"fan autos {c['fan_automorphism_order']}" for c in e["factor_classes"]]
            + [f"  structure: {e['structure_string']}"])


def _each_fan(entry, lines):
    """Runner reporting each fan on its own; exit 1 when an entry says its
    fan is not valid."""
    def run(args, fans) -> tuple:
        entries = [entry(fan, name) for _, fan, name in fans]
        code = 0 if all(e.get("valid", True) for e in entries) else 1
        return (code, {"command": args.command, "fans": entries},
                lambda: [line for e in entries for line in lines(e)])
    return run


def _run_product(args, fans) -> tuple:
    if len(fans) != 2:
        raise FanDocumentError("product needs exactly two fan files")
    (_, f1, n1), (_, f2, n2) = fans
    doc = document_from_fan(product_fan(f1, f2), name=f"{n1} x {n2}")
    obj, text = _document_obj(doc), document_to_json(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise FanDocumentError(f"{args.output}: {exc}") from exc
        return 0, obj, lambda: [f"wrote product fan to {args.output}"]
    return 0, obj, lambda: [text]


@per_fan
def _product_roots_hold(f1: Fan, f2: Fan) -> bool:
    """The product-roots certificate: the roots assembled factor-wise
    equal those enumerated on the product's rays in its factors' charts,
    with no product fan built; the verdict is kept on f1."""
    return product_roots(f1, f2) == product_chart_roots(f1, f2)


def run_certificates(fans) -> list:
    """The full certificate suite over one or two fans.

    Returns (certificate, fan name, ok, detail) tuples; the product-roots
    certificate pairs the two given fans, or a fan with itself.
    """
    out = []
    for _, fan, name in fans:
        report = fan.validation
        out.append(("valid", name, report.ok, report.summary()))
        if not report.ok:
            continue
        if not is_complete(fan):
            out.append(("complete", name, False, "fan is not complete"))
            continue
        out.append(("complete", name, True, ""))
        roots = demazure_roots(fan)
        # no certificate samples a dual cone
        ok = all(regularity_check(fan, r).ok for r in roots)
        out.append(("regularity", name, ok, f"{len(roots)} roots"))
        # the chart conditions are each root's ray inequalities on the
        # charts containing rho_e; the binomial identities depend on a
        # sample only through k = <rho_e, m>, so each runs once per
        # distinct k of the height-2 samples over every root
        certs = [action_chart_check(fan, r) for r in roots]
        additive, infinitesimal = {}, {}
        for c in certs:
            for k, m in c.degrees:
                if k not in additive:
                    additive[k] = action_additivity_check(fan, c.root, m)
                    infinitesimal[k] = infinitesimal_check(fan, c.root, m)
        ok = all(c.additive for c in certs) and all(additive.values())
        out.append(("additivity", name, ok, "height-2 samples"))
        ok = all(c.infinitesimal for c in certs) and all(infinitesimal.values())
        out.append(("infinitesimal", name, ok, "height-2 samples"))
        ok = all(witness_holds(fan, r, faithfulness_check(fan, r)) for r in roots)
        out.append(("faithfulness", name, ok, "witness per root"))
        out.append(("wreath_order", name, wreath_order_check(fan), ""))
    if all(ok for _, _, ok, _ in out):
        pair = (fans[0], fans[1]) if len(fans) >= 2 else (fans[0], fans[0])
        (_, f1, n1), (_, f2, n2) = pair
        out.append(("product_roots", f"{n1} x {n2}", _product_roots_hold(f1, f2), ""))
    return out


def _check_lines(obj: dict) -> list:
    return [f"{'PASS' if c['ok'] else 'FAIL'} {c['certificate']} [{c['fan']}]"
            + (f" ({c['detail']})" if c["detail"] else "") for c in obj["certificates"]] + [
        "all certificates passed" if obj["ok"] else "certificate failures detected"]


def _run_check(args, fans) -> tuple:
    if not 1 <= len(fans) <= 2:
        raise FanDocumentError("check takes one or two fan files")
    certs = [{"certificate": c, "fan": n, "ok": ok, "detail": d}
             for c, n, ok, d in run_certificates(fans)]
    obj = {"command": "check", "certificates": certs, "ok": all(c["ok"] for c in certs)}
    return (0 if obj["ok"] else 1), obj, lambda: _check_lines(obj)


# command -> (help text, number of fan files, runner)
COMMANDS = {
    "validate": ("check the fan axioms", "+", _each_fan(_validate_entry, _validate_lines)),
    "roots": ("list Demazure roots with classification", "+",
              _each_fan(_roots_entry, _roots_lines)),
    "autos": ("fan automorphism group", "+", _each_fan(_autos_entry, _autos_lines)),
    "decompose": ("indecomposable factorization", "+",
                  _each_fan(_decompose_entry, _decompose_lines)),
    "report": ("automorphism structure report", "+", _each_fan(_report_entry, _report_lines)),
    "product": ("product fan document of two fans", 2, _run_product),
    "check": ("run the full certificate suite", "+", _run_check),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, for every argv that _plain_args does not
    answer."""
    parser = argparse.ArgumentParser(
        prog="toricaut",
        description="Automorphism structure of complete toric varieties from their fans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, nargs, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("files", nargs=nargs, help="fan document file(s)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name == "product":
            p.add_argument("-o", "--output", default=None, help="write document here")
    return parser


# the commands whose arguments are one or more fan files and --json
_FILE_COMMANDS = frozenset(name for name, (_, nargs, _) in COMMANDS.items() if nargs == "+")


def _plain_args(argv: list) -> Optional[argparse.Namespace]:
    """The Namespace build_parser().parse_args(argv) returns when argv is
    [command, file, ..., --json, ...] for a command of _FILE_COMMANDS, with
    at least one file, every file before the first --json and none of them
    starting with "-"; None for any other argv, which argparse parses,
    reports and rejects itself.  Building the parser costs more than most
    commands' work on a small fan."""
    if not argv or argv[0] not in _FILE_COMMANDS or not all(type(a) is str for a in argv):
        return None
    k = 1
    while k < len(argv) and argv[k][:1] != "-":
        k += 1
    if k == 1 or any(a != "--json" for a in argv[k:]):
        return None
    return argparse.Namespace(command=argv[0], files=argv[1:k], json=k < len(argv))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        fans = [_load(path) for path in args.files]
        for doc, _, name in fans:
            for warning in doc.warnings:
                print(f"warning: {name}: {warning}", file=sys.stderr)
        code, obj, render = COMMANDS[args.command][2](args, fans)
    except FanDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FanValidationError, IncompleteFanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json_text(obj) if args.json else "\n".join(render()))
    return code


if __name__ == "__main__":
    sys.exit(main())
