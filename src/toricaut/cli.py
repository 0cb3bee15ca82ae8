"""Command-line interface and fan-document serialization.

A fan document is a single JSON object with exactly the fields
  rank       integer
  rays       array of integer arrays
  max_cones  array of arrays of ray indices
  name       optional string
Exit codes: 0 success, 1 mathematical/validation failure, 2 usage or
parse error.  All reports are deterministic; --json mirrors the human
report field for field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional, Sequence

from .fan import (
    Fan,
    FanValidationError,
    IncompleteFanError,
    is_complete,
    is_simplicial,
    is_smooth,
    product_fan,
)
from .lattice import pairing, primitive
from .roots import classify_roots, demazure_roots, product_roots
from .structure import (
    aut_structure_report,
    decompose,
    fan_automorphisms,
    wreath_order_check,
)
from .symbolic import (
    WitnessNotFoundError,
    action_additivity_check,
    faithfulness_check,
    infinitesimal_check,
    regularity_check,
)


class FanDocumentError(ValueError):
    """Malformed or schema-violating fan document."""


_FIELDS = {"rank", "rays", "max_cones", "name"}


@dataclass(frozen=True)
class FanDocument:
    rank: int
    rays: tuple
    max_cones: tuple
    name: Optional[str] = None
    warnings: tuple = field(default=(), compare=False)


def parse_fan(text: str) -> FanDocument:
    """Parse a fan document; rays are auto-primitivized with a warning."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if not isinstance(rank, int) or rank < 0:
        raise FanDocumentError("'rank' must be a non-negative integer")
    rays = []
    warnings = []
    if not isinstance(raw["rays"], list):
        raise FanDocumentError("'rays' must be an array")
    for i, r in enumerate(raw["rays"]):
        if (not isinstance(r, list) or len(r) != rank
                or not all(isinstance(x, int) for x in r)):
            raise FanDocumentError(f"ray {i} must be an array of {rank} integers")
        if not any(r):
            raise FanDocumentError(f"ray {i} is the zero vector")
        p = primitive(r)
        if list(p) != r:
            warnings.append(f"ray {i} normalized to {list(p)}")
        rays.append(p)
    if not isinstance(raw["max_cones"], list):
        raise FanDocumentError("'max_cones' must be an array")
    cones = []
    for j, c in enumerate(raw["max_cones"]):
        if not isinstance(c, list) or not all(isinstance(i, int) for i in c):
            raise FanDocumentError(f"cone {j} must be an array of ray indices")
        for i in c:
            if not 0 <= i < len(rays):
                raise FanDocumentError(f"cone {j}: ray index {i} out of range")
        cones.append(tuple(sorted(set(c))))
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise FanDocumentError("'name' must be a string")
    return FanDocument(rank=rank, rays=tuple(rays), max_cones=tuple(cones),
                       name=name, warnings=tuple(warnings))


def fan_from_document(doc: FanDocument) -> Fan:
    return Fan(doc.rank, doc.rays, doc.max_cones)


def document_from_fan(fan: Fan, name: Optional[str] = None) -> FanDocument:
    return FanDocument(rank=fan.rank, rays=fan.rays, max_cones=fan.max_cones,
                       name=name)


def document_to_json(doc: FanDocument) -> str:
    obj = {"rank": doc.rank,
           "rays": [list(r) for r in doc.rays],
           "max_cones": [list(c) for c in doc.max_cones]}
    if doc.name is not None:
        obj["name"] = doc.name
    return json.dumps(obj, indent=2)


def _load(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FanDocumentError(f"{path}: {exc}") from exc
    doc = parse_fan(text)
    name = doc.name if doc.name is not None else path
    return doc, fan_from_document(doc), name


def _matrix_obj(m) -> list:
    return [list(r) for r in m]


def _roots_obj(fan: Fan, roots) -> list:
    return [{"e": list(r.e), "ray_index": r.rho_e, "ray": list(fan.rays[r.rho_e])}
            for r in roots]


# ---------------------------------------------------------------------------
# subcommands; each returns (exit_code, human_lines, json_object)


def _cmd_validate(fans) -> tuple:
    lines = []
    results = []
    code = 0
    for doc, fan, name in fans:
        report = fan.validation
        entry = {"name": name, "valid": report.ok,
                 "violations": [{"code": e.code, "message": e.message}
                                for e in report.entries]}
        if report.ok:
            entry["complete"] = is_complete(fan)
            entry["smooth"] = is_smooth(fan)
            entry["simplicial"] = is_simplicial(fan)
            lines.append(f"{name}: VALID (complete={entry['complete']}, "
                         f"smooth={entry['smooth']}, simplicial={entry['simplicial']})")
        else:
            code = 1
            lines.append(f"{name}: INVALID")
            lines.extend(f"  - [{e.code}] {e.message}" for e in report.entries)
        results.append(entry)
    return code, lines, {"command": "validate", "fans": results}


def _cmd_roots(fans) -> tuple:
    lines = []
    results = []
    for doc, fan, name in fans:
        fan.require_valid()
        roots = demazure_roots(fan)
        pairs, unipotent = classify_roots(roots)
        lines.append(f"{name}: {len(roots)} roots")
        for r in roots:
            lines.append(f"  e={list(r.e)}  rho_e=ray {r.rho_e} {list(fan.rays[r.rho_e])}")
        lines.append(f"  semisimple pairs: {[[list(a), list(b)] for a, b in pairs]}")
        lines.append(f"  unipotent: {[list(e) for e in unipotent]}")
        results.append({"name": name, "count": len(roots),
                        "roots": _roots_obj(fan, roots),
                        "semisimple_pairs": [[list(a), list(b)] for a, b in pairs],
                        "unipotent": [list(e) for e in unipotent]})
    return 0, lines, {"command": "roots", "fans": results}


def _cmd_autos(fans) -> tuple:
    lines = []
    results = []
    for doc, fan, name in fans:
        autos = fan_automorphisms(fan)
        lines.append(f"{name}: fan automorphism group of order {len(autos)}")
        for a in autos:
            lines.append(f"  {_matrix_obj(a.matrix)} permuting rays {list(a.ray_permutation)}")
        results.append({"name": name, "order": len(autos),
                        "automorphisms": [{"matrix": _matrix_obj(a.matrix),
                                           "ray_permutation": list(a.ray_permutation)}
                                          for a in autos]})
    return 0, lines, {"command": "autos", "fans": results}


def _cmd_decompose(fans) -> tuple:
    lines = []
    results = []
    for doc, fan, name in fans:
        dec = decompose(fan)
        lines.append(f"{name}: {len(dec.factors)} indecomposable factor(s)")
        factors = []
        for k, factor in enumerate(dec.factors):
            lines.append(f"  factor {k + 1}: rank {factor.fan.rank}, "
                         f"rays {[list(r) for r in factor.fan.rays]}, "
                         f"basis {_matrix_obj(factor.basis)}")
            if factor.certificate:
                for fail in factor.certificate:
                    lines.append(f"    bipartition {list(fail.block_a)} | "
                                 f"{list(fail.block_b)} fails: {fail.failed_criterion}")
            else:
                lines.append("    indecomposable: single circuit-closed block")
            factors.append({
                "rank": factor.fan.rank,
                "rays": [list(r) for r in factor.fan.rays],
                "max_cones": [list(c) for c in factor.fan.max_cones],
                "basis": _matrix_obj(factor.basis),
                "certified_indecomposable": factor.certified_indecomposable,
                "certificate": [{"block_a": list(f.block_a),
                                 "block_b": list(f.block_b),
                                 "failed_criterion": f.failed_criterion}
                                for f in factor.certificate]})
        results.append({"name": name, "factors": factors})
    return 0, lines, {"command": "decompose", "fans": results}


def _cmd_report(fans) -> tuple:
    lines = []
    results = []
    for doc, fan, name in fans:
        rep = aut_structure_report(fan)
        lines.append(f"{name}:")
        lines.append(f"  torus rank: {rep.torus_rank}")
        lines.append(f"  roots: {rep.root_count}")
        lines.append(f"  dim Aut^0: {rep.dim_aut0}")
        lines.append(f"  fan automorphism group order: {rep.fan_automorphism_order}")
        lines.append(f"  generators: {[_matrix_obj(g.matrix) for g in rep.fan_automorphism_generators]}")
        lines.append(f"  factor multiset: {list(rep.factor_multiset)}")
        for cls in rep.factor_classes:
            lines.append(f"    {cls.label}: rank {cls.representative.rank}, "
                         f"multiplicity {cls.multiplicity}, roots {cls.root_count}, "
                         f"dim Aut^0 {cls.dim_aut0}, fan autos {cls.fan_automorphism_order}")
        lines.append(f"  structure: {rep.structure_string}")
        results.append({
            "name": name,
            "torus_rank": rep.torus_rank,
            "root_count": rep.root_count,
            "roots": _roots_obj(fan, rep.roots),
            "dim_aut0": rep.dim_aut0,
            "fan_automorphism_order": rep.fan_automorphism_order,
            "fan_automorphism_generators": [_matrix_obj(g.matrix)
                                            for g in rep.fan_automorphism_generators],
            "factor_multiset": [[label, mult] for label, mult in rep.factor_multiset],
            "factor_classes": [{
                "label": cls.label,
                "rank": cls.representative.rank,
                "rays": [list(r) for r in cls.representative.rays],
                "multiplicity": cls.multiplicity,
                "root_count": cls.root_count,
                "dim_aut0": cls.dim_aut0,
                "fan_automorphism_order": cls.fan_automorphism_order,
            } for cls in rep.factor_classes],
            "structure_string": rep.structure_string})
    return 0, lines, {"command": "report", "fans": results}


def _cmd_product(fans, out: Optional[str]) -> tuple:
    if len(fans) != 2:
        raise FanDocumentError("product needs exactly two fan files")
    (_, f1, n1), (_, f2, n2) = fans
    prod = product_fan(f1, f2)
    doc = document_from_fan(prod, name=f"{n1} x {n2}")
    text = document_to_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        lines = [f"wrote product fan to {out}"]
    else:
        lines = [text]
    return 0, lines, json.loads(document_to_json(doc))


def _sample_box(rank: int, height: int):
    return iproduct(*(range(-height, height + 1) for _ in range(rank)))


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
        ok = all(regularity_check(fan, r).ok for r in roots)
        out.append(("regularity", name, ok, f"{len(roots)} roots"))
        samples = {}
        for r in roots:
            rho = fan.rays[r.rho_e]
            samples[r] = [m for m in _sample_box(fan.rank, 2) if pairing(rho, m) >= 0]
        ok = all(action_additivity_check(fan, r, m)
                 for r in roots for m in samples[r])
        out.append(("additivity", name, ok, "height-2 samples"))
        ok = all(infinitesimal_check(fan, r, m)
                 for r in roots for m in samples[r])
        out.append(("infinitesimal", name, ok, "height-2 samples"))
        try:
            for r in roots:
                faithfulness_check(fan, r)
            out.append(("faithfulness", name, True, "witness per root"))
        except WitnessNotFoundError as exc:
            out.append(("faithfulness", name, False, str(exc)))
        out.append(("wreath_order", name, wreath_order_check(fan), ""))
    if all(ok for _, _, ok, _ in out):
        pair = (fans[0], fans[1]) if len(fans) >= 2 else (fans[0], fans[0])
        (_, f1, n1), (_, f2, n2) = pair
        ok = product_roots(f1, f2) == demazure_roots(product_fan(f1, f2))
        out.append(("product_roots", f"{n1} x {n2}", ok, ""))
    return out


def _cmd_check(fans) -> tuple:
    if not 1 <= len(fans) <= 2:
        raise FanDocumentError("check takes one or two fan files")
    results = run_certificates(fans)
    lines = [f"{'PASS' if ok else 'FAIL'} {cert} [{name}]" + (f" ({detail})" if detail else "")
             for cert, name, ok, detail in results]
    code = 0 if all(ok for _, _, ok, _ in results) else 1
    lines.append("all certificates passed" if code == 0 else "certificate failures detected")
    return code, lines, {"command": "check",
                         "certificates": [{"certificate": c, "fan": n, "ok": ok,
                                           "detail": d} for c, n, ok, d in results],
                         "ok": code == 0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricaut",
        description="Automorphism structure of complete toric varieties from their fans.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "validate": ("check the fan axioms", "+"),
        "roots": ("list Demazure roots with classification", "+"),
        "autos": ("fan automorphism group", "+"),
        "decompose": ("indecomposable factorization", "+"),
        "report": ("automorphism structure report", "+"),
        "product": ("product fan document of two fans", 2),
        "check": ("run the full certificate suite", "+"),
    }
    for name, (help_text, nargs) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("files", nargs=nargs, help="fan document file(s)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name == "product":
            p.add_argument("-o", "--output", default=None, help="write document here")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fans = [_load(path) for path in args.files]
        for doc, _, name in fans:
            for warning in doc.warnings:
                print(f"warning: {name}: {warning}", file=sys.stderr)
        if args.command == "validate":
            code, lines, obj = _cmd_validate(fans)
        elif args.command == "roots":
            code, lines, obj = _cmd_roots(fans)
        elif args.command == "autos":
            code, lines, obj = _cmd_autos(fans)
        elif args.command == "decompose":
            code, lines, obj = _cmd_decompose(fans)
        elif args.command == "report":
            code, lines, obj = _cmd_report(fans)
        elif args.command == "product":
            code, lines, obj = _cmd_product(fans, args.output)
        else:
            code, lines, obj = _cmd_check(fans)
    except FanDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FanValidationError, IncompleteFanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
