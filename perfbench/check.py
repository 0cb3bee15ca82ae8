"""Reference checks for the `--json` output of every benchmark operation.

`check_output` returns None when an output is right for its case and
subcommand, and otherwise a one-line reason.  Bundled documents are
compared with the goldens under tests/goldens/; generated documents with
the facts their generator recorded, plus checks that need no reference:
every listed root satisfies the definition, every listed automorphism
maps the fan onto itself, every decomposition rebuilds the fan.
"""

from __future__ import annotations

import json
import math
import pathlib
from itertools import product as iproduct

# the exit code each subcommand must return on the benchmark's documents,
# all of which are valid complete fans
EXPECTED_CODE = 0


def _det(rows: list) -> int:
    """Exact determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _pair(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _row_times(v, m) -> tuple:
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


class Fan:
    """The document's fan in the program's canonical ray order (sorted)."""

    def __init__(self, doc: dict):
        self.rank = doc["rank"]
        self.rays = sorted(tuple(r) for r in doc["rays"])
        where = {tuple(r): self.rays.index(tuple(r)) for r in doc["rays"]}
        self.cones = {frozenset(where[tuple(doc["rays"][i])] for i in c)
                      for c in doc["max_cones"]}
        self.ray_set = set(self.rays)
        self.cone_sets = {frozenset(self.rays[i] for i in c) for c in self.cones}

    def simplicial(self) -> bool:
        return all(len(c) == self.rank and _det([self.rays[i] for i in c]) != 0
                   for c in self.cones)

    def smooth(self) -> bool:
        return all(len(c) == self.rank and abs(_det([self.rays[i] for i in c])) == 1
                   for c in self.cones)

    def root_error(self, root: dict):
        e, ray = tuple(root["e"]), tuple(root["ray"])
        if self.rays[root["ray_index"]] != ray:
            return f"root {list(e)}: ray_index {root['ray_index']} is not {list(ray)}"
        negative = [r for r in self.rays if _pair(r, e) < 0]
        if negative != [ray] or _pair(ray, e) != -1:
            return f"root {list(e)} does not satisfy the definition"
        return None

    def automorphism_error(self, matrix: list, permutation=None):
        if abs(_det(matrix)) != 1:
            return f"{matrix} is not unimodular"
        images = [_row_times(r, matrix) for r in self.rays]
        if set(images) != self.ray_set:
            return f"{matrix} does not permute the rays"
        if permutation is not None and [self.rays[j] for j in permutation] != images:
            return f"{matrix}: ray_permutation {permutation} disagrees with the matrix"
        cones = {frozenset(images[i] for i in c) for c in self.cones}
        if cones != self.cone_sets:
            return f"{matrix} does not permute the cones"
        return None


def roots_error(fan: Fan, roots: list, count: int):
    if len(roots) != count:
        return f"lists {len(roots)} roots but counts {count}"
    if len({tuple(r["e"]) for r in roots}) != len(roots):
        return "duplicate roots"
    return next(filter(None, (fan.root_error(r) for r in roots)), None)


def check_validate(fan: Fan, entry: dict, expect: dict):
    want = {"name": entry.get("name"), "valid": True, "violations": [], "complete": True,
            "smooth": fan.smooth(), "simplicial": fan.simplicial()}
    return None if entry == want else f"got {entry}, want {want}"


def check_roots(fan: Fan, entry: dict, expect: dict):
    if "roots" in expect and entry["count"] != expect["roots"]:
        return f"{entry['count']} roots, want {expect['roots']}"
    error = roots_error(fan, entry["roots"], entry["count"])
    if error:
        return error
    vectors = {tuple(r["e"]) for r in entry["roots"]}
    pairs = sorted([list(e), [-x for x in e]] for e in vectors
                   if tuple(-x for x in e) in vectors and e > tuple(-x for x in e))
    unipotent = sorted(list(e) for e in vectors if tuple(-x for x in e) not in vectors)
    if entry["semisimple_pairs"] != pairs or entry["unipotent"] != unipotent:
        return "semisimple/unipotent split disagrees with the roots"
    return None


def check_autos(fan: Fan, entry: dict, expect: dict):
    autos = entry["automorphisms"]
    if "aut_order" in expect and entry["order"] != expect["aut_order"]:
        return f"group order {entry['order']}, want {expect['aut_order']}"
    if len(autos) != entry["order"]:
        return f"lists {len(autos)} automorphisms but order is {entry['order']}"
    if len({json.dumps(a["matrix"]) for a in autos}) != len(autos):
        return "duplicate automorphisms"
    identity = [[int(i == j) for j in range(fan.rank)] for i in range(fan.rank)]
    if fan.rank and identity not in [a["matrix"] for a in autos]:
        return "identity missing"
    return next(filter(None, (fan.automorphism_error(a["matrix"], a["ray_permutation"])
                              for a in autos)), None)


def check_decompose(fan: Fan, entry: dict, expect: dict):
    factors = entry["factors"]
    if "classes" in expect:
        ranks = sorted(rank for rank, mult, _, _ in expect["classes"] for _ in range(mult))
        if sorted(f["rank"] for f in factors) != ranks:
            return f"factor ranks {sorted(f['rank'] for f in factors)}, want {ranks}"
    if not all(f["certified_indecomposable"] for f in factors):
        return "a factor is not certified indecomposable"
    stacked = [row for f in factors for row in f["basis"]]
    if len(stacked) != fan.rank or abs(_det(stacked)) != 1:
        return "factor bases do not stack to a unimodular matrix"
    images = [[_row_times(r, f["basis"]) for r in f["rays"]] for f in factors]
    if {r for block in images for r in block} != fan.ray_set:
        return "factor rays do not rebuild the rays"
    cones = {frozenset(r for block, cone in zip(images, pick) for r in (block[i] for i in cone))
             for pick in iproduct(*(f["max_cones"] for f in factors))}
    if cones != fan.cone_sets:
        return "the product of the factors does not rebuild the cones"
    return None


def structure_string(classes: list) -> str:
    pieces = []
    for c in classes:
        label, r = c["label"], c["multiplicity"]
        pieces.append(f"Aut_{{{label}}}" + (f"^{r} ⋊ S_{r}" if r > 1 else ""))
    return " × ".join(pieces) if pieces else "1"


def check_report(fan: Fan, entry: dict, expect: dict):
    if entry["torus_rank"] != fan.rank:
        return f"torus rank {entry['torus_rank']}, want {fan.rank}"
    for key, field in (("roots", "root_count"), ("aut_order", "fan_automorphism_order")):
        if key in expect and entry[field] != expect[key]:
            return f"{field} {entry[field]}, want {expect[key]}"
    error = roots_error(fan, entry["roots"], entry["root_count"])
    if error:
        return error
    if entry["dim_aut0"] != fan.rank + entry["root_count"]:
        return "dim Aut^0 is not rank + roots"
    classes = entry["factor_classes"]
    got = sorted([c["rank"], c["multiplicity"], c["root_count"], c["fan_automorphism_order"]]
                 for c in classes)
    if "classes" in expect and got != expect["classes"]:
        return f"factor classes {got}, want {expect['classes']}"
    if any(c["dim_aut0"] != c["rank"] + c["root_count"] for c in classes):
        return "a factor's dim Aut^0 is not rank + roots"
    order = math.prod(c["fan_automorphism_order"] ** c["multiplicity"]
                      * math.factorial(c["multiplicity"]) for c in classes)
    if order != entry["fan_automorphism_order"]:
        return "group order breaks the wreath identity"
    if entry["factor_multiset"] != [[c["label"], c["multiplicity"]] for c in classes]:
        return "factor multiset disagrees with the factor classes"
    if entry["structure_string"] != structure_string(classes):
        return f"structure {entry['structure_string']!r} disagrees with the factor classes"
    return next(filter(None, (fan.automorphism_error(m)
                              for m in entry["fan_automorphism_generators"])), None)


def check_check(fan: Fan, obj: dict, expect: dict):
    failed = [f"{c['certificate']} [{c['fan']}]" for c in obj["certificates"] if not c["ok"]]
    if failed or not obj["ok"]:
        return "FAIL " + ", ".join(failed)
    return None


CHECKS = {"validate": check_validate, "roots": check_roots, "autos": check_autos,
          "decompose": check_decompose, "report": check_report}


def check_output(case, command: str, text: str, goldens: pathlib.Path):
    """None if `text` is the right `--json` output of `command` on `case`."""
    try:
        obj = json.loads(text)
    except ValueError:
        return "output is not JSON"
    doc = json.loads(case.text)
    fan = Fan(doc)
    expect = dict(case.expect)
    golden = expect.get("golden")
    if golden and command in ("roots", "report"):
        path = goldens / f"{golden}.{command}.json"
        want = json.loads(path.read_text(encoding="utf-8"))
        return None if obj == want else f"differs from {path.name}"
    if golden:
        report = json.loads((goldens / f"{golden}.report.json").read_text(encoding="utf-8"))
        entry = report["fans"][0]
        expect.update(roots=entry["root_count"], aut_order=entry["fan_automorphism_order"],
                      classes=sorted([c["rank"], c["multiplicity"], c["root_count"],
                                      c["fan_automorphism_order"]]
                                     for c in entry["factor_classes"]))
    try:
        if command == "check":
            return check_check(fan, obj, expect)
        if obj.get("command") != command or len(obj.get("fans", ())) != 1:
            return "not a single-fan result of this subcommand"
        entry = obj["fans"][0]
        if entry.get("name") != doc.get("name"):
            return f"name {entry.get('name')!r}, want {doc.get('name')!r}"
        return CHECKS[command](fan, entry, expect)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
