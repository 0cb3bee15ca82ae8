"""Seeded fan documents for the benchmark workloads.

Every workload is a list of cases.  A case is one fan document (the exact
text the program under test reads), the subcommands run on it in a fixed
order, and the reference facts the checker compares the outputs with.
The references follow from how each fan was built (products, unimodular
conjugates, star subdivisions) or, for the bundled corpus, from the
goldens under tests/goldens/.  The same workload, seed and size always
give byte-identical documents.

    python3 perfbench/generate.py --workload conjugates --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import pathlib
import random
from collections import Counter
from dataclasses import dataclass, field

ALL_COMMANDS = ("validate", "roots", "autos", "decompose", "report", "check")

# name -> (rank, root count, fan automorphism group order); the closed
# forms are n(n+1) roots and (n+1)! automorphisms for P^n, the rest match
# the goldens of the bundled corpus.
BASE_FACTS = {
    "P1": (1, 2, 2),
    "P2": (2, 6, 6),
    "P3": (3, 12, 24),
    "F1": (2, 4, 2),
    "F2": (2, 5, 2),
    "F3": (2, 6, 2),
    "P112": (2, 5, 2),
}


@dataclass(frozen=True)
class Case:
    """One fan document with its subcommands and reference facts."""

    name: str
    text: str
    commands: tuple
    expect: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# fan documents as plain dicts: rank, rays, max_cones, name


def projective(n: int) -> dict:
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [list(c) for c in itertools.combinations(range(n + 1), n)]
    return {"rank": n, "rays": rays, "max_cones": cones, "name": f"P{n}"}


def hirzebruch(a: int) -> dict:
    return {"rank": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]], "name": f"F{a}"}


def weighted_p112() -> dict:
    return {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
            "max_cones": [[0, 1], [1, 2], [2, 0]], "name": "P112"}


def base_fan(name: str) -> dict:
    if name.startswith("F"):
        return hirzebruch(int(name[1:]))
    if name == "P112":
        return weighted_p112()
    return projective(int(name[1:]))


def product(docs: list) -> dict:
    """Product fan: rays embed block-wise, cones are all products."""
    rank = sum(d["rank"] for d in docs)
    rays, blocks, offset, shift = [], [], 0, 0
    for d in docs:
        rays += [[0] * offset + list(r) + [0] * (rank - offset - d["rank"])
                 for r in d["rays"]]
        blocks.append([[i + shift for i in c] for c in d["max_cones"]])
        offset += d["rank"]
        shift += len(d["rays"])
    cones = [sum(parts, []) for parts in itertools.product(*blocks)]
    return {"rank": rank, "rays": rays, "max_cones": cones,
            "name": "x".join(d["name"] for d in docs)}


def mat_mul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def conjugate(doc: dict, u: list, name: str) -> dict:
    """Image under the unimodular map u; rays are row vectors acting on the left."""
    return {**doc, "rays": mat_mul(doc["rays"], u), "name": name}


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_power(u: list, k: int) -> list:
    out = identity(len(u))
    for _ in range(k):
        out = mat_mul(out, u)
    return out


def signed_permutation(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
            for i in range(n)]


def unitriangular(n: int) -> list:
    """The upper unitriangular matrix of ones, (I + E_01)(I + E_12)...(I + E_n-2,n-1)."""
    return [[int(j >= i) for j in range(n)] for i in range(n)]


def star_subdivide(doc: dict, cone: int) -> dict:
    """Blow up the torus-fixed point of a smooth full-dimensional cone:
    the sum of its rays becomes a new ray and the cone splits in rank pieces."""
    c = doc["max_cones"][cone]
    new = [sum(col) for col in zip(*(doc["rays"][i] for i in c))]
    k = len(doc["rays"])
    pieces = [[k if j == i else j for j in c] for i in c]
    cones = doc["max_cones"][:cone] + doc["max_cones"][cone + 1:] + pieces
    return {**doc, "rays": doc["rays"] + [new], "max_cones": cones}


def blow_up(doc: dict, times: int, rng: random.Random, name: str) -> dict:
    """Repeated star subdivisions; each step picks, uniformly at random, one of
    the cones whose new ray has the smallest largest entry, so ray entries grow
    slowly and the cost depends on the size, not on the seed."""
    for _ in range(times):
        sizes = [max(abs(sum(col)) for col in zip(*(doc["rays"][i] for i in c)))
                 for c in doc["max_cones"]]
        least = min(sizes)
        doc = star_subdivide(doc, rng.choice([k for k, s in enumerate(sizes) if s == least]))
    return {**doc, "name": name}


def shuffle(doc: dict, rng: random.Random) -> dict:
    """Same fan, with rays, cones and indices inside cones listed in random order."""
    order = list(range(len(doc["rays"])))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    cones = []
    for c in doc["max_cones"]:
        c = [where[i] for i in c]
        rng.shuffle(c)
        cones.append(c)
    rng.shuffle(cones)
    return {"rank": doc["rank"], "rays": [doc["rays"][i] for i in order],
            "max_cones": cones, "name": doc["name"]}


def document_text(doc: dict) -> str:
    obj = {"rank": doc["rank"], "rays": doc["rays"], "max_cones": doc["max_cones"],
           "name": doc["name"]}
    return json.dumps(obj, indent=2) + "\n"


def product_facts(factors: list) -> dict:
    """References for a product: roots add up over the factors, and
    |Aut| = prod |Aut(X_i)|^r_i * r_i! over classes of isomorphic factors."""
    counts = Counter(factors)
    classes = sorted([BASE_FACTS[f][0], r, BASE_FACTS[f][1], BASE_FACTS[f][2]]
                     for f, r in counts.items())
    order = 1
    for f, r in counts.items():
        order *= BASE_FACTS[f][2] ** r * math.factorial(r)
    return {"roots": sum(BASE_FACTS[f][1] * r for f, r in counts.items()),
            "aut_order": order, "classes": classes}


# ---------------------------------------------------------------------------
# workloads


def corpus_cli(rng: random.Random, size: str, root: pathlib.Path) -> list:
    """The bundled documents, byte for byte, in name order.  The seed changes
    nothing here: a seeded order would change which documents find the
    memo warm, and with it the per-operation times."""
    paths = sorted((root / "src" / "toricaut" / "data").glob("*.fan"))
    if not paths:
        raise FileNotFoundError(f"no bundled fan documents under {root / 'src'}")
    if size == "tiny":
        paths = [p for p in paths if p.stem in ("P1", "P2")]
    return [Case(p.stem, p.read_text(encoding="utf-8"), ALL_COMMANDS, {"golden": p.stem})
            for p in paths]


PRODUCTS = (["P1"] * 4, ["P3", "P1", "P1"], ["P2", "P2", "P1"], ["P3", "P2"],
            ["P1", "P1", "P2"], ["P3", "P1"], ["F1", "F1"], ["F2", "P1", "P1"],
            ["P112", "P2"])


def product_structure(rng: random.Random, size: str, root: pathlib.Path) -> list:
    """Products with repeated factors, each also in a seeded basis: the
    unitriangular matrix of ones composed with a seeded signed permutation.
    The factors keep their listed order and the basis change keeps its shape,
    because both change the sorted order of the automorphisms, and with it the
    work of the greedy generating set, which would make the cost depend on
    the seed."""
    specs = PRODUCTS if size == "full" else (["P1", "P1"],)
    cases = []
    for factors in specs:
        label = "x".join(factors)
        base = product([base_fan(f) for f in factors])
        u = mat_mul(unitriangular(base["rank"]), signed_permutation(base["rank"], rng))
        facts = product_facts(factors)
        for name, doc in ((label, base), (f"{label}~u", conjugate(base, u, f"{label}~u"))):
            doc = shuffle({**doc, "name": name}, rng)
            cases.append(Case(name, document_text(doc), ("autos", "decompose", "report"),
                              facts))
    return cases


def fibonacci(k: int) -> list:
    """[[F(k+1), F(k)], [F(k), F(k-1)]], the k-th power of [[1, 1], [1, 0]]."""
    return mat_power([[1, 1], [1, 0]], k)


# The rank-3 shear product (I + E_01)(I + E_12)(I + E_20); its square has
# entries up to 6.
SHEAR = mat_mul(mat_mul([[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                        [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
                [[1, 0, 0], [0, 1, 0], [1, 0, 1]])

# Fibonacci powers k give entries F(k+1) from 3 to 55; 34 is left out to save
# time.  At this commit `check` FAILs faithfulness on F3 from entries 21 on
# and on every fan at 55; those cases stay in the workload.
FIBONACCI_POWERS = (3, 4, 5, 6, 7, 9)
SHEAR_POWERS = (1, 2)


def conjugates(rng: random.Random, size: str, root: pathlib.Path) -> list:
    """Small fans in large unimodular bases: the root count stays fixed
    while the root box grows with the basis."""
    if size == "full":
        plan = [(f, fibonacci(k), f"F^{k}") for f in ("P2", "F1", "F3", "P112")
                for k in FIBONACCI_POWERS]
        plan += [(f, mat_power(SHEAR, p), f"S^{p}") for f in ("P3", "P1xP2")
                 for p in SHEAR_POWERS]
    else:
        plan = [("P2", fibonacci(2), "F^2")]
    cases = []
    for base, u, tag in plan:
        doc = product([base_fan("P1"), base_fan("P2")]) if base == "P1xP2" else base_fan(base)
        u = mat_mul(u, signed_permutation(len(u), rng))
        name = f"{base}~{tag}"
        facts = product_facts(["P1", "P2"] if base == "P1xP2" else [base])
        cases.append(Case(name, document_text(shuffle(conjugate(doc, u, name), rng)),
                          ("roots", "check"), facts))
    return cases


# (number of star subdivisions of P2, of P3) for the blow-up documents.
P2_BLOWUPS = (10, 20, 30, 57)
P3_BLOWUPS = (6, 12, 24)
PN_RANKS = range(4, 10)


def indecomposable(rng: random.Random, size: str, root: pathlib.Path) -> list:
    """Single large fans with no product structure: P^n and blow-ups."""
    ranks = PN_RANKS if size == "full" else (4,)
    p2_times = P2_BLOWUPS if size == "full" else (3,)
    p3_times = P3_BLOWUPS if size == "full" else (2,)
    cases = []
    for n in ranks:
        cases.append(Case(f"P{n}", document_text(shuffle(projective(n), rng)),
                          ("validate", "roots"), {"roots": n * (n + 1)}))
    for base, times in [("P2", t) for t in p2_times] + [("P3", t) for t in p3_times]:
        name = f"Bl{times}{base}"
        doc = blow_up(base_fan(base), times, rng, name)
        cases.append(Case(name, document_text(shuffle(doc, rng)),
                          ("validate", "autos", "decompose", "report"), {}))
    return cases


WORKLOADS = {
    "corpus-cli": corpus_cli,
    "product-structure": product_structure,
    "conjugates": conjugates,
    "indecomposable": indecomposable,
}


def generate(workload: str, seed: int, size: str = "full",
             root: pathlib.Path = pathlib.Path(".")) -> list:
    """The cases of one workload; `root` is the checkout holding src/."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, size, root)


def write_cases(cases: list, out: pathlib.Path) -> list:
    """Write each document as <index>-<name>.fan; returns the paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, case in enumerate(cases):
        path = out / f"{k:03d}-{case.name.replace('^', '').replace('~', '_')}.fan"
        path.write_text(case.text, encoding="utf-8")
        paths.append(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args()
    cases = generate(args.workload, args.seed, args.size, pathlib.Path("."))
    for path, case in zip(write_cases(cases, args.out), cases):
        print(f"{path}  {' '.join(case.commands)}")


if __name__ == "__main__":
    main()
