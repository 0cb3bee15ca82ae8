"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

from toricaut import cli  # noqa: E402

GOLDENS = ROOT / "tests" / "goldens"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    first = generate.write_cases(generate.generate(workload, 7, root=ROOT), tmp_path / "a")
    second = generate.write_cases(generate.generate(workload, 7, root=ROOT), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    if workload != "corpus-cli":
        other = [c.text for c in generate.generate(workload, 8, root=ROOT)]
        assert other != [c.text for c in generate.generate(workload, 7, root=ROOT)]


def test_base_facts_match_goldens():
    for name, (rank, roots, order) in generate.BASE_FACTS.items():
        report = json.loads((GOLDENS / f"{name}.report.json").read_text(encoding="utf-8"))
        entry = report["fans"][0]
        assert (entry["torus_rank"], entry["root_count"], entry["fan_automorphism_order"]) \
            == (rank, roots, order)


def run_cli(command, case, tmp_path):
    path = generate.write_cases([case], tmp_path)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(path), "--json"])
    return code, json.loads(out.getvalue())


def corrupt_roots(obj):
    obj["fans"][0]["roots"][0]["e"] = [x + 1 for x in obj["fans"][0]["roots"][0]["e"]]


def corrupt_count(obj):
    obj["fans"][0]["roots"].pop()
    obj["fans"][0]["count"] -= 1


def corrupt_autos(obj):
    obj["fans"][0]["automorphisms"].pop()
    obj["fans"][0]["order"] -= 1


def corrupt_decompose(obj):
    obj["fans"][0]["factors"][0]["rays"][0][0] += 1


def corrupt_report(obj):
    obj["fans"][0]["fan_automorphism_order"] *= 2


def corrupt_validate(obj):
    obj["fans"][0]["smooth"] = not obj["fans"][0]["smooth"]


def corrupt_check(obj):
    obj["certificates"][-1]["ok"] = False


CORRUPTIONS = [("roots", corrupt_roots), ("roots", corrupt_count), ("autos", corrupt_autos),
               ("decompose", corrupt_decompose), ("report", corrupt_report),
               ("validate", corrupt_validate), ("check", corrupt_check)]


@pytest.mark.parametrize("command,corrupt", CORRUPTIONS,
                         ids=[f.__name__ for _, f in CORRUPTIONS])
def test_checker_catches_corrupted_output(command, corrupt, tmp_path):
    case = generate.generate("product-structure", 3, "tiny", ROOT)[1]
    code, obj = run_cli(command, case, tmp_path)
    assert code == 0
    assert check.check_output(case, command, json.dumps(obj), GOLDENS) is None
    corrupt(obj)
    assert check.check_output(case, command, json.dumps(obj), GOLDENS)


def test_checker_compares_corpus_with_goldens(tmp_path):
    case = next(c for c in generate.generate("corpus-cli", 1, "tiny", ROOT) if c.name == "P2")
    code, obj = run_cli("report", case, tmp_path)
    assert check.check_output(case, "report", json.dumps(obj), GOLDENS) is None
    obj["fans"][0]["roots"].reverse()
    assert "differs from P2.report.json" in check.check_output(
        case, "report", json.dumps(obj), GOLDENS)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("cli.main", 0.0, 10.0, -1, 0), ("fan.validate_fan", 1.0, 4.0, 0, 0),
                    ("fan.is_complete", 5.0, 9.0, 0, 0), ("fan.validate_fan", 6.0, 7.0, 2, 0)]
    assert tracer.self_times() == {"cli.main": 3.0, "fan.validate_fan": 4.0,
                                   "fan.is_complete": 3.0}


def test_quantile_estimate():
    assert run.quantile([0.25] * 9, 0.9) == pytest.approx(0.25)
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    values = [float(k) for k in range(1, 101)]
    assert 49 < run.quantile(values, 0.5) < 52 and 89 < run.quantile(values, 0.9) < 92
    assert run.tail_percentile(72) == 86 and run.tail_percentile(12) == 50


def bench(args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    code, out = bench(["--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", trace, "--size", "tiny"])
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = bench(["--workload", "conjugates", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=tmp_path)
    assert code != 0 and out == ""
