import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from toricaut import cli, symbolic
from toricaut import fan as fan_module, lattice, roots as roots_module, structure as structure_module
from toricaut.cli import (
    FanDocument,
    FanDocumentError,
    document_from_fan,
    document_to_json,
    fan_from_document,
    main,
    parse_fan,
    run_certificates,
)
from toricaut.corpus import corpus
from toricaut.fan import Fan, IncompleteFanError, product_fan, transform_fan
from toricaut.lattice import mat, pairing
from toricaut.roots import DemazureRoot, demazure_roots, product_roots
from toricaut.structure import (
    Decomposition,
    DecompositionFactor,
    reconstruct,
    wreath_order_check,
)
from toricaut.symbolic import (
    action_additivity_check,
    dual_monomials,
    lie_dimension,
    regularity_check,
)

from util import random_blow_up, random_unimodular, weighted_projective_fan

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "toricaut" / "data"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

P2_DOC = '{"rank": 2, "rays": [[1,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[2,0]], "name": "P2"}'


class TestParseFan:
    def test_p2_roundtrip(self):
        doc = parse_fan(P2_DOC)
        assert doc.name == "P2" and doc.rank == 2
        assert len(doc.rays) == 3 and len(doc.max_cones) == 3
        fan = fan_from_document(doc)
        parsed_again = parse_fan(document_to_json(document_from_fan(fan, name="P2")))
        assert fan_from_document(parsed_again) == fan

    def test_primitivization_warning(self):
        doc = parse_fan('{"rank": 2, "rays": [[2,4],[0,1],[-1,-3]], '
                        '"max_cones": [[0,1],[1,2],[2,0]]}')
        assert doc.rays[0] == (1, 2)
        assert doc.warnings == ("ray 0 normalized to [1, 2]",)

    def test_index_out_of_range(self):
        with pytest.raises(FanDocumentError, match="out of range"):
            parse_fan('{"rank": 2, "rays": [[1,0],[0,1],[-1,-1]], "max_cones": [[0,7]]}')

    def test_not_json(self):
        with pytest.raises(FanDocumentError, match="JSON"):
            parse_fan("rank: 2")

    def test_unknown_field(self):
        with pytest.raises(FanDocumentError, match="unknown"):
            parse_fan('{"rank": 1, "rays": [[1]], "max_cones": [[0]], "extra": 1}')

    def test_missing_field(self):
        with pytest.raises(FanDocumentError, match="missing"):
            parse_fan('{"rank": 1, "rays": [[1]]}')

    def test_zero_ray(self):
        with pytest.raises(FanDocumentError, match="zero"):
            parse_fan('{"rank": 2, "rays": [[0,0]], "max_cones": [[0]]}')

    def test_wrong_ray_length(self):
        with pytest.raises(FanDocumentError, match="integers"):
            parse_fan('{"rank": 2, "rays": [[1,0,0]], "max_cones": [[0]]}')

    def test_boolean_rank(self):
        with pytest.raises(FanDocumentError, match="rank"):
            parse_fan('{"rank": true, "rays": [[1],[-1]], "max_cones": [[0],[1]]}')

    def test_boolean_ray_entry(self):
        with pytest.raises(FanDocumentError, match="ray 0"):
            parse_fan('{"rank": 1, "rays": [[true],[-1]], "max_cones": [[0],[1]]}')

    def test_boolean_cone_index(self):
        with pytest.raises(FanDocumentError, match="cone 0"):
            parse_fan('{"rank": 1, "rays": [[1],[-1]], "max_cones": [[false],[1]]}')

    def test_data_documents_are_the_corpus(self):
        fans = corpus()
        assert list(fans) == sorted(path.stem for path in DATA.glob("*.fan"))
        for name, fan in fans.items():
            doc = parse_fan((DATA / f"{name}.fan").read_text())
            assert doc.name == name
            assert doc.warnings == ()
            loaded = fan_from_document(doc)
            assert loaded == fan and loaded is not fan

    def test_roundtrip_canonical_form(self, fans):
        for fan in fans.values():
            text = document_to_json(document_from_fan(fan))
            assert fan_from_document(parse_fan(text)) == fan


def _reference_load(obj):
    """The canonical (rays, max_cones) and warnings of a document object,
    each ray made primitive by lattice.primitive: the loader's contract,
    built without parse_fan or Fan."""
    prim, warnings = [], []
    for i, r in enumerate(obj["rays"]):
        p = lattice.primitive(r)
        if list(p) != r:
            warnings.append(f"ray {i} normalized to {list(p)}")
        prim.append(p)
    rays = sorted(prim)
    where = {i: rays.index(p) for i, p in enumerate(prim)}
    cones = sorted({tuple(sorted({where[i] for i in c})) for c in obj["max_cones"]})
    return tuple(rays), tuple(cones), tuple(warnings)


class TestLoader:
    """parse_fan checks and normalises each ray in one pass, and Fan puts
    the result in canonical form; both against a per-ray reference."""

    def test_seeded_documents_match_the_reference(self, fans):
        rng = random.Random(3232)
        sources = [*fans.values()] + [
            fan_from_document(parse_fan((FIXTURES / f"{name}.fan").read_text()))
            for name in ("Bl24P3", "F3_conjugate", "cube5", "P1122334")]
        warned = 0
        for _ in range(6):
            for fan in sources:
                if rng.random() < 0.5:
                    fan = transform_fan(fan, random_unimodular(rng, fan.rank))
                order = rng.sample(range(len(fan.rays)), len(fan.rays))
                where = {old: new for new, old in enumerate(order)}
                scales = [rng.choice((1, 1, 2, 3, 12)) for _ in order]
                rays = [[k * x for x in fan.rays[i]] for k, i in zip(scales, order)]
                # each cone shuffled, now and then with a repeated index
                cones = [rng.sample([where[i] for i in c], len(c))
                         + [where[c[0]]] * rng.randrange(2)
                         for c in rng.sample(fan.max_cones, len(fan.max_cones))]
                obj = {"rank": fan.rank, "rays": rays, "max_cones": cones}
                doc = parse_fan(json.dumps(obj))
                loaded = fan_from_document(doc)
                assert (loaded.rays, loaded.max_cones, doc.warnings) == _reference_load(obj)
                assert all(type(x) is int for r in loaded.rays for x in r)
                warned += bool(doc.warnings)
        assert warned > 50

    @pytest.mark.parametrize("text, message", [
        ('{"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1, true]]}',
         "cone 1 must be an array of ray indices"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1.0], [-1, -1]], "max_cones": [[0, 1]]}',
         "ray 1 must be an array of 2 integers"),
        ('{"rank": 2, "rays": [[1, 0], [[0], 1], [-1, -1]], "max_cones": [[0, 1]]}',
         "ray 1 must be an array of 2 integers"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1]], "max_cones": [[0, 1]]}',
         "ray 2 must be an array of 2 integers"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [2, -1, 5]]}',
         "cone 1: ray index -1 out of range"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 3]]}',
         "cone 1: ray index 3 out of range"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 7, -2]]}',
         "cone 1: ray index 7 out of range"),
        # the first bad ray is named, before any zero or cone check
        ('{"rank": 2, "rays": [[2, 4], [0, 0], [1, false]], "max_cones": [[0, 9]]}',
         "ray 1 is the zero vector"),
    ], ids=["bool-in-cone", "float-in-ray", "nested-list", "short-ray", "negative-index",
            "index-equal-to-ray-count", "first-bad-index", "first-bad-ray"])
    def test_messages(self, text, message):
        with pytest.raises(FanDocumentError) as caught:
            parse_fan(text)
        assert str(caught.value) == message


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_validate_ok(self, capsys):
        code, out, _ = run_cli(["validate", str(DATA / "P2.fan")], capsys)
        assert code == 0 and "VALID" in out

    def test_validate_invalid_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fan"
        bad.write_text('{"rank": 2, "rays": [[1,0],[0,1],[1,1],[-1,2]], '
                       '"max_cones": [[0,1],[2,3]]}')
        code, out, _ = run_cli(["validate", str(bad)], capsys)
        assert code == 1 and "intersection_not_face" in out

    def test_validate_invalid_non_simplicial_fixture(self, capsys):
        # the square pyramid with its apex moved to (2, 0, -1): the cones
        # through the apex fold over the square base
        code, out, err = run_cli(["validate", str(FIXTURES / "pyramid_swapped.fan")], capsys)
        pairs = [([0, 1, 2, 3], [0, 1, 4], [0, 1, 2, 3]), ([0, 1, 2, 3], [0, 1, 4], [0, 1, 4]),
                 ([0, 1, 2, 3], [0, 2, 4], [0, 1, 2, 3]), ([0, 1, 2, 3], [0, 2, 4], [0, 2, 4]),
                 ([0, 1, 4], [1, 3, 4], [0, 1, 4]), ([0, 1, 4], [2, 3, 4], [0, 1, 4]),
                 ([0, 2, 4], [1, 3, 4], [0, 2, 4]), ([0, 2, 4], [2, 3, 4], [0, 2, 4])]
        assert code == 1 and err == ""
        assert out == "".join(
            ["square pyramid with its apex moved to (2, 0, -1): INVALID\n"]
            + [f"  - [intersection_not_face] intersection of cones {a} and {b} "
               f"is not a face of {c}\n" for a, b, c in pairs])

    @pytest.mark.parametrize("content, message", [
        (b'{"rank": 2, "rays": [[1,0],[0,1],[-1,-1]], "max_cones": [[0,7]]}', "out of range"),
        (b"\xff", "codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
        # an integer literal over the interpreter's 4,300-digit limit
        (b'{"rank": 1, "rays": [[1],[-1]], "max_cones": [[0],[1]], "name": '
         + b"1" * 5000 + b"}", "not valid JSON"),
        # a lone surrogate, which the human report could not print
        (b'{"rank": 1, "rays": [[1],[-1]], "max_cones": [[0],[1]], "name": "a\\ud800"}',
         "'name' is not valid Unicode text"),
    ], ids=["schema", "not-utf8", "nested-too-deep", "long-integer", "lone-surrogate-name"])
    def test_parse_error_exit2(self, content, message, tmp_path, capsys):
        doc = tmp_path / "bad.fan"
        doc.write_bytes(content)
        code, out, err = run_cli(["validate", str(doc)], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert message in err and "Traceback" not in err

    def test_missing_file_exit2(self, capsys):
        code, _, err = run_cli(["roots", "/nonexistent/path.fan"], capsys)
        assert code == 2

    def test_roots_output(self, capsys):
        code, out, _ = run_cli(["roots", str(DATA / "P2.fan")], capsys)
        assert code == 0 and "6 roots" in out and "semisimple pairs" in out

    @pytest.mark.parametrize("command, message", [
        ("roots", "fan is not complete: root set may be infinite"),
        ("autos", "automorphism groups of non-complete fans may be infinite"),
        ("decompose", "only complete fans are decomposed"),
        ("report", "structure reports need a complete fan"),
    ], ids=["roots", "autos", "decompose", "report"])
    def test_roots_incomplete_exit1(self, command, message, capsys):
        code, out, err = run_cli([command, str(FIXTURES / "P12_minus_cone.fan")], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_incomplete_messages_in_process(self):
        # the library calls that the subcommands above do not reach first
        fan = fan_from_document(parse_fan((FIXTURES / "P12_minus_cone.fan").read_text()))
        p1 = corpus()["P1"]
        calls = [
            (lambda: regularity_check(fan, DemazureRoot(e=(0,) * 12, rho_e=0)),
             "regularity certificates need a complete fan"),
            (lambda: lie_dimension(fan), "Lie dimension is defined for complete fans"),
            (lambda: wreath_order_check(fan), "theorem check needs a complete fan"),
            (lambda: product_roots(p1, fan), "fan is not complete: root set may be infinite"),
            (lambda: product_roots(fan, p1), "fan is not complete: root set may be infinite"),
        ]
        for call, message in calls:
            with pytest.raises(IncompleteFanError) as info:
                call()
            assert str(info.value) == message

    def test_autos(self, capsys):
        code, out, _ = run_cli(["autos", str(DATA / "P1xP1.fan")], capsys)
        assert code == 0 and "order 8" in out

    def test_autos_json_blow_up(self, capsys):
        code, out, _ = run_cli(["autos", "--json", str(FIXTURES / "Bl24P3.fan")], capsys)
        assert code == 0
        assert [e["order"] for e in json.loads(out)["fans"]] == [2]

    def test_report_structure_string(self, capsys):
        code, out, _ = run_cli(["report", str(DATA / "P1xP1.fan")], capsys)
        assert code == 0
        assert "Aut_{X1}^2 ⋊ S_2" in out and "dim Aut^0: 6" in out

    def test_conjugated_product_fixture(self, capsys):
        # P2 x P2 x P1 in a unitriangular times signed-permutation basis:
        # the factors' coordinates come from the inverse of the stacked bases
        path = FIXTURES / "P2xP2xP1_u.fan"
        code, out, _ = run_cli(["decompose", "--json", str(path)], capsys)
        assert code == 0
        [entry] = json.loads(out)["fans"]
        assert [f["rank"] for f in entry["factors"]] == [1, 2, 2]
        dec = Decomposition(factors=tuple(
            DecompositionFactor(fan=Fan(f["rank"], f["rays"], f["max_cones"]),
                                basis=mat(f["basis"]),
                                certified_indecomposable=f["certified_indecomposable"],
                                certificate=())
            for f in entry["factors"]))
        assert reconstruct(dec, 5) == fan_from_document(parse_fan(path.read_text()))
        code, out, _ = run_cli(["report", str(path)], capsys)
        assert code == 0 and "structure: Aut_{X1} × Aut_{X2}^2 ⋊ S_2" in out

    def test_product_then_decompose(self, tmp_path, capsys):
        out_file = tmp_path / "prod.fan"
        code, _, _ = run_cli(["product", str(DATA / "P1.fan"), str(DATA / "P2.fan"),
                              "-o", str(out_file)], capsys)
        assert code == 0
        code, out, _ = run_cli(["decompose", str(out_file)], capsys)
        assert code == 0 and "2 indecomposable factor(s)" in out

    def test_product_output_in_missing_directory_exit2(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "prod.fan"
        code, _, err = run_cli(["product", str(DATA / "P1.fan"), str(DATA / "P2.fan"),
                                "-o", str(out_file)], capsys)
        assert code == 2 and err.startswith(f"error: {out_file}: ")
        assert "Traceback" not in err

    def test_product_output_is_directory_exit2(self, tmp_path, capsys):
        code, _, err = run_cli(["product", str(DATA / "P1.fan"), str(DATA / "P2.fan"),
                                "-o", str(tmp_path)], capsys)
        assert code == 2 and err.startswith(f"error: {tmp_path}: ")
        assert "Traceback" not in err

    def test_product_stdout_parses(self, capsys):
        code, out, _ = run_cli(["product", str(DATA / "P1.fan"), str(DATA / "P1.fan")], capsys)
        assert code == 0
        doc = parse_fan(out)
        assert doc.rank == 2 and len(doc.rays) == 4

    def test_check_pass(self, capsys):
        code, out, _ = run_cli(["check", str(DATA / "P112.fan")], capsys)
        assert code == 0
        for cert in ("regularity", "additivity", "faithfulness",
                     "infinitesimal", "product_roots", "wreath_order"):
            assert f"PASS {cert}" in out
        assert "FAIL" not in out

    def test_check_large_basis_conjugate(self, capsys, monkeypatch):
        # F3 and P112 in bases with entries up to 21 and 55 get the base fans'
        # verdicts, and their additivity expansions have the same degrees
        # <rho_e, m>: the samples move with the basis
        degrees = []

        def chart_degrees(path):
            # <rho_e, m> over every chart's height-2 samples, for each root
            fan = fan_from_document(parse_fan(path.read_text()))
            return sorted(pairing(fan.rays[r.rho_e], m) for r in demazure_roots(fan)
                          for c in fan.max_cones if r.rho_e in c
                          for m in dual_monomials(fan, c, 2))

        def recording_check(fan, root, m):
            degrees.append(pairing(fan.rays[root.rho_e], m))
            return action_additivity_check(fan, root, m)

        monkeypatch.setattr(cli, "action_additivity_check", recording_check)
        for name, base in (("F3_conjugate.fan", "F3.fan"), ("P112_F9.fan", "P112.fan")):
            seen = {}
            for path in (FIXTURES / name, DATA / base):
                degrees.clear()
                code, out, _ = run_cli(["check", str(path)], capsys)
                assert code == 0
                assert "PASS faithfulness" in out and "PASS product_roots" in out
                assert "FAIL" not in out
                seen[path] = sorted(degrees)
            assert seen[FIXTURES / name] == seen[DATA / base], name
            assert chart_degrees(FIXTURES / name) == chart_degrees(DATA / base), name

    def test_check_fails_the_action_certificates_on_a_non_root(self, capsys, monkeypatch):
        # negative control: e = (-1, -1) pairs to -1 with the other ray (0, 1)
        # of a chart through (1, 0), so m = (1, 0) of that chart's dual is
        # sent to chi^(0, -1), outside it
        fan = corpus()["P2"]
        bad = DemazureRoot(e=(-1, -1), rho_e=fan.rays.index((1, 0)))
        monkeypatch.setattr(cli, "demazure_roots", lambda f: demazure_roots(f) + (bad,))
        code, out, _ = run_cli(["check", str(DATA / "P2.fan")], capsys)
        assert code == 1
        assert "FAIL additivity [P2] (height-2 samples)" in out
        assert "FAIL infinitesimal [P2] (height-2 samples)" in out

    def test_check_fails_faithfulness_on_a_non_root(self, capsys, monkeypatch):
        # negative control: a non-root among the roots FAILs faithfulness
        fan = corpus()["P2"]
        bad = DemazureRoot(e=(-1, -1), rho_e=fan.rays.index((1, 0)))
        monkeypatch.setattr(cli, "demazure_roots", lambda f: demazure_roots(f) + (bad,))
        code, out, _ = run_cli(["check", str(DATA / "P2.fan")], capsys)
        assert code == 1
        assert "FAIL faithfulness [P2] (witness per root)" in out

    def test_check_two_fans(self, capsys):
        code, out, _ = run_cli(["check", str(DATA / "P1.fan"), str(DATA / "P2.fan")], capsys)
        assert code == 0 and "P1 x P2" in out

    def test_check_incomplete_fails(self, tmp_path, capsys):
        doc = tmp_path / "a2.fan"
        doc.write_text('{"rank": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1]]}')
        code, out, _ = run_cli(["check", str(doc)], capsys)
        assert code == 1 and "FAIL complete" in out

    def test_validate_incomplete_fixture(self, capsys):
        # P^12 without one maximal cone: valid, not complete, decided by the
        # pairwise fallback over 66 pairs of rank-12 cones
        code, out, err = run_cli(["validate", "--json", str(FIXTURES / "P12_minus_cone.fan")],
                                 capsys)
        assert code == 0 and err == ""
        assert json.loads(out) == {"command": "validate", "fans": [{
            "name": "P12 minus its first maximal cone", "valid": True, "violations": [],
            "complete": False, "smooth": True, "simplicial": True}]}

    def test_warning_emitted(self, tmp_path, capsys):
        doc = tmp_path / "imp.fan"
        doc.write_text('{"rank": 2, "rays": [[2,4],[0,1],[-1,-3]], '
                       '"max_cones": [[0,1],[1,2],[2,0]]}')
        code, _, err = run_cli(["validate", str(doc)], capsys)
        assert code == 0 and "normalized to [1, 2]" in err


class TestArguments:
    """main reads [command, file, ..., --json, ...] of a command taking fan
    files without building the argparse parser; argparse parses, reports
    and rejects every other argv."""

    @staticmethod
    def argparse_result(argv) -> tuple:
        """(vars of argparse's Namespace, or None if it exits; its stdout
        and stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parsed = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        return parsed, out.getvalue(), err.getvalue()

    def test_seeded_argv_match_argparse(self):
        rng = random.Random(3301)
        tokens = list(cli.COMMANDS) + ["a.fan", "b.fan", "roots", "--json", "--json", "-h",
                                       "--js", "-o", "--", "-", ""]
        plain = exits = 0
        for _ in range(3000):
            argv = [rng.choice(tokens) for _ in range(rng.randrange(6))]
            if rng.random() < 0.5 and argv:
                argv[0] = rng.choice(list(cli.COMMANDS))
            fast = cli._plain_args(list(argv))
            parsed, _, _ = self.argparse_result(argv)
            if fast is not None:
                assert vars(fast) == parsed, argv
                plain += 1
            exits += parsed is None
        assert plain >= 300 and exits >= 300, (plain, exits)

    def test_the_plain_form_builds_no_parser(self, capsys, monkeypatch):
        expected = run_cli(["roots", str(DATA / "P1.fan"), "--json"], capsys)
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built"))
        for argv, files, json_flag in ((["roots", "a.fan"], ["a.fan"], False),
                                       (["check", "", "b", "--json", "--json"], ["", "b"], True)):
            assert vars(cli._plain_args(argv)) == {
                "command": argv[0], "files": files, "json": json_flag}
        assert run_cli(["roots", str(DATA / "P1.fan"), "--json"], capsys) == expected

    @pytest.mark.parametrize("argv,err", [
        ([], "usage: toricaut [-h] {validate,roots,autos,decompose,report,product,check} ...\n"
             "toricaut: error: the following arguments are required: command\n"),
        (["roots"], "usage: toricaut roots [-h] [--json] files [files ...]\n"
                    "toricaut roots: error: the following arguments are required: files\n"),
        (["check", "--json"], "usage: toricaut check [-h] [--json] files [files ...]\n"
                              "toricaut check: error: the following arguments are required: "
                              "files\n"),
        (["roots", "a.fan", "-o", "x"],
         "usage: toricaut [-h] {validate,roots,autos,decompose,report,product,check} ...\n"
         "toricaut: error: unrecognized arguments: -o x\n"),
    ], ids=["empty", "no-files", "json-no-files", "foreign-option"])
    def test_malformed_argv(self, argv, err, capsys):
        assert cli._plain_args(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", err)

    def test_a_dash_is_a_file_name(self, capsys):
        assert cli._plain_args(["roots", "-"]) is None
        assert run_cli(["roots", "-"], capsys) == (
            2, "", "error: -: [Errno 2] No such file or directory: '-'\n")


class TestReportMemo:
    def test_a_repeated_report_is_a_memo_hit(self, capsys):
        memo = structure_module.aut_structure_report
        args = ["report", "--json", str(FIXTURES / "P2xP2xP1_u.fan")]
        outputs = []
        for k in range(3):
            before = memo.cache_info()
            outputs.append(run_cli(args, capsys))
            after = memo.cache_info()
            if k:
                assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]


class TestActionCertificateCalls:
    """check runs each binomial identity, whose verdict depends on the
    degree <rho_e, m> alone, once per distinct degree of the height-2
    samples over every root, not once per root or per sample."""

    @staticmethod
    def counted_check(path, capsys, monkeypatch) -> dict:
        calls = {}
        for name in ("action_additivity_check", "infinitesimal_check"):
            original, calls[name] = getattr(cli, name), []

            def counting(fan, root, m, original=original, seen=calls[name]):
                seen.append((root, pairing(fan.rays[root.rho_e], m)))
                return original(fan, root, m)
            monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli(["check", str(path)], capsys)
        assert code == 0
        return calls

    def test_one_call_per_root_and_degree(self, capsys, monkeypatch):
        seen = self.counted_check(DATA / "P2xP2.fan", capsys, monkeypatch)["infinitesimal_check"]
        # at most one call per root and degree: in fact one per degree
        assert len(seen) == len(set(seen)) == 3
        assert len({k for _, k in seen}) == 3

    def test_additivity_once_per_degree(self, capsys, monkeypatch):
        counts = {DATA / "P2xP2.fan": 3, DATA / "F3.fan": 3, FIXTURES / "P112_F9.fan": 6,
                  FIXTURES / "P2xP2xP1_u.fan": 3}
        for path, count in counts.items():
            calls = self.counted_check(path, capsys, monkeypatch)
            degrees = [k for _, k in calls["action_additivity_check"]]
            assert len(degrees) == len(set(degrees)) == count, path.name
            # every degree the infinitesimal identity sees, each once, in the same order
            assert [k for _, k in calls["infinitesimal_check"]] == degrees, path.name


class TestProductCertificate:
    """The product_roots certificate enumerates the product's roots on its
    rays in its factors' charts: it builds no product fan, validates and
    builds no cone of the product's rank, and inverts nothing."""

    @staticmethod
    def traced(monkeypatch) -> list:
        """(event, rank) for each product_fan call, each validation, each
        cone built from rays or by the wall walk, and each elimination."""
        events = []
        build, walked, validate, inverse, product = (
            fan_module.cone_from_rays, fan_module._walked_cone, fan_module.validate_fan,
            lattice.scaled_inverse, fan_module.product_fan)
        monkeypatch.setattr(fan_module, "cone_from_rays",
                            lambda rays, rank: events.append(("cone", rank)) or build(rays, rank))
        monkeypatch.setattr(fan_module, "_walked_cone",
                            lambda n, *rest: events.append(("walked", n)) or walked(n, *rest))
        monkeypatch.setattr(fan_module, "validate_fan",
                            lambda fan: events.append(("validate", fan.rank)) or validate(fan))
        for module in (lattice, fan_module, roots_module):
            monkeypatch.setattr(module, "scaled_inverse",
                                lambda a: events.append(("inverse", len(a))) or inverse(a))
        for module in (fan_module, cli):
            monkeypatch.setattr(module, "product_fan", lambda f1, f2: events.append(
                ("product", f1.rank + f2.rank)) or product(f1, f2))
        return events

    def certified(self, fan, name, events, walked) -> None:
        """Two checks of the fan: every certificate holds, the events are
        the fan's own validation, one elimination and `walked` cones
        reached by its walk, and the second check reads the kept verdict."""
        memo = cli._product_roots_hold
        for k in range(2):
            before = memo.cache_info()
            certificates = run_certificates([(None, fan, name)])
            after = memo.cache_info()
            assert all(ok for _, _, ok, _ in certificates)
            assert certificates[-1][:2] == ("product_roots", f"{name} x {name}")
            assert (after.hits - before.hits, after.misses - before.misses) == (k, 1 - k)
            assert events == [("validate", 2), ("cone", 2), ("inverse", 2)] + [("walked", 2)] * walked

    def test_no_double_description_on_the_product(self, monkeypatch):
        events = self.traced(monkeypatch)
        doc = parse_fan((FIXTURES / "F3_conjugate.fan").read_text())
        self.certified(fan_from_document(doc), doc.name, events, 3)

    def test_a_blow_up_lists_no_product_cone(self, monkeypatch):
        # the self-product of a P2 blown up 300 times has 606 rays and
        # 303^2 maximal cones, none of them listed
        fan = random_blow_up(random.Random(5), corpus()["P2"], 300)
        events = self.traced(monkeypatch)
        self.certified(fan, "Bl300P2", events, 302)

    def test_a_second_check_reads_the_kept_verdict(self, capsys, monkeypatch):
        # the product's roots are found once per pair, and no fan of rank
        # 8 is built or validated
        events = self.traced(monkeypatch)
        first = run_cli(["check", str(DATA / "P2xP2.fan")], capsys)
        misses, count = demazure_roots.cache_info().misses, len(events)
        assert first[0] == 0 and max(rank for _, rank in events) == 4
        assert run_cli(["check", str(DATA / "P2xP2.fan")], capsys) == first
        assert demazure_roots.cache_info().misses == misses and len(events) == count

    def test_no_lower_dimensional_cones(self, monkeypatch):
        # regularity looks sigma' up among the fan's faces and samples
        # nothing, so no certificate builds a cone of less than full
        # dimension
        low = []
        build = fan_module.cone_from_rays

        def counted(rays, rank):
            cone = build(rays, rank)
            if cone.dim < rank:
                low.append(cone.rays)
            return cone

        monkeypatch.setattr(fan_module, "cone_from_rays", counted)
        paths = sorted(DATA.glob("*.fan")) + [FIXTURES / f"{name}.fan" for name in (
            "F3_conjugate", "F3_F20", "P112_F9", "Bl24P3")]
        for path in paths:
            doc = parse_fan(path.read_text())
            certificates = run_certificates([(doc, fan_from_document(doc), doc.name)])
            assert all(ok for _, _, ok, _ in certificates), path.name
            assert low == [], path.name
        assert len(paths) == 16


def _fresh(name: str) -> Fan:
    """A new Fan of a fixture document, with nothing kept on it yet."""
    doc = parse_fan((FIXTURES / f"{name}.fan").read_text())
    return Fan(doc.rank, doc.rays, doc.max_cones)


def _square_cases() -> list:
    conjugate = transform_fan(corpus()["P1xP2"], random_unimodular(random.Random(3303), 3))
    return [("F3_conjugate", _fresh("F3_conjugate")), ("P112_F9", _fresh("P112_F9")),
            ("P1xP2 conjugate", conjugate)]


class TestSquareProduct:
    """check on one fan enumerates its self-product's roots at the first
    factor's rays only, and the swap of the factors gives the rest; two
    different fans enumerate at every ray of their product."""

    @staticmethod
    def bounds_calls(monkeypatch) -> list:
        """The number of rays each _chart_bounds call reads."""
        calls = []
        bounds = roots_module._chart_bounds
        monkeypatch.setattr(roots_module, "_chart_bounds",
                            lambda rays, *rest: calls.append(len(rays)) or bounds(rays, *rest))
        return calls

    @staticmethod
    def verdicts(fans) -> dict:
        return {c: ok for c, _, ok, _ in run_certificates([(None, f, "F") for f in fans])}

    def test_square_equals_the_roots_of_the_product_fan(self):
        for name, fan in _square_cases():
            roots = roots_module.product_chart_roots(fan, fan)
            assert roots == demazure_roots(product_fan(fan, fan)) == product_roots(fan, fan), name
            assert len(roots) == 2 * len(demazure_roots(fan)) > 0, name

    def test_one_fan_enumerates_one_factor(self, monkeypatch):
        charts = roots_module._ray_charts
        for name, fan in _square_cases():
            calls = self.bounds_calls(monkeypatch)
            before = charts.cache_info()
            assert all(self.verdicts([fan]).values()), name
            # the product's roots come last, at its first factor's rays
            n = len(fan.rays)
            assert calls.count(2 * n) == n and calls[-n:] == [2 * n] * n, name
            # one chart table per fan whose roots were enumerated: the fan,
            # built for its roots and read by the product, and on P1xP2 the
            # two factors whose roots wreath_order compares
            middle = charts.cache_info()
            assert middle.misses - before.misses == len(set(calls[:-n])), name
            assert calls[:n] == [n] * n and (roots_module._ray_charts,) in fan.memo, name
            roots_module.product_chart_roots(fan, fan)
            assert charts.cache_info().misses == middle.misses, name

    def test_two_fans_enumerate_both_factors(self, monkeypatch):
        f1, f2 = _fresh("F3_conjugate"), _fresh("P112_F9")
        calls = self.bounds_calls(monkeypatch)
        assert all(self.verdicts([f1, f2]).values())
        n1, n2 = len(f1.rays), len(f2.rays)
        assert calls == [n1] * n1 + [n2] * n2 + [n1 + n2] * (n1 + n2)

    def test_a_dropped_factor_root_fails_the_certificate(self, monkeypatch):
        # product_roots reads demazure_roots through the roots module; the
        # other certificates read the full root list and still pass
        roots = roots_module.demazure_roots
        monkeypatch.setattr(roots_module, "demazure_roots", lambda f: roots(f)[1:])
        for name, fan in _square_cases():
            verdicts = self.verdicts([fan])
            assert verdicts.pop("product_roots") is False and all(verdicts.values()), name

    def test_a_dropped_product_root_fails_the_certificate(self, monkeypatch):
        lift = roots_module._lift
        for name, fan in _square_cases():
            n = fan.rank
            dropped = demazure_roots(fan)[-1].e + (0,) * n

            def lifted(ranges, *rest):
                return [e for e in lift(ranges, *rest) if len(ranges) == n or e != dropped]
            monkeypatch.setattr(roots_module, "_lift", lifted)
            verdicts = self.verdicts([fan])
            assert verdicts.pop("product_roots") is False and all(verdicts.values()), name


class TestCertificateTables:
    """check computes each per-ray fact of its certificates once per fan:
    one Hermite form for m1 per ray that has a root.  On a simplicial fan
    it samples no dual cone, so it lists no parallelepiped point."""

    @staticmethod
    def counted(monkeypatch) -> tuple:
        columns, boxes = [], []
        hermite, points = symbolic.hermite_normal_form, symbolic._parallelepiped_points

        def counted_hermite(a):
            if all(len(row) == 1 for row in a):  # a ray written as a column: m1
                columns.append(tuple(row[0] for row in a))
            return hermite(a)

        def no_samples(*args):
            raise AssertionError("check samples a dual cone")

        monkeypatch.setattr(symbolic, "hermite_normal_form", counted_hermite)
        monkeypatch.setattr(symbolic, "_parallelepiped_points",
                            lambda gens, d: boxes.append(tuple(gens)) or points(gens, d))
        monkeypatch.setattr(symbolic, "dual_monomials", no_samples)
        return columns, boxes

    def test_one_m1_per_ray_and_one_parallelepiped_per_cone(self, monkeypatch):
        columns, boxes = self.counted(monkeypatch)
        paths = sorted(DATA.glob("*.fan")) + [FIXTURES / f"{name}.fan" for name in (
            "F3_conjugate", "F3_F20", "P112_F9", "Bl24P3", "P2xP2xP1_u")]
        total = 0
        for path in paths:
            doc = parse_fan(path.read_text())
            fan = fan_from_document(doc)
            columns.clear()
            certificates = run_certificates([(doc, fan, doc.name)])
            assert all(ok for _, _, ok, _ in certificates), path.name
            rays = {fan.rays[r.rho_e] for r in demazure_roots(fan)}
            assert len(columns) == len(set(columns)) and set(columns) <= rays, path.name
            total += len(columns)
        # every document is simplicial, so no chart lists its parallelepiped;
        # F0 and P1xP1 load as one Fan, which keeps its rays' witnesses, so
        # P1xP1's check computes none
        assert len(paths) == 17 and total == 59 and boxes == []

    def test_rank_8_weighted_projective_space(self, monkeypatch):
        # P(1,1,2,2,3,3,4,4,5) has a chart of multiplicity 5, with 5^7 dual
        # parallelepiped points; check reads none of them
        _, boxes = self.counted(monkeypatch)
        fan = weighted_projective_fan((1, 1, 2, 2, 3, 3, 4, 4, 5))
        certificates = run_certificates([(None, fan, "P(1,1,2,2,3,3,4,4,5)")])
        assert [(c, ok) for c, _, ok, _ in certificates] == [(c, True) for c in (
            "valid", "complete", "regularity", "additivity", "infinitesimal",
            "faithfulness", "wreath_order", "product_roots")]
        assert boxes == []


# the subcommands that take one fan
FAN_COMMANDS = ("validate", "roots", "autos", "decompose", "report", "check")


def _document_text(rank, rays, cones, name):
    return json.dumps({"rank": rank, "rays": [list(r) for r in rays],
                       "max_cones": [list(c) for c in cones], "name": name})


class TestLoadedFans:
    """The loader keeps one Fan per canonical fan per process, so every
    subcommand on one document reads the same validation and cones."""

    def test_one_object_per_canonical_fan(self):
        p2 = parse_fan(P2_DOC)
        assert fan_from_document(parse_fan(P2_DOC)) is fan_from_document(p2)
        # the same fan with its rays and cones listed in another order
        order = [2, 0, 1]
        where = {old: new for new, old in enumerate(order)}
        shuffled = _document_text(2, [p2.rays[i] for i in order],
                                  [[where[i] for i in c] for c in reversed(p2.max_cones)],
                                  "P2 shuffled")
        assert parse_fan(shuffled).rays != p2.rays
        assert fan_from_document(parse_fan(shuffled)) is fan_from_document(p2)
        # a unimodular conjugate is another fan
        sheared = _document_text(2, [(x, x + y) for x, y in p2.rays], p2.max_cones, "P2 sheared")
        assert fan_from_document(parse_fan(sheared)) is not fan_from_document(p2)
        # fresh constructors stay fresh
        assert Fan(2, p2.rays, p2.max_cones) is not fan_from_document(p2)

    def test_equal_documents_keep_their_names(self, capsys):
        f0, p1xp1 = (parse_fan((DATA / f"{name}.fan").read_text()) for name in ("F0", "P1xP1"))
        assert fan_from_document(f0) is fan_from_document(p1xp1)
        code, out, _ = run_cli(["report", "--json", str(DATA / "F0.fan"),
                                str(DATA / "P1xP1.fan")], capsys)
        assert code == 0
        assert [e["name"] for e in json.loads(out)["fans"]] == ["F0", "P1xP1"]

    def test_validated_once_across_subcommands(self, tmp_path, capsys, monkeypatch):
        # a seeded conjugate of F1 x P1
        fan = transform_fan(product_fan(corpus()["F1"], corpus()["P1"]),
                            random_unimodular(random.Random(151515), 3))
        path = tmp_path / "conjugate.fan"
        path.write_text(_document_text(3, fan.rays, fan.max_cones, "F1 x P1 conjugate"))
        calls = []
        validate = fan_module.validate_fan

        def counting(f):
            if f == fan:
                calls.append(f)
            return validate(f)
        monkeypatch.setattr(fan_module, "validate_fan", counting)
        for command in FAN_COMMANDS:
            code, _, err = run_cli([command, str(path)], capsys)
            assert code == 0 and err == "", command
        assert len(calls) == 1

    def test_outputs_do_not_depend_on_load_order(self, capsys):
        # 72 operations forward in this process, and in reverse order in a
        # fresh one: the same bytes and exit codes
        ops = [[command, "--json", str(DATA / f"{name}.fan")] for name in sorted(corpus())
               for command in FAN_COMMANDS]
        forward = [list(run_cli(args, capsys)) for args in ops]
        script = (
            "import contextlib, io, json, sys\n"
            "from toricaut.cli import main\n"
            "out = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    stdout, stderr = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
            "        code = main(args)\n"
            "    out.append([code, stdout.getvalue(), stderr.getvalue()])\n"
            "print(json.dumps(out))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(DATA.parent.parent), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(ops[::-1])],
                              capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout)[::-1] == forward


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_roots_golden(self, name, capsys):
        code, out, _ = run_cli(["roots", str(DATA / f"{name}.fan"), "--json"], capsys)
        assert code == 0
        expected = json.loads((GOLDENS / f"{name}.roots.json").read_text())
        assert json.loads(out) == expected

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_report_golden(self, name, capsys):
        code, out, _ = run_cli(["report", str(DATA / f"{name}.fan"), "--json"], capsys)
        assert code == 0
        expected = json.loads((GOLDENS / f"{name}.report.json").read_text())
        assert json.loads(out) == expected


class TestJsonBytes:
    """--json prints json.dumps(obj, indent=2, sort_keys=True) byte for
    byte.  The goldens compare parsed objects, so they do not see the
    layout."""

    @staticmethod
    def check(args, capsys) -> bool:
        code, out, _ = run_cli(args, capsys)
        if not out:
            assert code != 0, args
            return False
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", args
        return True

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.fan")) + sorted(FIXTURES.glob("*.fan")),
                             ids=lambda path: f"{path.parent.name}/{path.stem}")
    def test_every_subcommand(self, path, capsys):
        # report on cube5 runs the generating-set search of a group of
        # order 3,840 (ROADMAP item 2)
        printed = [self.check([command, "--json", str(path)], capsys) for command in FAN_COMMANDS
                   if (command, path.name) != ("report", "cube5.fan")]
        assert any(printed)

    @pytest.mark.parametrize("command", ["check", "product"])
    def test_two_files(self, command, capsys):
        assert self.check([command, "--json", str(DATA / "P1.fan"), str(DATA / "P2.fan")], capsys)


class TestJsonText:
    """cli._json_text against json.dumps(..., indent=2, sort_keys=True)."""

    def test_seeded_objects_match_json_dumps(self):
        rng = random.Random(3202)
        letters = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                   "\xe9", "\u22ca", "\u2028", "\ud800", "\U0001f600"]

        def text():
            return "".join(rng.choice(letters) for _ in range(rng.randrange(5)))

        def atom():
            return rng.choice([rng.randint(-9, 9), -rng.randrange(10 ** 299, 10 ** 300),
                               10 ** 300 - 1, True, False, None, text()])

        def value(depth):
            kind = rng.randrange(5) if depth < 4 else 0
            if kind == 0:
                return atom()
            if kind == 1:   # a row of ints, now and then holding True, False or None
                row = [rng.randint(-99, 99) for _ in range(rng.randrange(6))]
                if row and rng.random() < 0.3:
                    row[rng.randrange(len(row))] = rng.choice([True, False, None])
                return rng.choice([row, tuple(row)])
            if kind == 2:
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            if kind == 3:
                return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
            return {text(): value(depth + 1) for _ in range(rng.randrange(4))}

        objects = [value(0) for _ in range(800)]
        for obj in objects:
            assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
        rendered = "".join(cli._json_text(obj) for obj in objects)
        for piece in ("[]", "{}", "true", "false", "null", "\\u22ca", '\\"', "\\\\", "\\u0000",
                      "\\ud800", "9" * 300):
            assert piece in rendered, piece
        assert re.search(r"-[0-9]{300}\b", rendered)

    @pytest.mark.parametrize("obj", [1.5, {"a": [1, 2.0]}, {1, 2}, b"x", [object()]],
                             ids=["float", "float-in-row", "set", "bytes", "object"])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            cli._json_text(obj)


def _human_cases():
    names = sorted(corpus())
    every = [str(DATA / f"{name}.fan") for name in names]
    pair = [str(DATA / "P1.fan"), str(DATA / "P2.fan")]
    cases = [(cmd, [cmd, *every])
             for cmd in ("validate", "roots", "autos", "decompose", "report")]
    cases += [(f"check.{name}", ["check", str(DATA / f"{name}.fan")]) for name in names]
    # the fixtures on which check passes
    cases += [(f"check.{name}", ["check", str(FIXTURES / f"{name}.fan")]) for name in (
        "F3_F20", "F3_conjugate", "P112_F9", "P2xP2xP1_u", "Bl24P3", "cube5", "P1122334",
        "F1xF1xF1")]
    return cases + [("check.P1+P2", ["check", *pair]), ("product.P1+P2", ["product", *pair])]


HUMAN_CASES = _human_cases()


class TestHumanGoldens:
    """The human report of every subcommand, byte for byte."""

    @pytest.mark.parametrize("key,args", HUMAN_CASES, ids=[key for key, _ in HUMAN_CASES])
    def test_human_golden(self, key, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == (GOLDENS / "human" / f"{key}.txt").read_text(encoding="utf-8")
