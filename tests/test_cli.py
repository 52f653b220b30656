"""Command-line behavior: exit codes, schemas, pipes, byte-stable exports."""

import io
import json
import subprocess
import sys
import types

import jsonschema
import numpy as np
import pytest

from stexo.catalog import REGISTRY, fixture_documents, get_fixture
from stexo.cli import REPORT_SCHEMA, VERDICT_SCHEMA, main
from stexo.errors import InternalInvariantError
from stexo.modelfile import canonical_bytes, model_document
from stexo.simplicial import Cochain

from reference import v1_document

SMALL = ("rp-w2-zero", "rp-kreck", "z2-remark", "z2-secondary")


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    for name in SMALL:
        for part, doc in fixture_documents(name).items():
            (root / f"{name}-{part}.json").write_bytes(canonical_bytes(doc))
    return root


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_decide_primary_nonzero(exported, capsys):
    code, out = run(capsys, ["decide", str(exported / "rp-w2-zero-base.json")])
    assert code == 0
    assert out.splitlines()[0] == "NoExoticaPrimary (clause 2)"


def test_decide_json_matches_schema_and_human_clause(exported, capsys):
    path = str(exported / "rp-kreck-base.json")
    code, human = run(capsys, ["decide", path])
    assert code == 0
    head = human.splitlines()[0]
    code, raw = run(capsys, ["decide", path, "--json"])
    assert code == 0
    payload = json.loads(raw)
    jsonschema.validate(payload, VERDICT_SCHEMA)
    assert head == f"{payload['outcome']} (clause {payload['clause']})"
    assert payload["outcome"] == "ExoticaExistKreck"


def test_decide_secondary_positive_branch(exported, capsys):
    code, out = run(
        capsys,
        [
            "decide",
            str(exported / "z2-secondary-base.json"),
            "--cover",
            str(exported / "z2-secondary-cover.json"),
            "--section",
            "section",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "ExoticaExistSecondary"
    assert payload["clause"] == 6
    # the human rendering must survive the array-valued evidence of clause 6
    code, human = run(
        capsys,
        [
            "decide",
            str(exported / "z2-secondary-base.json"),
            "--cover",
            str(exported / "z2-secondary-cover.json"),
            "--section",
            "section",
        ],
    )
    assert code == 0
    assert human.splitlines()[0] == "ExoticaExistSecondary (clause 6)"
    assert '"omega_coords"' in human


@pytest.mark.slow
def test_decide_z4_with_cover_and_lift(tmp_path, capsys):
    docs = fixture_documents("z4-semidirect")
    base = tmp_path / "base.json"
    cover = tmp_path / "cover.json"
    base.write_bytes(canonical_bytes(docs["base"]))
    cover.write_bytes(canonical_bytes(docs["cover"]))
    code, out = run(
        capsys,
        ["decide", str(base), "--cover", str(cover), "--lift", "lift-0", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "NoExoticaSecondary"
    assert payload["evidence"]["enumeration_complete"] is True


def test_decide_reads_stdin(exported, capsys, monkeypatch):
    blob = (exported / "z2-remark-base.json").read_bytes()
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(blob)))
    code, out = run(capsys, ["decide", "-"])
    assert code == 0
    assert out.splitlines()[0] == "ExoticaExistCd3 (clause 4)"


def test_invalid_input_exits_two(tmp_path, capsys):
    nt = get_fixture("rp-w2-zero").nt
    model = nt.base
    wrong = Cochain(model, 2, np.zeros(model.cells[2], dtype=np.uint8))
    doc = model_document(model, cochains={"w1": wrong, "w2": nt.w2})
    path = tmp_path / "invalid.json"
    path.write_bytes(canonical_bytes(doc))
    code, out = run(capsys, ["decide", str(path)])
    assert code == 2
    assert out.splitlines()[0] == "InvalidInput (clause 1)"


def test_missing_file_exits_two(capsys):
    assert main(["decide", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["decide", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not a JSON model file" in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_bytes(b"[" * 100000 + b"]" * 100000)
    assert main(["decide", str(nested)]) == 2
    assert "not a JSON model file" in capsys.readouterr().err


def test_lift_without_cover_exits_two(exported, capsys):
    code = main(["decide", str(exported / "rp-w2-zero-base.json"), "--lift", "x"])
    assert code == 2
    assert "--cover" in capsys.readouterr().err


def test_unknown_section_name_exits_two(exported, capsys):
    code = main(["decide", str(exported / "rp-kreck-base.json"), "--section", "nope"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_cover_file_without_involution_exits_two(exported, capsys):
    code = main(
        [
            "decide",
            str(exported / "rp-w2-zero-base.json"),
            "--cover",
            str(exported / "rp-w2-zero-base.json"),
        ]
    )
    assert code == 2
    assert "involution" in capsys.readouterr().err


def test_missing_normal_type_cochains_exits_two(exported, capsys):
    # a cover document carries no w1/w2, so decide must refuse it
    code = main(["decide", str(exported / "rp-w2-zero-cover.json")])
    assert code == 2
    assert "w1" in capsys.readouterr().err


def test_internal_invariant_exits_three(exported, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalInvariantError("synthetic breach")

    monkeypatch.setattr("stexo.cli.decide", boom)
    code = main(["decide", str(exported / "rp-w2-zero-base.json")])
    assert code == 3
    assert "synthetic breach" in capsys.readouterr().err


def test_report_json_schema_and_clause_agreement(exported, capsys):
    path = str(exported / "rp-w2-zero-base.json")
    code, raw = run(capsys, ["report", path, "--json"])
    assert code == 0
    payload = json.loads(raw)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["killers"]["clause"] == 2
    code, human = run(capsys, ["report", path])
    assert code == 0
    assert "decision clause 2: NoExoticaPrimary" in human
    assert "killed by d3" in human


def test_report_kreck_survivor(exported, capsys):
    code, out = run(capsys, ["report", str(exported / "rp-kreck-base.json")])
    assert code == 0
    assert "the K3 class survives" in out


def test_cohomology_human_and_json(exported, capsys):
    path = str(exported / "rp-w2-zero-base.json")
    code, out = run(capsys, ["cohomology", path, "--deg", "2", "--steenrod"])
    assert code == 0
    assert "dimension 1" in out
    assert "Sq^2 b0 -> [1]" in out
    code, raw = run(capsys, ["cohomology", path, "--deg", "2", "--steenrod", "--json"])
    assert code == 0
    payload = json.loads(raw)
    assert payload["dim"] == 1
    assert payload["sq2"] == [[1]]


def test_cohomology_out_of_range_degree_exits_two(exported, capsys):
    code = main(["cohomology", str(exported / "rp-w2-zero-base.json"), "--deg", "9"])
    assert code == 2
    capsys.readouterr()


def test_catalog_list_names_everything(capsys):
    code, out = run(capsys, ["catalog", "list"])
    assert code == 0
    for name in REGISTRY:
        assert name in out


def test_catalog_export_matches_library_and_is_stable(capsysbinary):
    assert main(["catalog", "export", "rp-kreck"]) == 0
    first = capsysbinary.readouterr().out
    assert main(["catalog", "export", "rp-kreck"]) == 0
    second = capsysbinary.readouterr().out
    assert first == second
    assert first == canonical_bytes(fixture_documents("rp-kreck")["base"])


def test_catalog_export_cover_part(capsysbinary):
    assert main(["catalog", "export", "rp-kreck", "--part", "cover"]) == 0
    blob = capsysbinary.readouterr().out
    assert blob == canonical_bytes(fixture_documents("rp-kreck")["cover"])


def test_catalog_export_unknown_name_exits_two(capsys):
    assert main(["catalog", "export", "no-such-fixture"]) == 2
    assert "known" in capsys.readouterr().err


def test_catalog_export_missing_part_exits_two(capsys):
    assert main(["catalog", "export", "z2-remark", "--part", "cover"]) == 2
    capsys.readouterr()


def _write_both_forms(root, name) -> dict:
    """The fixture's documents written in version 2 under the directory v2
    of root and in version 1 under v1, by part: {form: {part: path}}."""
    paths = {}
    for form, convert in (("v2", lambda doc: doc), ("v1", v1_document)):
        (root / form).mkdir()
        paths[form] = {}
        for part, doc in fixture_documents(name).items():
            blob = canonical_bytes(convert(json.loads(canonical_bytes(doc))))
            paths[form][part] = root / form / f"{part}.json"
            paths[form][part].write_bytes(blob)
    return paths


@pytest.mark.slow
@pytest.mark.parametrize("name", list(REGISTRY))
def test_decide_and_report_agree_on_both_file_versions(name, tmp_path, capsys):
    fx = get_fixture(name)
    paths = _write_both_forms(tmp_path, name)
    outputs = {}
    for form, files in paths.items():
        opts = [str(files["base"])]
        if "cover" in files:
            opts += ["--cover", str(files["cover"])]
        if fx.section is not None:
            opts += ["--section", "section"]
        lift = ["--lift", f"lift-{fx.lift_data[0].index}"] if fx.lift_data else []
        runs = []
        for argv in (["decide", "--json", *opts, *lift], ["report", "--json", *opts]):
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, out, err.replace(str(tmp_path / form), "<dir>")))
        outputs[form] = runs
    assert outputs["v1"] == outputs["v2"]
    # a fixture with no type (k2-stress) is refused alike, exit code 2
    assert [code for code, _, _ in outputs["v2"]] == ([0, 0] if fx.nt else [2, 2])


@pytest.mark.slow
def test_console_pipeline_subprocess():
    cmd = "python3 -m stexo catalog export z2-remark | python3 -m stexo decide - --json"
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["outcome"] == "ExoticaExistCd3"
