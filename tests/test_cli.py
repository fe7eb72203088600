import json
import os
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from truemper import cli
from truemper.cli import main
from truemper.gen import make_pyramid, plant_configuration
from truemper.graph import Graph, write_graph_file

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_validator(name):
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource
        resources = []
        for path in SCHEMA_DIR.glob("*.schema.json"):
            with open(path) as fh:
                doc = json.load(fh)
            resources.append((doc["$id"], Resource.from_contents(doc)))
            resources.append((path.name, Resource.from_contents(doc)))
        registry = Registry().with_resources(resources)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        return jsonschema.Draft202012Validator(schema)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_graph(tmp, name, g):
    path = tmp / name
    write_graph_file(str(path), g)
    return str(path)


LONG_PYRAMID = make_pyramid((2, 2, 2))
W4 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                              (4, 0), (4, 1), (4, 2)])
K23 = Graph.from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
C7 = Graph.from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])
C9 = Graph.from_edge_list(9, [(i, (i + 1) % 9) for i in range(9)])


class TestRecognizeCommand:
    def test_long_pyramid_in_class(self, workdir, capsys):
        path = write_graph(workdir, "lp.graph", LONG_PYRAMID)
        assert main(["recognize", "only-pyramid", path]) == 0
        assert "in class" in capsys.readouterr().out

    def test_w4_rejected_with_witness(self, workdir, capsys):
        path = write_graph(workdir, "w4.graph", W4)
        code = main(["recognize", "only-prism", path, "--witness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "wheel" in out

    def test_internal_error_exits_three(self, workdir, capsys, monkeypatch):
        # exit 1 means "not in class", so a crash must not return it
        def crash(g, witness_cap=None):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli.RECOGNIZERS, "only-prism", crash)
        path = write_graph(workdir, "lp.graph", LONG_PYRAMID)
        assert main(["recognize", "only-prism", path]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RecursionError" in err

    def test_malformed_file_exits_two(self, workdir, capsys):
        path = workdir / "bad.graph"
        path.write_text("2 1\n0 nope\n")
        assert main(["recognize", "only-prism", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_json_report_validates(self, workdir, capsys):
        path = write_graph(workdir, "w4.graph", W4)
        out = workdir / "report.json"
        main(["recognize", "only-prism", path, "--json", str(out), "--witness"])
        capsys.readouterr()
        data = json.loads(out.read_text())
        make_validator("recognition-report.schema.json").validate(data)
        manifest = json.loads((workdir / "report.json.manifest.json").read_text())
        make_validator("manifest.schema.json").validate(manifest)

    def test_graph6_import(self, workdir, capsys):
        path = workdir / "k4.g6"
        path.write_text("C~\n")
        assert main(["recognize", "only-prism", str(path),
                     "--format", "graph6"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("raw", ["abc", "1_5", "-1"])
    def test_malformed_env_cap_exits_two(self, workdir, capsys, monkeypatch, raw):
        path = write_graph(workdir, "w4.graph", W4)
        monkeypatch.setenv("TRUEMPER_ORACLE_CAP", raw)
        assert main(["recognize", "only-prism", path, "--witness"]) == 2
        assert "error: TRUEMPER_ORACLE_CAP must be" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-1", "1_5", "abc"])
    def test_malformed_cap_flag_exits_two(self, workdir, capsys, raw):
        path = write_graph(workdir, "w4.graph", W4)
        assert main(["recognize", "only-prism", path, "--witness",
                     "--cap", raw]) == 2
        assert "error: --cap must be" in capsys.readouterr().err

    def test_unwritable_json_exits_two(self, workdir, capsys):
        path = write_graph(workdir, "w4.graph", W4)
        out = workdir / "missing" / "report.json"
        assert main(["recognize", "only-prism", path, "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_witness_above_cap_says_why(self, workdir, capsys, monkeypatch):
        monkeypatch.delenv("TRUEMPER_ORACLE_CAP", raising=False)
        path = write_graph(workdir, "theta.graph",
                           plant_configuration(1, "theta", 20))
        assert main(["recognize", "only-pyramid", path, "--witness"]) == 1
        assert ("  witness: none (offending graph has 20 nodes, above the "
                "oracle cap 14)\n") in capsys.readouterr().out


class TestDecomposeCommand:
    def test_clique_mode_on_chordal(self, workdir, capsys):
        import random
        from util import perfect_elimination_chordal
        from truemper.graph import is_clique_graph
        g = perfect_elimination_chordal(random.Random(1), 9)
        path = write_graph(workdir, "chordal.graph", g)
        out = workdir / "tree.json"
        assert main(["decompose", "clique", path, "--json", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        make_validator("clique-tree.schema.json").validate(data)

        def leaves(node):
            if node["kind"] == "leaf":
                yield node
            for child in node.get("children", ()):
                yield from leaves(child)

        for leaf in leaves(data["root"]):
            lg = Graph.from_edge_list(leaf["n"], [tuple(e) for e in leaf["edges"]])
            assert is_clique_graph(lg)

    def test_2join_mode_on_c9(self, workdir, capsys):
        path = write_graph(workdir, "c9.graph", C9)
        out = workdir / "tree.json"
        assert main(["decompose", "2join", path, "--json", str(out)]) == 0
        assert "no-2join" in capsys.readouterr().out
        data = json.loads(out.read_text())
        make_validator("twojoin-tree.schema.json").validate(data)
        assert data["root"]["kind"] == "no-2join"

    def test_2join_mode_on_composed_instance(self, workdir, capsys):
        from truemper.twojoin import compose_2join
        lp = make_pyramid((3, 3, 3))
        comp = compose_2join(lp, (4, 5, 1), lp, (4, 5, 1))
        path = write_graph(workdir, "comp.graph", comp)
        out = workdir / "tree.json"
        dot = workdir / "tree.dot"
        assert main(["decompose", "2join", path, "--json", str(out),
                     "--dot", str(dot)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["root"]["kind"] == "internal"
        assert "graph twojoin_decomposition" in dot.read_text()


    def test_unwritable_dot_exits_two(self, workdir, capsys):
        path = write_graph(workdir, "w4.graph", W4)
        out = workdir / "missing" / "tree.dot"
        assert main(["decompose", "clique", path, "--dot", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGenerateCommand:
    def test_outputs_accepted_and_deterministic(self, workdir, capsys):
        out1 = workdir / "a"
        out2 = workdir / "b"
        args = ["generate", "only-prism", "--seed", "7", "--size", "20",
                "--count", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        files1 = sorted(p.name for p in out1.glob("*.graph"))
        assert files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            assert main(["recognize", "only-prism", str(out1 / name)]) == 0
        capsys.readouterr()

    def test_planted_outputs_rejected(self, workdir, capsys):
        out = workdir / "planted"
        assert main(["generate", "planted:prism", "--seed", "3", "--size",
                     "12", "--out", str(out)]) == 0
        capsys.readouterr()
        for path in out.glob("*.graph"):
            assert main(["recognize", "only-pyramid", str(path)]) == 1
        capsys.readouterr()

    def test_manifest_replay_is_bit_exact(self, workdir, capsys):
        out1 = workdir / "orig"
        out2 = workdir / "replayed"
        assert main(["generate", "only-pyramid", "--seed", "5", "--size",
                     "15", "--count", "2", "--out", str(out1)]) == 0
        manifest_path = out1 / "manifest.json"
        make_validator("manifest.schema.json").validate(
            json.loads(manifest_path.read_text()))
        assert main(["generate", "--replay", str(manifest_path),
                     "--out", str(out2)]) == 0
        capsys.readouterr()
        for p1 in out1.glob("*.graph"):
            assert (out2 / p1.name).read_bytes() == p1.read_bytes()

    def test_recipes_validate(self, workdir, capsys):
        out = workdir / "g"
        assert main(["generate", "only-pyramid", "--seed", "2", "--size",
                     "14", "--out", str(out)]) == 0
        capsys.readouterr()
        recipes = list(out.glob("*.recipe.json"))
        assert recipes
        validator = make_validator("recipe.schema.json")
        for r in recipes:
            validator.validate(json.loads(r.read_text()))

    def test_missing_arguments(self, workdir, capsys):
        assert main(["generate", "only-prism", "--out", str(workdir)]) == 2
        capsys.readouterr()

    def test_bad_size_or_count_exits_two(self, workdir, capsys):
        for extra in (["--size", "0"], ["--size", "5", "--count", "-1"]):
            assert main(["generate", "only-prism", "--seed", "1",
                         "--out", str(workdir)] + extra) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_bad_replay_manifest_exits_two(self, workdir, capsys):
        good = {"kind": "only-prism", "seed": 1, "size": 5, "count": 1}
        for bad in ({"seed": "1"}, {"count": "2"}, {"size": 0},
                    {"count": -1}, {"seed": True}):
            path = workdir / "manifest.json"
            path.write_text(json.dumps({**good, **bad}))
            assert main(["generate", "--replay", str(path),
                         "--out", str(workdir / "out")]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        path.write_text(json.dumps(["kind", "seed", "size", "count"]))
        assert main(["generate", "--replay", str(path),
                     "--out", str(workdir / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "out").exists()


    def test_out_is_a_file_exits_two(self, workdir, capsys):
        out = workdir / "taken"
        out.write_text("")
        assert main(["generate", "only-prism", "--seed", "1", "--size", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOracleCommand:
    def test_theta_witness_printed(self, workdir, capsys):
        path = write_graph(workdir, "k23.graph", K23)
        code = main(["oracle", path, "--kinds", "theta"])
        out = capsys.readouterr().out
        assert code == 1
        assert '"kind": "theta"' in out

    def test_empty_kinds_is_an_input_error(self, workdir, capsys):
        path = write_graph(workdir, "k23.graph", K23)
        assert main(["oracle", path, "--kinds", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_repeated_kind_printed_once(self, workdir, capsys):
        path = write_graph(workdir, "k23.graph", K23)
        assert main(["oracle", path, "--kinds", "theta,theta"]) == 1
        out = capsys.readouterr().out
        assert out.count("theta:") == 1

    def test_hole_is_clean(self, workdir, capsys):
        path = write_graph(workdir, "c7.graph", C7)
        assert main(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert out.count("none") == 4

    def test_cap_exceeded_exits_two(self, workdir, capsys):
        big = Graph.from_edge_list(15, [(i, i + 1) for i in range(14)])
        path = write_graph(workdir, "big.graph", big)
        assert main(["oracle", path]) == 2
        assert "oracle scale exceeded" in capsys.readouterr().err

    def test_env_cap_override(self, workdir, capsys, monkeypatch):
        big = Graph.from_edge_list(15, [(i, i + 1) for i in range(14)])
        path = write_graph(workdir, "big.graph", big)
        monkeypatch.setenv("TRUEMPER_ORACLE_CAP", "15")
        assert main(["oracle", path]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("raw", ["abc", "1_5", "-1"])
    def test_malformed_env_cap_exits_two(self, workdir, capsys, monkeypatch, raw):
        path = write_graph(workdir, "k23.graph", K23)
        monkeypatch.setenv("TRUEMPER_ORACLE_CAP", raw)
        assert main(["oracle", path]) == 2
        assert "error: TRUEMPER_ORACLE_CAP must be" in capsys.readouterr().err

    def test_witness_json_validates(self, workdir, capsys):
        path = write_graph(workdir, "k23.graph", K23)
        out = workdir / "witness.json"
        main(["oracle", path, "--json", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        validator = make_validator("witness.schema.json")
        for kind, witness in data.items():
            if witness is not None:
                validator.validate(witness)

    @pytest.mark.parametrize("raw", ["-1", "1_5", "abc"])
    def test_malformed_cap_flag_exits_two(self, workdir, capsys, raw):
        path = write_graph(workdir, "k23.graph", K23)
        assert main(["oracle", path, "--cap", raw]) == 2
        assert "error: --cap must be" in capsys.readouterr().err

    def test_unwritable_json_exits_two(self, workdir, capsys):
        path = write_graph(workdir, "k23.graph", K23)
        out = workdir / "missing" / "witness.json"
        assert main(["oracle", path, "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
