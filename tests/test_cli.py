import hashlib
import json

import pytest

from cutlab.cli import main, parse_params


class TestParseParams:
    def test_values_and_fractions(self):
        from fractions import Fraction

        parsed = parse_params("r=3,k=2,eps=1/20")
        assert parsed == {"r": 3, "k": 2, "eps": Fraction(1, 20)}

    def test_range_expansion(self):
        parsed = parse_params("k=2,r=2..4", ranges=True)
        assert parsed == {"k": 2, "r": [2, 3, 4]}


class TestGenerate:
    def test_saks_node_count(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(
            ["generate", "--family", "saks", "--params", "r=3,k=2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 13

    def test_generated_weight_total(self, tmp_path):
        out = tmp_path / "inst.json"
        main(
            [
                "generate",
                "--family",
                "dict-e",
                "--params",
                "a=4,b=3,r=2,R=1",
                "--out",
                str(out),
            ]
        )
        from fractions import Fraction

        doc = json.loads(out.read_text())
        total = sum(
            Fraction(e["weight"]) for e in doc["edges"] if e["weight"] is not None
        )
        assert total == 3

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_params(self, capsys):
        code = main(["generate", "--family", "saks", "--params", "r=1,k=2"])
        assert code == 1
        assert "ParamOutOfRange" in capsys.readouterr().err

    def test_size_guard_surfaced(self, capsys):
        code = main(
            [
                "generate",
                "--family",
                "saks",
                "--params",
                "r=8,k=7",
                "--max-nodes",
                "100",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "SizeGuard" in err and "2097166" in err


    # SHA-256 of the generate output, recorded before the generators built
    # edges from the support of each test's correlated space
    FROZEN_SHA256 = {
        ("saks", "r=4,k=2"): "51c89d243b72144adf9510e5ae0c9a90e922be5bb25ffd58d5f9d56e3882594f",
        ("saks", "r=3,k=3"): "76dcb39765973c40aa30d4f5a0b782667aeb2e5e01aa43b4f639013862419f22",
        ("saks", "r=2,k=4"): "17bd4b0f1c3cd076375acc42768405102419b06964ad96a54b334875b3bc6e95",
        ("dict-m", "r=3,k=2,R=2,eps=1/10"): "ff4e58edbd2f751bdf4d8e67de0bda020c02de20a35e38978e5cd51dc188ad7e",
        ("dict-m", "r=2,k=3,R=2,eps=1/5"): "6d6b0bef4843ce4711bf1d927c7a0469cb6a12029779403b09031db642c33156",
        ("dict-e", "a=2,b=3,r=2,R=3"): "6a61741ef6ffe3282a3e9207d96cd8173c53ce6cc2fe96d64c24dc5259d7b188",
        ("dict-v", "a=2,b=3,r=3,R=4,eps=1/20"): "be88b7ffb5a26e99d20695b00f89f63ce9f6ba364d1b791f34e69ebc5cd3c1d6",
        ("dict-v", "a=2,b=5,r=3,R=3,eps=1/20"): "b29c0e4167de8f4345860a1585eee058a46e959fa737db51480c3368898ef255",
        ("dict-v", "a=1,b=1,r=2,R=2,eps=1/5"): "9e820924896e245179000b2f9ed4b6ff6377043b0e47415075e2d93d447207a3",
        ("dict-f", "b=2,R=1,eps=1/100"): "7a019a79fd5aee88bbbdffe51fd98fac8d6e5521817b71c90445e0e52fe1d423",
        ("dict-f", "b=3,R=1,eps=1/1000"): "8a210e5db1371c179536ace829a4bb1c4b7bd3e9fbc886daffc4e6b86d0acaf4",
        ("dict-f", "b=2,R=2,eps=1/100"): "cce64a8c2f1528f39a66226c4c1f596637914842d96fae25f135df425e047a92",
    }

    @pytest.mark.parametrize("family, params", sorted(FROZEN_SHA256))
    def test_output_bytes_frozen(self, family, params, capsys):
        assert main(["generate", "--family", family, "--params", params]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.FROZEN_SHA256[(family, params)]


class TestVerify:
    def test_dict_v_passes(self, capsys):
        code = main(
            ["verify", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20", "--q", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert '"dist": 15' in out

    def test_dict_m_passes(self, capsys):
        code = main(
            ["verify", "--family", "dict-m", "--params", "r=2,k=2,R=1,eps=1/20"]
        )
        assert code == 0
        assert "every pair disconnected" in capsys.readouterr().out

    def test_dict_f_passes(self, capsys):
        code = main(
            ["verify", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100"]
        )
        assert code == 0
        assert "target never burnt" in capsys.readouterr().out

    def test_instance_file_passes(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(
            [
                "generate",
                "--family",
                "dict-v",
                "--params",
                "a=4,b=4,r=3,R=1,eps=1/20",
                "--out",
                str(path),
            ]
        )
        assert main(["verify", "--instance", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_tampered_instance_fails(self, tmp_path, capsys):
        # relabeling one cut vertex lets a short path evade the dictator cut
        path = tmp_path / "inst.json"
        main(
            [
                "generate",
                "--family",
                "dict-v",
                "--params",
                "a=4,b=4,r=3,R=1,eps=1/20",
                "--out",
                str(path),
            ]
        )
        tampered = tmp_path / "tampered.json"
        tampered.write_text(path.read_text().replace("v[2]/[0]", "v[2]/[5]"))
        code = main(["verify", "--instance", str(tampered)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestSolverCommands:
    def test_exact_on_file(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["generate", "--family", "saks", "--params", "r=2,k=2", "--out", str(inst_file)])
        code = main(["exact", "--instance", str(inst_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == "3/1"

    def test_lp_on_family(self, capsys):
        code = main(["lp", "--family", "saks", "--params", "r=2,k=2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lp_value"] == "2/1"

    def test_interdict(self, capsys):
        code = main(
            [
                "interdict",
                "--family",
                "dict-e",
                "--params",
                "a=4,b=3,r=2,R=1",
                "--budget",
                "15/8",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_distance"] >= 8

    def test_rmfc_harmonic(self, capsys):
        code = main(
            ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100", "--q", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target_burnt"] is False

    def test_rmfc_search_small_tree(self, tmp_path, capsys):
        from fractions import Fraction

        from cutlab.graphs import (
            CutInstance,
            Rmfc,
            WeightedGraph,
            instance_to_json_str,
        )

        g = WeightedGraph()
        g.add_node("s")
        g.add_node("a", Fraction(1))
        g.add_node("t")
        g.add_edge("s", "a", directed=False)
        g.add_edge("a", "t", directed=False)
        inst = CutInstance(graph=g, mode="vertex", problem=Rmfc("s", frozenset({"t"})))
        path = tmp_path / "fire.json"
        path.write_text(instance_to_json_str(inst))
        code = main(["rmfc", "--instance", str(path), "--search-budget", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["savable"] is True

    def test_rmfc_zero_budget_burns_connected_instance(self, tmp_path, capsys):
        from fractions import Fraction

        from cutlab.graphs import (
            CutInstance,
            Rmfc,
            WeightedGraph,
            instance_to_json_str,
        )

        g = WeightedGraph()
        g.add_node("s")
        g.add_node("a", Fraction(1))
        g.add_node("t")
        g.add_edge("s", "a", directed=False)
        g.add_edge("a", "t", directed=False)
        inst = CutInstance(graph=g, mode="vertex", problem=Rmfc("s", frozenset({"t"})))
        path = tmp_path / "fire.json"
        path.write_text(instance_to_json_str(inst))
        code = main(["rmfc", "--instance", str(path), "--search-budget", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["savable"] is False


class TestGapTable:
    def test_csv_shape_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gap-table", "--family", "saks", "--params", "k=2,r=2..3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "family,params,lp_value,integral_value,gap,wall_ms"
        assert lines[1] == "saks,k=2;r=2,2/1,3/1,3/2,0"
        assert lines[2] == "saks,k=2;r=3,3/1,5/1,5/3,0"

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = main(
            ["gap-table", "--family", "saks", "--params", "k=2,r=3..2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().strip() == "family,params,lp_value,integral_value,gap,wall_ms"

    def test_dict_e_bound_sweep_monotone(self, tmp_path):
        from fractions import Fraction

        out = tmp_path / "edge.csv"
        code = main(
            [
                "gap-table",
                "--family",
                "dict-e",
                "--params",
                "a=2,b=2..4,r=2,R=1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        costs = [Fraction(r.split(",")[3]) for r in rows]
        assert costs == sorted(costs)


class TestGammaAndCorrelation:
    def test_gamma_value(self, capsys):
        code = main(["gamma", "--rho", "0.5", "--a", "0.5", "--b", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["gamma"] - 1 / 6) < 1e-4

    def test_correlation_edge_family(self, capsys):
        code = main(["correlation", "--family", "edge", "--params", "r=2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["rho"] - 0.5) < 1e-6

    def test_correlation_star_family(self, capsys):
        code = main(["correlation", "--family", "star", "--params", "r=2,eps=1/4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho"] <= doc["connectedness_bound"] + 1e-9
        assert doc["alpha"] == "1/16"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegistry:
    # generate params per test, with the verify stdout the dictator cut
    # prints at every coordinate q <= R
    VERIFIED = {
        "dict-m": (
            "r=3,k=2,R=2,eps=1/10",
            'PASS  cut weight = 18/5\nPASS  every pair disconnected\n{"cost": "18/5"}\n',
        ),
        "dict-e": (
            "a=2,b=3,r=2,R=2",
            "PASS  cut weight <= 3/1\nPASS  post-cut distance >= 4\n"
            '{"cost": "15/8", "dist": 7}\n',
        ),
        "dict-v": (
            "a=2,b=3,r=3,R=2,eps=1/20",
            "PASS  cut weight = 22/15\nPASS  post-cut distance >= 4\n"
            '{"cost": "22/15", "dist": 7}\n',
        ),
        "dict-f": (
            "b=2,R=1,eps=1/100",
            "PASS  per-day cost <= 103/150\nPASS  target never burnt\n"
            '{"per_day": ["67/100", "17/25"]}\n',
        ),
    }

    def test_family_choices_are_registry_keys(self):
        from cutlab import gadgets
        from cutlab.cli import build_parser

        parser = build_parser()
        subs = next(a for a in parser._actions if a.dest == "command").choices
        for name in ("generate", "verify", "lp", "exact", "approx", "interdict", "rmfc", "gap-table"):
            family = next(a for a in subs[name]._actions if a.dest == "family")
            assert family.choices == sorted(gadgets.FAMILIES)
        assert set(gadgets.FAMILIES) == {"saks", "dict-m", "dict-e", "dict-v", "dict-f"}

    @pytest.mark.parametrize("family", sorted(VERIFIED))
    def test_verify_instance_matches_verify_family(self, family, tmp_path, capsys):
        params, expected = self.VERIFIED[family]
        path = tmp_path / "inst.json"
        assert main(["generate", "--family", family, "--params", params, "--out", str(path)]) == 0
        coords = ["1", "2"] if "R=2" in params else ["1"]
        for q in coords:
            by_family = run_cli(capsys, ["verify", "--family", family, "--params", params, "--q", q])
            by_file = run_cli(capsys, ["verify", "--instance", str(path), "--q", q])
            assert by_family == by_file == (0, expected, "")
        code, out, err = run_cli(capsys, ["verify", "--instance", str(path), "--q", "3"])
        assert (code, out) == (1, "") and "CoordinateOutOfRange" in err

    def test_rmfc_instance_resolves_family_from_provenance(self, tmp_path, capsys):
        params = "b=3,R=1,eps=1/1000"
        path = tmp_path / "fire.json"
        main(["generate", "--family", "dict-f", "--params", params, "--out", str(path)])
        by_family = run_cli(capsys, ["rmfc", "--family", "dict-f", "--params", params, "--q", "1"])
        by_file = run_cli(capsys, ["rmfc", "--instance", str(path), "--q", "1"])
        assert by_file == by_family
        doc = json.loads(by_file[1])
        assert doc["per_day_cost"] == ["1201/2200", "752/1375", "6027/11000"]
        assert doc["target_burnt"] is False


class TestMalformedInput:
    def test_missing_param_named(self, capsys):
        code, out, err = run_cli(capsys, ["generate", "--family", "dict-v", "--params", "a=2"])
        assert (code, out) == (1, "")
        assert "ParamOutOfRange" in err and "b, r, R, eps" in err

    def test_provenance_missing_param_named(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20", "--out", str(path)])
        doc = json.loads(path.read_text())
        del doc["provenance"]["params"]["eps"]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["verify", "--instance", str(path)])
        assert (code, out) == (1, "")
        assert "ParamOutOfRange" in err and "eps" in err

    def test_gap_table_unknown_param_rejected(self, capsys):
        argv = ["gap-table", "--family", "saks", "--params", "r=2,k=2,zzz=9"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert "ParamOutOfRange" in err and "zzz" in err

    def test_gap_table_on_fire_family_fails_per_row(self, capsys):
        argv = ["gap-table", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out.splitlines()[1:] == [
            "dict-f,R=1;b=2;eps=1/100,error,error,error:WrongProblemType,0"
        ]

    @pytest.mark.parametrize(
        "family, params, missing", [("edge", "", "r"), ("star", "r=3", "eps")]
    )
    def test_correlation_missing_param_named(self, family, params, missing, capsys):
        argv = ["correlation", "--family", family, "--params", params]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert f"ParamOutOfRange: missing parameter(s) {missing}" in err

    def test_interdict_needs_length_bound(self, capsys):
        argv = ["interdict", "--family", "saks", "--params", "r=2,k=2", "--budget", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert "length-bound" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("mode",), None),
            (("nodes",), {}),
            (("edges", 0, "length"), "1"),
            (("edges", 0, "directed"), 0),
            (("nodes", 0, "weight"), [1]),
            (("problem", "pairs"), [["s1"]]),
            (("problem",), None),
        ],
        ids=["no-mode", "nodes-object", "length-str", "directed-int", "weight-list",
             "short-pair", "no-problem"],
    )
    def test_malformed_instance_exits_1(self, path, value, tmp_path, capsys):
        # value None deletes the field at path
        inst = tmp_path / "inst.json"
        main(["generate", "--family", "saks", "--params", "r=2,k=2", "--out", str(inst)])
        doc = json.loads(inst.read_text())
        *parents, last = path
        owner = doc
        for key in parents:
            owner = owner[key]
        if value is None:
            del owner[last]
        else:
            owner[last] = value
        inst.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["exact", "--instance", str(inst)])
        assert (code, out) == (1, "")
        assert "MalformedInstance" in err
