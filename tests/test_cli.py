import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cutlab
import helpers
from cutlab import cli, gadgets
from cutlab.cli import CSV_HEADER, main, parse_params


class TestParseParams:
    def test_values_and_fractions(self):
        from fractions import Fraction

        parsed = parse_params("r=3,k=2,eps=1/20")
        assert parsed == {"r": 3, "k": 2, "eps": Fraction(1, 20)}

    def test_range_expansion(self):
        parsed = parse_params("k=2,r=2..4", ranges=True)
        assert parsed == {"k": 2, "r": [2, 3, 4]}

    @pytest.mark.parametrize(
        "text, ranges, message",
        [
            ("r=2,a=x", False, "parameter a = x is not a rational"),
            ("r=2,k=2,r=3", False, "parameter r given more than once"),
            ("r=2..3,k=2,r=4", True, "parameter r given more than once"),
            ("k=2,r=4..2", True, "range r=4..2 is empty"),
        ],
        ids=["not-rational", "repeated", "repeated-range", "empty-range"],
    )
    def test_bad_values_name_the_key(self, text, ranges, message):
        from cutlab.errors import ParamOutOfRange

        with pytest.raises(ParamOutOfRange) as info:
            parse_params(text, ranges=ranges)
        assert str(info.value) == message


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

    def test_decimal_eps_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--family", "dict-v", "--params"]
        assert main(argv + ["a=2,b=3,r=3,R=2,eps=0.05", "--out", str(a)]) == 0
        assert main(argv + ["a=2,b=3,r=3,R=2,eps=1/20", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_size_guard_surfaced(self, monkeypatch, capsys):
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_NODES", 100)
        code = main(["generate", "--family", "saks", "--params", "r=8,k=7"])
        assert code == 1
        err = capsys.readouterr().err
        assert "SizeGuard" in err and "2097166" in err

    @pytest.mark.parametrize(
        "command", ["generate", "verify", "lp", "exact", "approx", "interdict", "rmfc", "gap-table"]
    )
    def test_max_nodes_is_not_an_option(self, command, capsys):
        # the node cap is the module constant gadgets.DEFAULT_MAX_NODES
        argv = [command, "--family", "saks", "--params", "r=2,k=2", "--max-nodes", "10"]
        if command == "interdict":
            argv += ["--budget", "1"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --max-nodes 10" in capsys.readouterr().err

    def test_max_nodes_default_read_at_call_time(self, monkeypatch, capsys):
        argv = ["generate", "--family", "saks", "--params", "r=3,k=2"]
        # the first call builds the parser; the cap it uses is read later
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_NODES", 10)
        assert run_cli(capsys, argv) == (
            1, "", "error: SizeGuard: instance would have 13 nodes (cap 10)\n"
        )

    @pytest.mark.parametrize(
        "family, params",
        [
            ("saks", "r=2,k=10000000"),
            ("dict-m", "r=2,k=2,R=10000000,eps=1/5"),
            ("dict-e", "a=1,b=1,r=2,R=10000000"),
            ("dict-v", "a=1,b=1,r=2,R=10000000,eps=1/5"),
            ("dict-f", "b=1,R=10000000,eps=1/3"),
        ],
    )
    def test_huge_exponent_refused_before_the_power(self, family, params, capsys):
        """An exponent past the node cap's bit length refuses the build
        before the power is computed. Computing 3^(10^7) alone takes
        seconds, and its 4.8 million digits could not be printed."""
        argv = ["generate", "--family", family, "--params", params]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: SizeGuard: instance would have over 200000 nodes (cap 200000)\n"

    def test_fire_depth_refused_before_the_alphabet(self, monkeypatch, capsys):
        """B = b! * sum_i b!/i has about b log b digits, so the depth cap is
        checked before B is computed, which takes seconds at b = 50000."""

        def unbuilt(b):
            raise AssertionError("the fire alphabet size was computed")

        monkeypatch.setattr(cutlab.gadgets, "fire_alphabet_size", unbuilt)
        argv = ["generate", "--family", "dict-f", "--params", "b=50000,R=1,eps=1/3"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: SizeGuard: b = 50000 exceeds depth cap 4\n"


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
        # dict-f at b >= 2 lists s -> v[1] and v[b] -> t apart, as the blow-up
        # of its gap path does; the edge multiset is unchanged (see below)
        ("dict-f", "b=2,R=1,eps=1/100"): "7f89f95150d52415bcc9bf856eda05adeee3e92ee8cd3314b2547e78285113f2",
        ("dict-f", "b=3,R=1,eps=1/1000"): "026b229ef089481da025bcc3298a3366eff3fd70687497eeed8a3f43be2ad6eb",
        ("dict-f", "b=2,R=2,eps=1/100"): "29e13f0fdbcc2686740181188b6e41268d8f7331e346edc56182eefeb9770ee3",
        # corner cases: one pair, five pairs, one coordinate, a single
        # short-edge block, b = r - 2, and one fire layer (first = last)
        ("saks", "r=3,k=1"): "2fc7d302b2d609c6f7e9ca0fcdc8977cebfa1abdbc9d09b1d8d90f27072ae247",
        ("saks", "r=2,k=5"): "4bfbe56cd11b5f670298d9ca5fe822a0e933b72629ed84eb0ef58e27e70446ee",
        ("dict-m", "r=2,k=2,R=1,eps=1/5"): "edd157d56f03d07f1395f375b936e423c173bee6afce1144ada0cda5368badab",
        ("dict-e", "a=1,b=2,r=3,R=2"): "0b501891365a067109b2c05a787d84345001dfb79cba6677a56370471aebe13d",
        ("dict-e", "a=3,b=1,r=2,R=2"): "761ddef315e4a6b6c64f5a485319517a9e616aedf8ddfa7ea0006e9cfee4ebd0",
        ("dict-v", "a=3,b=1,r=3,R=2,eps=1/7"): "aedc0f56bcffcd7be17e2d3ef242d41d13ad44d4a374d2e353a40ce0724ecbf9",
        ("dict-f", "b=1,R=2,eps=1/3"): "71daef92c08caca0567980282b29e85ba0c45c4bf1c550c2963655544c8c8097",
    }

    # SHA-256 of the re-pinned files' edge entries, each as sorted-key JSON,
    # sorted, and of everything but the edges, both recorded while these
    # files still interleaved the end edges: only the edge order moved
    FROZEN_SORTED_EDGES_SHA256 = {
        ("dict-f", "b=2,R=1,eps=1/100"): (
            "b7474e8b08e136de115c8507e96879bd59fe8e662c1dd9a9d51e293fac244540",
            "9c2739c7d96cb252da3fe8385c3de3860792815f10f2f29db732a930428e3507",
        ),
        ("dict-f", "b=3,R=1,eps=1/1000"): (
            "5d98eed4904e90b8a81e8497695056b75a6130493f53b83b64532a7c7c96cbd0",
            "b8aa25ed7d505df5658709b3f011de415fd03b150c3b5406d085bd23fc8b0825",
        ),
        ("dict-f", "b=2,R=2,eps=1/100"): (
            "c2e24ff32e1fe1cbd33e4215fd6b56f01f27ae268f08ef494a524d80bdadfafc",
            "496ce12e241620b3649a7d6b6d0ef65e2bc3a63cf5d1423ec2d77b25c21c537e",
        ),
    }

    @pytest.mark.parametrize("family, params", sorted(FROZEN_SHA256))
    def test_output_bytes_frozen(self, family, params, capsys):
        assert main(["generate", "--family", family, "--params", params]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.FROZEN_SHA256[(family, params)]

    @pytest.mark.parametrize("family, params", sorted(FROZEN_SORTED_EDGES_SHA256))
    def test_repinned_files_keep_their_edge_multiset(self, family, params, capsys):
        assert main(["generate", "--family", family, "--params", params]) == 0
        doc = json.loads(capsys.readouterr().out)
        edges = sorted(json.dumps(e, sort_keys=True) for e in doc.pop("edges"))
        digests = (
            hashlib.sha256("\n".join(edges).encode()).hexdigest(),
            hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        )
        assert digests == self.FROZEN_SORTED_EDGES_SHA256[(family, params)]


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


# edits of a generated file: its first weighted node made uncuttable, or
# its first weighted edge led into the sink t
def uncuttable_node(doc):
    next(nd for nd in doc["nodes"] if nd["weight"] is not None)["weight"] = None


def edge_into_sink(doc):
    next(ed for ed in doc["edges"] if ed["weight"] is not None)["head"] = "t"


def composed_with_one_constraint(doc):
    """Replace the file by its test composed with a one-constraint instance."""
    from cutlab.graphs import instance_to_json_str
    from cutlab.ug import UGEdge, UniqueGamesInstance, compose

    kind, values = doc["provenance"]["generator"], doc["provenance"]["params"]
    params = gadgets.dictator_family(kind).params(values)
    ug = UniqueGamesInstance(["u0"], ["w0"], params.R, [UGEdge("u0", "w0", tuple(range(params.R)))])
    doc.update(json.loads(instance_to_json_str(compose(ug, kind, params))))


# the dictator schedule of dict-f b=2 R=1 at q=1: B = 6, B_1 = 4
DAY_ONE = ["v[1]/[*]", "v[1]/[1]", "v[1]/[2]", "v[1]/[3]", "v[1]/[4]"]
DAY_TWO = ["v[2]/[*]", "v[2]/[5]", "v[2]/[6]"]


class TestSolverCommands:
    def test_exact_on_file(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["generate", "--family", "saks", "--params", "r=2,k=2", "--out", str(inst_file)])
        code = main(["exact", "--instance", str(inst_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == "3/1"

    def test_exact_on_length_bound_family(self, capsys):
        code, out, err = run_cli(capsys, ["exact", "--family", "dict-e", "--params", "a=4,b=3,r=2,R=1"])
        assert (code, err) == (0, "")
        # one block of short edges, the optimum of the subset enumeration
        expected = {"cost": "1/1", "elements": ["12", "13", "14", "15"], "verified": True}
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        inst = gadgets.build_dict_edge(gadgets.DictParamsE(4, 3, 2, 1))
        assert helpers.brute_force_min_cut(inst).cost == 1

    def test_approx_on_multicut_family(self, capsys):
        code, out, err = run_cli(capsys, ["approx", "--family", "saks", "--params", "r=3,k=2"])
        assert (code, err) == (0, "")
        # the two pairs' slab cuts of 3 nodes each share one node: 5 nodes,
        # the optimum r^k - (r-1)^k
        assert json.loads(out) == {"algorithm": "per-pair-cuts", "cost": "5/1"}

    @pytest.mark.parametrize(
        "days, code, burnt, costs, simulated",
        [
            ([DAY_ONE, DAY_TWO], 0, False, ["67/100", "17/25"], 2),
            # the fire spreads until it has no unburnt neighbour left
            ([DAY_ONE], 1, True, ["67/100"], 5),
        ],
        ids=["both-days", "first-day-only"],
    )
    def test_rmfc_schedule_file(self, days, code, burnt, costs, simulated, tmp_path, capsys):
        """The dictator schedule of dict-f b=2 at q=1, read from a file: its
        costs are summed from the graph's node weights."""
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"days": days}))
        argv = ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100", "--schedule", str(path)]
        got, out, err = run_cli(capsys, argv)
        assert (got, err) == (code, "")
        assert json.loads(out) == {
            "days_simulated": simulated, "per_day_cost": costs, "target_burnt": burnt
        }

    def test_lp_on_family(self, capsys):
        code = main(["lp", "--family", "saks", "--params", "r=2,k=2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lp_value"] == "2/1"

    @pytest.mark.parametrize(
        "family, params, budget, expected",
        [
            # the climb's last cut costs exactly the budget
            ("dict-e", "a=4,b=3,r=2,R=1", "13/8",
             {"best_distance": 11, "cut_cost": "13/8",
              "elements": ["12", "13", "15", "18", "19", "7", "9"]}),
            ("dict-e", "a=4,b=3,r=2,R=1", "3/2",
             {"best_distance": 8, "cut_cost": "1/1",
              "elements": ["12", "13", "14", "15"]}),
            # the budget is W, the cost of every cuttable element
            ("dict-e", "a=4,b=3,r=2,R=1", "3",
             {"best_distance": 14, "cut_cost": "3/1",
              "elements": ["12", "13", "14", "15", "18", "19", "20", "21",
                           "6", "7", "8", "9"]}),
            # every cuttable element: s and t disconnected
            ("dict-v", "a=4,b=4,r=3,R=1,eps=1/20", "100",
             {"best_distance": None, "cut_cost": "5/1",
              "elements": [f"v[{i}]/[{x}]" for i in range(5) for x in "*012"]}),
        ],
        ids=["dict-e-at-cut", "dict-e-under-cut", "dict-e-at-W", "dict-v-disconnect"],
    )
    def test_interdict(self, family, params, budget, expected, capsys):
        argv = ["interdict", "--family", family, "--params", params, "--budget", budget]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("lp", {"lp_value": "5/2", "support": {"1": "1/1", "2": "1/1"}}),
            ("approx", {"algorithm": "threshold-rounding", "cost": "5/2", "lp_value": "5/2"}),
        ],
        ids=["lp", "approx"],
    )
    def test_huge_length_bound_in_a_file(self, command, expected, tmp_path, capsys):
        # the reader takes any integer bound; the length-layered DP stops at
        # the total edge length, 7 here, past which no path is simple
        doc = {
            "edges": [
                {"tail": "s", "head": "a", "directed": True, "length": 1, "weight": "1"},
                {"tail": "a", "head": "t", "directed": True, "length": 2, "weight": "1/2"},
                {"tail": "s", "head": "t", "directed": True, "length": 4, "weight": "2"},
            ],
            "mode": "edge",
            "nodes": [{"id": v, "weight": None} for v in "sat"],
            "problem": {"type": "length_bound", "s": "s", "t": "t", "bound": 10**12},
        }
        path = tmp_path / "huge-bound.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, "--instance", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == expected

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

    @pytest.mark.parametrize(
        "family, params",
        [("saks", "k=2,r=2..3"), ("dict-e", "a=1..2,b=1,r=2,R=1"), ("dict-f", "b=1..2,R=1,eps=1/100")],
    )
    def test_timings_fill_only_the_wall_column(self, family, params, capsys):
        # --timings writes each row's wall time in whole milliseconds, error
        # rows too; every other cell is the run's without the flag
        argv = ["gap-table", "--family", family, "--params", params]
        plain, timed = run_cli(capsys, argv), run_cli(capsys, argv + ["--timings"])
        assert plain[0] == timed[0] and plain[2] == timed[2] == ""
        plain_rows = [line.split(",") for line in plain[1].splitlines()]
        timed_rows = [line.split(",") for line in timed[1].splitlines()]
        assert timed_rows[0] == plain_rows[0] == CSV_HEADER.split(",")
        assert len(timed_rows) == len(plain_rows) == 3
        for plain_row, timed_row in zip(plain_rows[1:], timed_rows[1:]):
            assert timed_row[:-1] == plain_row[:-1] and plain_row[-1] == "0"
            assert timed_row[-1].isdigit() and int(timed_row[-1]) >= 0

    def test_empty_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        argv = ["gap-table", "--family", "saks", "--params", "k=2,r=3..2", "--out", str(out)]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert err == "error: ParamOutOfRange: range r=3..2 is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, rows",
        [
            ("k=2,r=2..2000000000", 1999999999),
            ("k=2..100000,r=2..100000", 99999**2),
            ("k=2,r=2..10000000000000000000000", 9999999999999999999999),
        ],
        ids=["one-range", "product", "past-maxsize"],
    )
    def test_row_cap_refuses_before_listing(self, params, rows, monkeypatch, capsys):
        import cutlab.cli

        def no_list(*args):
            raise AssertionError("a range was listed")

        # neither a range nor a row may be made before the refusal
        monkeypatch.setattr(cutlab.cli, "list", no_list, raising=False)
        monkeypatch.setattr(cutlab.lp, "gap_report", no_list)
        argv = ["gap-table", "--family", "saks", "--params", params]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        cap = cutlab.cli.GAP_TABLE_ROW_CAP
        assert err == f"error: SizeGuard: gap table would have {rows} rows (cap {cap})\n"

    def test_row_cap_admits_the_cap(self, monkeypatch, capsys):
        import cutlab.cli

        monkeypatch.setattr(cutlab.cli, "GAP_TABLE_ROW_CAP", 4)
        ok = ["gap-table", "--family", "dict-e", "--params", "a=1..2,b=1..2,r=2,R=1"]
        assert run_cli(capsys, ok)[0] == 0
        over = ["gap-table", "--family", "dict-e", "--params", "a=1..5,b=1,r=2,R=1"]
        assert run_cli(capsys, over)[:2] == (1, "")

    def test_saks_rows_over_the_search_cap_are_not_built(self, monkeypatch, capsys):
        """Past r=3 at k=3 the exact search's cap refuses every row, so
        r=4..1001 print SizeGuard without a build; one such build takes
        seconds at r=58."""
        built = []
        real = cutlab.gadgets.build_saks_gap

        def counted(r, k, **kwargs):
            built.append(r)
            return real(r, k, **kwargs)

        monkeypatch.setattr(cutlab.gadgets, "build_saks_gap", counted)
        argv = ["gap-table", "--family", "saks", "--params", "k=3,r=3..1001"]
        code, out, err = run_cli(capsys, argv)
        refused = [f"saks,k=3;r={r},error,error,error:SizeGuard,0" for r in range(4, 1002)]
        assert (code, err) == (1, "")
        assert out.split("\n") == [
            "family,params,lp_value,integral_value,gap,wall_ms",
            "saks,k=3;r=3,9/1,19/1,19/9,0",
            *refused,
            "",
        ]
        assert set(built) == {3}

    def test_dict_m_rows_over_the_search_cap_are_not_built(self, monkeypatch, capsys):
        """dict-m r=3,k=2,R=2 has 3^2 * 4^2 = 144 cuttable nodes, over the
        exact search's cap of 40, so its row is refused unbuilt."""
        built = []
        real = cutlab.gadgets.build_dict_multicut

        def counted(p, **kwargs):
            built.append(p)
            return real(p, **kwargs)

        monkeypatch.setattr(cutlab.gadgets, "build_dict_multicut", counted)
        argv = ["gap-table", "--family", "dict-m", "--params", "r=2..3,k=2,R=2,eps=1/10"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (1, "")
        assert out.split("\n") == [
            "family,params,lp_value,integral_value,gap,wall_ms",
            "dict-m,R=2;eps=1/10;k=2;r=2,2/1,11/5,11/10,0",
            "dict-m,R=2;eps=1/10;k=2;r=3,error,error,error:SizeGuard,0",
            "",
        ]
        assert [p.r for p in built] == [2]

    def test_fire_rows_are_not_built(self, monkeypatch, capsys):
        """The gap report covers multicut and length bound only, so dict-f
        rows are refused before the build; b=4 took 151 ms to build."""
        built = []
        real = cutlab.gadgets.build_dict_rmfc

        def counted(p, **kwargs):
            built.append(p)
            return real(p, **kwargs)

        monkeypatch.setattr(cutlab.gadgets, "build_dict_rmfc", counted)
        argv = ["gap-table", "--family", "dict-f", "--params", "b=4,R=1..2,eps=1/100000"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (1, "")
        assert out.split("\n") == [
            "family,params,lp_value,integral_value,gap,wall_ms",
            "dict-f,R=1;b=4;eps=1/100000,error,error,error:WrongProblemType,0",
            "dict-f,R=2;b=4;eps=1/100000,error,error,error:WrongProblemType,0",
            "",
        ]
        assert built == []

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


class TestExactSearchFrozen:
    """``exact`` and ``gap-table`` print the bytes they printed before the
    search pruned by declared symmetries, elements included."""

    # SHA-256 of ``exact --family saks`` stdout, recorded without pruning
    EXACT_SHA256 = {
        "r=2,k=2": "e32858b937495218f2d3a1fa44720b0f4e4e2b916de64008d061846787368d73",
        "r=3,k=2": "0fd7e66fc109f272dae3a986cd985c22d8f40a5e75d54326fdcb91ec743870ee",
        "r=4,k=2": "4037626b64e953db52bfdfbb1a3c615d5626e67a92f253520cfa806fece775af",
        "r=5,k=2": "872558c850afdc3d89d4909730cdcb3210efb776bb66f6b08458c675a13c6392",
        "r=6,k=2": "38442443ddcb626ebbc6f9610e46f21d208933d6ab83cf7cc70cf995596e588d",
        "r=2,k=3": "fc80585b1c04067844e5f903616add9b5c69ade080978bcc09baa6fda21e1376",
        "r=3,k=3": "4f96e698d27a485b251814cf512bff27a9978439dbb57f0816a30787bf9ca3a6",
        "r=2,k=4": "6e553825e65f4c2da546f419e799cc353c3a0162fbefa35eeffa212bfb70e71a",
        "r=2,k=5": "e6421be65fd84fd4cfd6924af1973128b69ef20b0c7a0f06d97645fefae83696",
    }
    GAP_TABLES = {
        ("saks", "k=2,r=2..5"): [
            "saks,k=2;r=2,2/1,3/1,3/2,0",
            "saks,k=2;r=3,3/1,5/1,5/3,0",
            "saks,k=2;r=4,4/1,7/1,7/4,0",
            "saks,k=2;r=5,5/1,9/1,9/5,0",
        ],
        ("saks", "k=3,r=2..3"): [
            "saks,k=3;r=2,4/1,7/1,7/4,0",
            "saks,k=3;r=3,9/1,19/1,19/9,0",
        ],
        ("dict-m", "r=2,k=2,R=1..2,eps=1/5"): [
            "dict-m,R=1;eps=1/5;k=2;r=2,2/1,12/5,6/5,0",
            "dict-m,R=2;eps=1/5;k=2;r=2,2/1,12/5,6/5,0",
        ],
        ("dict-m", "r=2,k=3,R=1,eps=1/5"): ["dict-m,R=1;eps=1/5;k=3;r=2,4/1,24/5,6/5,0"],
        ("dict-m", "r=3,k=2,R=1,eps=1/10"): ["dict-m,R=1;eps=1/10;k=2;r=3,3/1,18/5,6/5,0"],
    }

    @pytest.mark.parametrize("params", sorted(EXACT_SHA256))
    def test_exact_bytes(self, params, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--family", "saks", "--params", params])
        assert code == 0
        r, k = (int(part.split("=")[1]) for part in params.split(","))
        assert json.loads(out)["cost"] == f"{r**k - (r - 1) ** k}/1"
        assert hashlib.sha256(out.encode()).hexdigest() == self.EXACT_SHA256[params]

    @pytest.mark.parametrize("family, params", sorted(GAP_TABLES))
    def test_gap_table_bytes(self, family, params, capsys):
        code, out, _ = run_cli(capsys, ["gap-table", "--family", family, "--params", params])
        assert code == 0
        rows = self.GAP_TABLES[(family, params)]
        assert out == "\n".join(["family,params,lp_value,integral_value,gap,wall_ms", *rows]) + "\n"

    def test_instance_file_same_bytes(self, tmp_path, capsys):
        path = tmp_path / "saks.json"
        argv = ["generate", "--family", "saks", "--params", "r=5,k=2", "--out", str(path)]
        assert main(argv) == 0
        code, out, _ = run_cli(capsys, ["exact", "--instance", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.EXACT_SHA256["r=5,k=2"]

    def test_tampered_file_is_searched_in_full(self, tmp_path, capsys):
        # the file keeps saks provenance but loses the arc v[3,1] -> t1, so
        # the saks group no longer holds. Pruned with it, the search would
        # answer 5; the optimum is brute force's 4
        from cutlab.graphs import instance_from_json_str
        from helpers import brute_force_min_cut

        path = tmp_path / "saks.json"
        argv = ["generate", "--family", "saks", "--params", "r=3,k=2", "--out", str(path)]
        assert main(argv) == 0
        doc = json.loads(path.read_text())
        doc["edges"] = [e for e in doc["edges"] if (e["tail"], e["head"]) != ("v[3,1]", "t1")]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["exact", "--instance", str(path)])
        assert code == 0
        assert brute_force_min_cut(instance_from_json_str(path.read_text())).cost == 4
        assert json.loads(out)["cost"] == "4/1"


class TestLengthSearchWork:
    """Calls of ``find_violating_path`` by the length-bound branch and bound
    and the answers printed. The gap-table counts were recorded before the
    min-hop search skipped dominated (node, length) states, which left the
    search tree unchanged. The interdict counts were recorded once each
    climb round's search was capped at the budget, which prunes cuts the
    climb cannot use and leaves every answer as it was. Each child now
    inherits its parent's disjoint-path bound, which cuts the five counts
    from 69, 88, 261, 152 and 703 and leaves every answer as it was."""

    CASES = [
        (["gap-table", "--family", "dict-e", "--params", "a=4,b=3,r=2,R=1"], 43,
         "dict-e,R=1;a=4;b=3;r=2,1/1,1/1,1/1,0"),
        (["gap-table", "--family", "dict-e", "--params", "a=6,b=3,r=2,R=1"], 85,
         "dict-e,R=1;a=6;b=3;r=2,3/2,13/8,13/12,0"),
        (["gap-table", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20"], 200,
         "dict-v,R=1;a=4;b=4;eps=1/20;r=3,1/1,1/1,1/1,0"),
        (["interdict", "--family", "dict-e", "--params", "a=4,b=3,r=2,R=1",
          "--budget", "15/8"], 124,
         {"best_distance": 11, "cut_cost": "13/8",
          "elements": ["12", "13", "15", "18", "19", "7", "9"]}),
        (["interdict", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20",
          "--budget", "3/2"], 533,
         {"best_distance": 12, "cut_cost": "1/1",
          "elements": ["v[1]/[*]", "v[1]/[0]", "v[1]/[1]", "v[1]/[2]"]}),
    ]

    @pytest.mark.parametrize(
        "argv, calls, answer", CASES,
        ids=["gap-dict-e-a4", "gap-dict-e-a6", "gap-dict-v", "interdict-dict-e",
             "interdict-dict-v"],
    )
    def test_oracle_calls_and_answer(self, argv, calls, answer, monkeypatch, capsys):
        made = [0]
        oracle = cutlab.solvers.find_violating_path

        def counted(search):
            made[0] += 1
            return oracle(search)

        monkeypatch.setattr(cutlab.solvers, "find_violating_path", counted)
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        if argv[0] == "gap-table":
            assert out == "\n".join([CSV_HEADER, answer]) + "\n"
        else:
            assert out == json.dumps(answer, indent=2, sort_keys=True) + "\n"
        assert made[0] == calls


class TestGammaAndCorrelation:
    def test_package_runs_without_numpy(self):
        # a fresh interpreter in which importing numpy fails: the package
        # imports, and gamma and correlation run for every family
        argvs = [
            ["gamma", "--rho", "0.5", "--a", "0.5", "--b", "0.5"],
            ["correlation", "--family", "edge", "--params", "r=3"],
            ["correlation", "--family", "star", "--params", "r=3,eps=1/20"],
            ["correlation", "--family", "fire", "--params", "B=3,eps=1/20"],
        ]
        child = "\n".join(
            [
                "import sys",
                "sys.modules['numpy'] = None",
                "import cutlab, cutlab.cli, cutlab.ug",
                f"codes = [cutlab.cli.main(argv) for argv in {argvs!r}]",
                "sys.exit(0 if codes == [0] * len(codes) else 1)",
            ]
        )
        package_root = str(Path(cutlab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        gamma_line, *rest = proc.stdout.splitlines()
        assert abs(json.loads(gamma_line)["gamma"] - 0.1666666666666621) < 1e-12
        rhos = [line for line in rest if '"rho"' in line]
        assert rhos == ['  "rho": "2/3"', '  "rho": "19/20"', '  "rho": "19/20"']

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["gamma", "--rho", "0.5", "--a", "0.5", "--b", "0.5"], {"gamma": 0.1666666666666621}),
            (["gamma", "--rho", "0.3", "--a", "0.2", "--b", "0.7"], {"gamma": 0.10867888601682542}),
            (
                ["correlation", "--family", "edge", "--params", "r=2"],
                {"alpha": "1/8", "connectedness_bound": 0.9921875, "rho": "1/2"},
            ),
            (
                ["correlation", "--family", "star", "--params", "r=2,eps=1/4"],
                {"alpha": "1/16", "connectedness_bound": 0.998046875, "rho": "3/4"},
            ),
        ],
        ids=["gamma-half", "gamma-skew", "correlation-edge", "correlation-star"],
    )
    def test_values_as_recorded(self, capsys, argv, expected):
        # the quadrature's floats may differ in the last bits across math
        # libraries; rho and alpha are exact
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == sorted(expected)
        for key, value in expected.items():
            if isinstance(value, float):
                assert doc[key] == pytest.approx(value, rel=0, abs=1e-12)
            else:
                assert doc[key] == value

    def test_gamma_value(self, capsys):
        code = main(["gamma", "--rho", "0.5", "--a", "0.5", "--b", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["gamma"] - 1 / 6) < 1e-4

    def test_correlation_edge_family(self, capsys):
        code = main(["correlation", "--family", "edge", "--params", "r=2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert Fraction(doc["rho"]) == Fraction(1, 2)

    def test_correlation_star_family(self, capsys):
        code = main(["correlation", "--family", "star", "--params", "r=2,eps=1/4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert Fraction(doc["rho"]) <= doc["connectedness_bound"]
        assert doc["alpha"] == "1/16"


    @pytest.mark.parametrize(
        "family, params, expected",
        [
            (
                "edge",
                "r=100000",
                {"alpha": "1/1000000000000000", "connectedness_bound": 1.0, "rho": "99999/100000"},
            ),
            (
                "fire",
                "B=1000000,eps=1/1000000",
                {
                    "alpha": "999999/1000000000000000000",
                    "connectedness_bound": 1.0,
                    "rho": "999999/1000000",
                },
            ),
            (
                "star",
                "r=257,eps=1/1000",
                {"alpha": "1/1000000", "connectedness_bound": 0.9999999999995, "rho": "999/1000"},
            ),
        ],
        ids=["edge", "fire", "star-one-over"],
    )
    def test_large_sizes_build_no_space(self, family, params, expected, monkeypatch, capsys):
        # every number is a closed form: with each space builder patched to
        # raise, sizes far past any buildable space still print
        from cutlab import gadgets

        def unbuilt(*args):
            raise AssertionError("a space was built")

        for builder in (
            "edge_noise_space", "star_noise_space", "fire_noise_space", "starred_noise_space",
        ):
            monkeypatch.setattr(gadgets, builder, unbuilt)
        argv = ["correlation", "--family", family, "--params", params]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == expected

    @pytest.mark.parametrize(
        "family, params, label",
        [
            # alpha = 1/r^3, whose denominator has 4,498 digits
            ("edge", f"r={10**1499}", "parameter r"),
            # alpha = eps^2, whose denominator has 6,001 digits
            ("star", f"r=2,eps=1/{10**3000}", "parameters r, eps"),
        ],
        ids=["edge", "star"],
    )
    def test_alpha_past_the_print_limit_exits_1(self, family, params, label, capsys):
        # past the 4,300 digits that CPython converts from int to str, the
        # refusal names the parameters and the limit on one line
        code, out, err = run_cli(capsys, ["correlation", "--family", family, "--params", params])
        assert (code, out) == (1, "")
        assert err == (
            f"error: ParamOutOfRange: {label}: alpha or rho has more than 4300 digits\n"
        )


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

    def test_instance_only_where_read(self):
        from cutlab.cli import build_parser

        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        readers = {
            name for name, sub in subs.items() if any(a.dest == "instance" for a in sub._actions)
        }
        assert readers == {"verify", "lp", "exact", "approx", "interdict", "rmfc"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "saks", "--params", "r=2,k=2"],
            ["generate"],
            ["gap-table", "--family", "saks", "--params", "k=2,r=2"],
        ],
    )
    def test_instance_refused_where_unread(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--instance", str(tmp_path / "f.json")])
        assert info.value.code == 2
        assert "unrecognized arguments: --instance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, message",
        [("generate", "provide --family with --params"), ("exact", "provide --instance or")],
    )
    def test_missing_family_names_the_options(self, command, message, capsys):
        code, _, err = run_cli(capsys, [command])
        assert code == 1
        assert message in err

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

    def test_verify_needs_the_distance_from_params_not_the_file_bound(self, tmp_path, capsys):
        # a file's length bound is not trusted: with it edited down to 1,
        # the check still asks for the distance the params give
        params, expected = self.VERIFIED["dict-e"]
        path = tmp_path / "inst.json"
        main(["generate", "--family", "dict-e", "--params", params, "--out", str(path)])
        doc = json.loads(path.read_text())
        assert doc["problem"]["bound"] == 4
        doc["problem"]["bound"] = 1
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["verify", "--instance", str(path)])
        assert "PASS  post-cut distance >= 4\n" in out
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize(
        "family, params", [("dict-e", "a=1,b=1,r=2,R=1"), ("dict-v", "a=3,b=1,r=3,R=2,eps=1/7")]
    )
    def test_verify_needs_the_bound_at_the_floor(self, family, params, capsys):
        # at b = r - 1 (dict-e) and b = r - 2 (dict-v) a(b-r+1) and a(b-r+2)
        # are 0, and the build's bound is 1: the check asks for that 1
        code, out, err = run_cli(capsys, ["verify", "--family", family, "--params", params])
        assert (code, err) == (0, "")
        assert "PASS  post-cut distance >= 1\n" in out

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

    @pytest.mark.parametrize("raw", ["1/20..1/10", "1..2..3"])
    def test_gap_table_range_needs_integer_endpoints(self, raw, capsys):
        argv = ["gap-table", "--family", "dict-m", "--params", f"r=2,k=2,R=1,eps={raw}"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert f"ParamOutOfRange: range eps={raw}" in err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "dict-v", "--params", "a=4,b=4,r=3,R=1,eps=1/20"],
            ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100"],
        ],
        ids=["verify", "rmfc"],
    )
    @pytest.mark.parametrize("q", ["0", "2", "-1"])
    def test_q_outside_one_to_r_named(self, argv, q, capsys):
        code, out, err = run_cli(capsys, argv + ["--q", q])
        assert (code, out) == (1, "")
        assert err == f"error: CoordinateOutOfRange: --q = {q} outside 1..1\n"

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("edge", "r=2,eps=1/5,zzz=3", "unknown parameter(s) eps, zzz"),
            ("fire", "B=2,eps=1/5,r=2", "unknown parameter(s) r"),
            ("star", "r=3,eps=0", "need 0 < eps < 1"),
            ("star", "r=3,eps=1", "need 0 < eps < 1"),
            ("fire", "B=2,eps=-1/5", "need 0 < eps < 1"),
            ("edge", "r=0", "need r >= 1"),
            ("star", "r=-2,eps=1/5", "need r >= 1"),
            ("fire", "B=0,eps=1/5", "need B >= 1"),
        ],
        ids=["unknown", "unknown-size", "eps-0", "eps-1", "eps-negative", "r-0", "r-negative", "B-0"],
    )
    def test_correlation_params_refused(self, family, params, message, capsys):
        argv = ["correlation", "--family", family, "--params", params]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: ParamOutOfRange: {message}\n"

    def test_correlation_size_must_be_integer(self, capsys):
        argv = ["correlation", "--family", "star", "--params", "r=5/2,eps=1/4"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: ParamOutOfRange: parameter r = 5/2 is not an integer\n"

    @pytest.mark.parametrize(
        "command, family, params, edit, message",
        [
            (
                "verify", "dict-v", "a=1,b=1,r=2,R=1,eps=1/5", uncuttable_node,
                "RemovingUncuttable: the dictator rule takes uncuttable node 'v[0]/[*]'",
            ),
            (
                "verify", "dict-f", "b=1,R=1,eps=1/3", uncuttable_node,
                "RemovingUncuttable: the dictator rule takes uncuttable node 'v[1]/[*]'",
            ),
            (
                "rmfc", "dict-f", "b=1,R=1,eps=1/3", uncuttable_node,
                "RemovingUncuttable: the dictator rule takes uncuttable node 'v[1]/[*]'",
            ),
            (
                "verify", "dict-e", "a=2,b=1,r=2,R=1", edge_into_sink,
                "UnknownGenerator: cuttable edge 6 ends at a terminal",
            ),
            (
                "rmfc", "dict-f", "b=1,R=1,eps=1/3", lambda doc: doc.update(mode="edge"),
                "WrongProblemType: expected vertex mode for dict_rmfc, got edge",
            ),
            (
                "verify", "dict-e", "a=2,b=1,r=2,R=1", lambda doc: doc.update(mode="vertex"),
                "WrongProblemType: expected edge mode for dict_edge, got vertex",
            ),
            (
                "verify", "dict-v", "a=1,b=1,r=2,R=1,eps=1/5", lambda doc: doc.update(mode="edge"),
                "WrongProblemType: expected vertex mode for dict_vertex, got edge",
            ),
            (
                "verify", "dict-m", "r=2,k=2,R=1,eps=1/5", lambda doc: doc.update(mode="edge"),
                "WrongProblemType: expected vertex mode for dict_multicut, got edge",
            ),
            (
                "verify", "dict-v", "a=1,b=1,r=2,R=1,eps=1/5", composed_with_one_constraint,
                "UnknownGenerator: no dictator test of kind 'compose'",
            ),
            (
                "verify", "dict-v", "a=1,b=1,r=2,R=1,eps=1/5",
                lambda doc: doc["provenance"].update(generator=["dict_vertex"]),
                "UnknownGenerator: no dictator test of kind ['dict_vertex']",
            ),
            (
                "verify", "dict-e", "a=2,b=1,r=2,R=1",
                lambda doc: doc.update(problem={"type": "multicut", "pairs": [["s", "t"]]}),
                "WrongProblemType: expected a LengthBound problem, got Multicut",
            ),
        ],
        ids=[
            "dict-v", "dict-f", "dict-f-rmfc", "dict-e", "dict-f-edge-mode", "dict-e-vertex-mode",
            "dict-v-edge-mode", "dict-m-edge-mode", "composed", "generator-list", "dict-e-multicut",
        ],
    )
    def test_tampered_dictator_input_named(
        self, command, family, params, edit, message, tmp_path, capsys
    ):
        """A generated file edited so that the dictator rule of its
        provenance meets what no build of the family holds."""
        path = tmp_path / "inst.json"
        main(["generate", "--family", family, "--params", params, "--out", str(path)])
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, [command, "--instance", str(path)]) == (1, "", f"error: {message}\n")

    def test_interdict_needs_length_bound(self, capsys):
        argv = ["interdict", "--family", "saks", "--params", "r=2,k=2", "--budget", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert "length-bound" in err

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({}, "MalformedInstance: schedule lacks 'days'"),
            ({"days": "x"}, "MalformedInstance: schedule field 'days' has type str"),
            ({"days": ["x"]}, "MalformedInstance: schedule field 'days' must list"),
            ({"days": [[1]]}, "MalformedInstance: schedule day must list node ids"),
            ({"days": [["s"]]}, "RemovingUncuttable: cannot save uncuttable 's'"),
        ],
        ids=["no-days", "days-str", "day-str", "day-int", "save-source"],
    )
    def test_malformed_schedule_exits_1(self, schedule, message, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        argv = ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100",
                "--schedule", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_rmfc_negative_search_budget_exits_1(self, capsys):
        argv = ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100",
                "--search-budget", "-1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert "budget must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100",
              "--search-budget", "1/0"], "--search-budget"),
            (["interdict", "--family", "dict-e", "--params", "a=4,b=3,r=2,R=1",
              "--budget", "1/0"], "--budget"),
            (["generate", "--family", "dict-f", "--params", "b=2,R=1,eps=1/0"],
             "parameter eps"),
        ],
        ids=["search-budget", "budget", "params"],
    )
    def test_zero_denominator_exits_1(self, argv, name, capsys):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: ParamOutOfRange: {name} = 1/0 is not a rational\n"

    HUGE = "1e999999999"

    @pytest.mark.parametrize(
        "argv, name, raw",
        [
            (["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100",
              "--search-budget", HUGE], "--search-budget", HUGE),
            (["interdict", "--family", "dict-e", "--params", "a=2,b=3,r=2,R=1",
              "--budget", HUGE], "--budget", HUGE),
            (["generate", "--family", "dict-f", "--params", "b=2,R=1,eps=1e-999999999"],
             "parameter eps", "1e-999999999"),
            (["generate", "--family", "saks", "--params", f"r=2,k=-{HUGE}"],
             "parameter k", f"-{HUGE}"),
        ],
        ids=["search-budget", "budget", "params-tiny", "params-negative"],
    )
    def test_huge_exponent_exits_1(self, argv, name, raw, capsys):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: ParamOutOfRange: {name} = {raw} is not a rational\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["generate", "--family", "saks", "--params", f"r={'1' * 5000},k=2"],
             "parameter r"),
            (["generate", "--family", "dict-f", "--params", f"b=2,R=1,eps=1/{'3' * 4301}"],
             "parameter eps"),
            (["interdict", "--family", "dict-e", "--params", "a=2,b=3,r=2,R=1",
              "--budget", "7" * 4400], "--budget"),
            (["gap-table", "--family", "saks", "--params", f"k=2,r=2..{'1' * 5000}"],
             "parameter r"),
        ],
        ids=["params", "params-denominator", "budget", "range"],
    )
    def test_past_the_digit_limit_exits_1(self, argv, name, capsys):
        # the value is named, not echoed
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: ParamOutOfRange: {name} has more than 4300 digits\n"

    def test_huge_exponent_in_provenance_exits_1(self, tmp_path, capsys):
        path = tmp_path / "dict-e.json"
        main(["generate", "--family", "dict-e", "--params", "a=2,b=3,r=2,R=1",
              "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["provenance"]["params"]["a"] = f"-{self.HUGE}"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["verify", "--instance", str(path), "--q", "1"])
        assert (code, out) == (1, "")
        assert err == f"error: ParamOutOfRange: parameter a = '-{self.HUGE}' is not a rational\n"

    def test_huge_exponent_in_weight_exits_1(self, tmp_path, capsys):
        path = tmp_path / "saks.json"
        main(["generate", "--family", "saks", "--params", "r=2,k=2", "--out", str(path)])
        doc = json.loads(path.read_text())
        cuttable = next(nd for nd in doc["nodes"] if nd["weight"] is not None)
        cuttable["weight"] = self.HUGE
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["exact", "--instance", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: MalformedInstance: node weight '{self.HUGE}' is not a rational\n"

    def test_weight_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        # the weight is named, not echoed
        path = tmp_path / "saks.json"
        main(["generate", "--family", "saks", "--params", "r=2,k=2", "--out", str(path)])
        text = path.read_text()
        path.write_text(text.replace('"weight": "1/1"', f'"weight": "{"1" * 5000}"', 1))
        code, out, err = run_cli(capsys, ["exact", "--instance", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: MalformedInstance: node weight has more than 4300 digits\n"

    def test_exponent_budget_reads_as_fraction(self, capsys):
        argv = ["interdict", "--family", "dict-e", "--params", "a=2,b=3,r=2,R=1",
                "--budget"]
        got = run_cli(capsys, [*argv, "15e-1"])
        assert got[0] == 0 and got == run_cli(capsys, [*argv, "3/2"])

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


class TestUtf8Files:
    """Instance, schedule and ``--out`` files are read and written as UTF-8,
    as JSON requires, also where the locale's encoding is ASCII."""

    @staticmethod
    def document(problem):
        # a raw "é" as its node id: the file holds its two UTF-8 bytes
        return {
            "edges": [
                {"tail": "s", "head": "é", "directed": True, "length": 1, "weight": None},
                {"tail": "é", "head": "t", "directed": True, "length": 1, "weight": None},
            ],
            "mode": "vertex",
            "nodes": [
                {"id": "s", "weight": None},
                {"id": "é", "weight": "1"},
                {"id": "t", "weight": None},
            ],
            "problem": problem,
        }

    @staticmethod
    def write(path, doc):
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        assert "é".encode("utf-8") in path.read_bytes()
        return str(path)

    @staticmethod
    def run_in_ascii_locale(argv):
        package_root = str(Path(cutlab.__file__).resolve().parent.parent)
        return subprocess.run(
            [sys.executable, "-m", "cutlab.cli", *argv],
            capture_output=True,
            text=True,
            env={
                "LC_ALL": "C",
                "PYTHONUTF8": "0",
                "PYTHONCOERCECLOCALE": "0",
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
        )

    def test_exact_reads_a_raw_node_id(self, tmp_path):
        doc = self.document({"type": "multicut", "pairs": [["s", "t"]]})
        path = self.write(tmp_path / "i.json", doc)
        proc = self.run_in_ascii_locale(["exact", "--instance", path])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"cost": "1/1", "elements": ["é"], "verified": True}

    def test_rmfc_reads_a_raw_schedule_and_writes_out(self, tmp_path):
        # the instance escaped as the writer escapes it, so that only the
        # schedule holds raw bytes
        doc = self.document({"type": "rmfc", "source": "s", "targets": ["t"]})
        (tmp_path / "i.json").write_text(json.dumps(doc), encoding="ascii")
        out = tmp_path / "out.json"
        argv = [
            "rmfc",
            "--instance", str(tmp_path / "i.json"),
            "--schedule", self.write(tmp_path / "schedule.json", {"days": [["é"]]}),
            "--out", str(out),
        ]
        proc = self.run_in_ascii_locale(argv)
        assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
        assert json.loads(out.read_text(encoding="utf-8")) == {
            "days_simulated": 1,
            "per_day_cost": ["1/1"],
            "target_burnt": False,
        }


class TestParserOnce:
    """``main`` builds its parser at the first call and reuses it; a reused
    parser must answer every call as a fresh one would."""

    SEQUENCE = [
        (["generate", "--family", "saks", "--params", "r=2,k=2"], 0),
        (["lp", "--bogus"], 2),
        (["generate", "--family", "saks", "--params", "r=1,k=2"], 1),
        (["gap-table", "--family", "saks", "--params", "k=2,r=2..3"], 0),
        (["lp", "--family", "saks", "--params", "r=3,k=2"], 0),
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_sequence_is_byte_identical(self, capsys):
        rounds = [[self.call(capsys, argv) for argv, _ in self.SEQUENCE] for _ in range(2)]
        assert rounds[0] == rounds[1]
        assert [code for code, _, _ in rounds[0]] == [code for _, code in self.SEQUENCE]
        assert "unrecognized arguments: --bogus" in rounds[0][1][2]
        assert rounds[0][2][2].startswith("error: ParamOutOfRange")

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv, code in self.SEQUENCE * 3:
                assert self.call(capsys, argv)[0] == code
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
