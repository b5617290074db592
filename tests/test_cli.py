import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatmetric import cli, flow, heat, spaces, tangent, transport
from conftest import counted_batch


@pytest.fixture()
def two_point_file(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(json.dumps({
        "points": 2,
        "edges": [[0, 1, 1.0]],
        "measure": [1.0, 1.0],
        "K": 0.0,
        "conductances": [1.0],
    }))
    return path


@pytest.fixture()
def capture(monkeypatch):
    """Record every value a library function returns while the CLI runs."""
    def install(module, name):
        results = []
        original = getattr(module, name)

        def recorder(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, name, recorder)
        return results
    return install


def assert_table(path, header, rows):
    """The CSV at path holds exactly header and rows: strings and integers as
    written, booleans as true/false, floats equal after reading back."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == [str(h) for h in header]
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        assert len(line) == len(row)
        for cell, want in zip(line, row):
            if isinstance(want, (bool, np.bool_)):
                assert cell == ("true" if want else "false")
            elif isinstance(want, (str, int, np.integer)):
                assert cell == str(want)
            else:
                assert float(cell) == want


def assert_checks_table(out, command):
    checks = json.loads((out / f"{command}_summary.json").read_text())["checks"]
    assert_table(out / f"{command}_checks.csv", ["name", "t", "value", "bound", "pass"],
                 [(c["name"], c.get("t", ""), c["value"], c["bound"], c["pass"])
                  for c in checks])


class TestOptionSurface:
    GRID = ["--geometry", "--L", "--n", "--L1", "--L2", "--n1", "--n2"]
    SPHERE = ["--r", "--ntheta", "--lmax"]

    def test_options_of_each_subcommand(self):
        sub = cli.build_parser()._subparsers._group_actions[0]
        options = {name: sorted(opt for action in p._actions for opt in action.option_strings
                                if opt not in ("-h", "--help"))
                   for name, p in sub.choices.items()}
        expected = {
            "flow": ["--space", *self.GRID, "--times", "--pairs"],
            "tangency": [*self.GRID, *self.SPHERE, "--v", "--tmax", "--tmin"],
            "contraction": ["--space", *self.GRID, *self.SPHERE, "--times", "--pairs",
                            "--widths"],
            "continuity": ["--space", *self.GRID, "--t", "--deltas"],
            "refine": ["--L", "--t", "--grids", "--probes"],
            "selftest": ["--seed"],
        }
        assert options == {name: sorted(opts + ["--out"]) for name, opts in expected.items()}
        assert sum(map(len, options.values())) == 58

    @pytest.mark.parametrize("source", ["README.md", "cli.py"])
    def test_documented_examples_parse(self, source):
        # every example line of the README's CLI block and of the module
        # docstring names only options the parser has
        if source == "README.md":
            text = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
            text = text.split("## CLI", 1)[1].split("```")[1]
        else:
            text = cli.__doc__
        lines = [line.split() for line in text.splitlines()
                 if line.strip().startswith("heatmetric ")]
        assert sorted(argv[1] for argv in lines) == sorted(cli.COMMANDS)
        for argv in lines:
            cli.build_parser().parse_args(argv[1:])

    def test_readme_check_table_names_every_check(self, tmp_path):
        # the names come from the checks tables that small runs write
        runs = [
            ["flow", "--geometry", "circle", "--n", "8", "--times", "0,0.1"],
            ["flow", "--geometry", "circle", "--n", "8", "--times", "0,0.1", "--pairs", "0:3"],
            ["tangency", "--geometry", "circle", "--n", "64", "--tmax", "0.4", "--tmin", "0.1"],
            ["contraction", "--geometry", "circle", "--n", "8", "--times", "0.1",
             "--pairs", "0:4"],
            ["continuity", "--geometry", "circle", "--n", "8", "--t", "0.1",
             "--deltas", "0.1,0.05"],
            ["refine", "--grids", "16,32,64"],
            ["selftest"],
        ]
        written = set()
        for k, argv in enumerate(runs):
            out = tmp_path / str(k)
            assert cli.run(argv + ["--out", str(out)]) == 0
            with open(out / f"{argv[0]}_checks.csv", newline="") as fh:
                written |= {row["name"] for row in csv.DictReader(fh)}
        text = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        table = text.split("| subcommand | check | bound |", 1)[1].split("\n\n", 1)[0]
        documented = {name for row in table.splitlines()[2:]
                      for name in row.split(" | ")[1].split("`")[1::2]}
        assert {argv[0] for argv in runs} == set(cli.COMMANDS)
        assert written <= documented, f"checks missing from README: {written - documented}"

    @pytest.mark.parametrize("argv", [
        ["flow", "--geometry", "sphere", "--times", "0.1"],
        ["continuity", "--geometry", "sphere", "--t", "0.1", "--deltas", "0.05"],
    ])
    def test_sphere_only_where_it_runs(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert cli.run(argv + ["--out", str(out)]) == 2
        assert "invalid choice: 'sphere'" in capsys.readouterr().err
        assert not out.exists()

    def test_library_checks_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(space):
            raise AssertionError("decomposed before the input checks")

        # the reports check their input before they decompose the space
        monkeypatch.setattr(flow, "spectral_decompose", refuse)
        monkeypatch.setattr(heat, "spectral_decompose", refuse)
        no_k = tmp_path / "no_k.json"
        no_k.write_text(json.dumps({"points": 2, "edges": [[0, 1, 1.0]],
                                    "measure": [1.0, 1.0]}))
        one_point = tmp_path / "one_point.json"
        one_point.write_text(json.dumps({"points": 1, "edges": [], "measure": [1.0], "K": 0.0}))
        out = tmp_path / "run"
        for argv, message in [
            (["contraction", "--space", str(no_k), "--times", "0.1"],
             "contraction needs a declared curvature bound K"),
            # a one-point space draws min(4, n // 2) = 0 default pairs
            (["contraction", "--space", str(one_point), "--times", "0.1"],
             "contraction needs at least one pair and one time"),
            (["continuity", "--space", str(no_k), "--t", "0.2", "--deltas", "0.1"],
             "time continuity bounds need a declared K"),
            (["continuity", "--geometry", "circle", "--n", "16", "--t", "0.2",
              "--deltas=-0.1"], "deltas must be >= 0"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
              "--pairs", "0:99"], "pair 0:99 is out of range for 16 points"),
            (["flow", "--geometry", "circle", "--n", "16", "--times", "0.1",
              "--tol", "1e-6"], "unrecognized arguments: --tol"),
            # no vacuous pass, no repeated solve, no silently ignored option
            (["continuity", "--geometry", "circle", "--n", "16", "--t", "0.1",
              "--deltas", ","], "time continuity needs at least one delta"),
            (["flow", "--geometry", "circle", "--n", "16", "--times", "0.1,0.1"],
             "times must be strictly ascending"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1,0.1"],
             "times must be strictly ascending"),
            (["contraction", "--geometry", "sphere", "--times", "0.1", "--pairs", "0:1"],
             "zonal pairs from --widths, not --pairs"),
            (["contraction", "--geometry", "sphere", "--times", "0.1", "--seed", "5"],
             "unrecognized arguments: --seed 5"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
              "--pairs", "0:8", "--widths", "0.5"], "--widths applies only on the sphere"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
              "--widths", "0.5"], "--widths applies only on the sphere"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
              "--pairs", "0:8", "--seed", "3"], "unrecognized arguments: --seed 3"),
            # non-finite times (an infinite --tmax would halve forever)
            (["tangency", "--geometry", "circle", "--n", "64", "--tmax", "inf"],
             "need 0 < tmin <= tmax < inf, not tmin=0.0125 tmax=inf"),
            (["tangency", "--geometry", "circle", "--n", "64", "--tmin", "nan"],
             "need 0 < tmin <= tmax < inf, not tmin=nan"),
            (["tangency", "--geometry", "circle", "--n", "64", "--times", "0.2,nan"],
             "unrecognized arguments: --times 0.2,nan"),
            (["flow", "--geometry", "circle", "--n", "16", "--times", "nan"],
             "times must be finite and >= 0: 'nan'"),
            (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1,inf"],
             "times must be finite and >= 0: '0.1,inf'"),
            (["continuity", "--geometry", "circle", "--n", "16", "--t", "0.2",
              "--deltas", "0.1,nan"], "deltas must be >= 0 and finite, not nan"),
            (["continuity", "--geometry", "circle", "--n", "16", "--t", "0.2",
              "--deltas", "inf"], "deltas must be >= 0 and finite, not inf"),
        ]:
            assert cli.run(argv + ["--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        # the flow checks a single time where it first uses it, after the
        # decomposition
        monkeypatch.undo()
        for argv, message in [
            (["continuity", "--geometry", "circle", "--n", "16", "--t", "nan",
              "--deltas", "0.1"], "time must be finite and >= 0, not nan"),
            (["refine", "--t", "inf", "--grids", "16,32,64"],
             "refinement needs a finite t > 0, not t=inf"),
        ]:
            assert cli.run(argv + ["--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestCsvLayout:
    """Every number in a table reads back as exactly the report's value."""

    def test_flow_matrices(self, two_point_file, tmp_path, capture):
        mats = capture(flow, "flow_matrices")
        out = tmp_path / "run"
        assert cli.run(["flow", "--space", str(two_point_file), "--times", "0,0.5",
                        "--out", str(out)]) == 0
        for tag, fm in zip(("0", "0p5"), mats):
            assert_table(out / f"dtilde_{tag}.csv", [0, 1], fm.dtilde.tolist())
            assert_table(out / f"dt_{tag}.csv", [0, 1], fm.dt.tolist())
        assert_checks_table(out, "flow")

    def test_flow_pairs(self, tmp_path, capture):
        vals = capture(flow, "dtilde_pairs")
        out = tmp_path / "run"
        assert cli.run(["flow", "--geometry", "circle", "--n", "16", "--times", "0,0.1",
                        "--pairs", "0:8,1:5", "--out", str(out)]) == 0
        for tag, v in zip(("0", "0p1"), vals):
            assert_table(out / f"dtilde_pairs_{tag}.csv", ["x", "y", "dtilde"],
                         [(0, 8, v[0]), (1, 5, v[1])])

    def test_tangency(self, tmp_path, capture):
        reports = capture(tangent, "tangency_experiment")
        out = tmp_path / "run"
        assert cli.run(["tangency", "--geometry", "circle", "--n", "256", "--tmax", "0.2",
                        "--tmin", "0.05", "--out", str(out)]) == 0
        rep, = reports
        columns = ["t", "g_t", "slope", "hessian_mass", "target", "deviation"]
        rows = [[r[k] for k in columns] + [""] for r in rep.rows()]
        rows.append(["extrapolated", rep.extrapolated_slope, "", "", rep.target,
                     rep.deviation, rep.passed(0.05)])
        assert len(rows) == 4
        assert_table(out / "tangency.csv", columns + ["pass"], rows)
        assert_checks_table(out, "tangency")

    def test_contraction(self, tmp_path, capture):
        reports = capture(flow, "contraction_report")
        out = tmp_path / "run"
        assert cli.run(["contraction", "--geometry", "circle", "--n", "16",
                        "--times", "0.1,0.5", "--pairs", "0:8,2:5", "--out", str(out)]) == 0
        rep, = reports
        rows = [(f"{r.pair[0]}|{r.pair[1]}", r.t, r.w2_initial, r.w2_evolved, r.ratio,
                 r.bound, r.excess <= 1e-6) for r in rep.records]
        assert [row[0] for row in rows] == ["0|8", "0|8", "2|5", "2|5"]
        assert_table(out / "contraction.csv",
                     ["pair", "t", "w2_initial", "w2_evolved", "ratio", "bound", "pass"], rows)
        assert_checks_table(out, "contraction")

    def test_continuity(self, two_point_file, tmp_path, capture):
        reports = capture(flow, "time_continuity_report")
        out = tmp_path / "run"
        assert cli.run(["continuity", "--space", str(two_point_file), "--t", "0.2",
                        "--deltas", "0.2,0.1,0.05", "--out", str(out)]) == 0
        rep, = reports
        assert_table(out / "continuity.csv", ["delta", "sup_difference"],
                     list(zip(rep.deltas, rep.sup_differences)))
        assert_checks_table(out, "continuity")

    def test_refine(self, tmp_path, capture):
        reports = capture(flow, "refinement_stability")
        out = tmp_path / "run"
        assert cli.run(["refine", "--grids", "16,32,64", "--t", "0.1",
                        "--probes", "0:0.5,0.25:0.5", "--out", str(out)]) == 0
        rep, = reports
        header = ["probe", "n16", "n32", "n64", "diff0", "diff1", "order0"]
        rows = [[probe, *rep.probe_values[k], *rep.differences[k], *rep.orders[k]]
                for k, probe in enumerate(["0.0:0.5", "0.25:0.5"])]
        assert_table(out / "refine.csv", header, rows)
        assert_checks_table(out, "refine")


class TestFlowCommand:
    def test_writes_matrices_and_passes(self, two_point_file, tmp_path):
        out = tmp_path / "run"
        code = cli.run(["flow", "--space", str(two_point_file),
                        "--times", "0,0.1,0.5", "--out", str(out)])
        assert code == 0
        for tag in ("0", "0p1", "0p5"):
            assert (out / f"dtilde_{tag}.csv").exists()
            assert (out / f"dt_{tag}.csv").exists()
        summary = json.loads((out / "flow_summary.json").read_text())
        assert summary["command"] == "flow"
        assert all(c["pass"] for c in summary["checks"])
        assert summary["wall_time_seconds"] >= 0

    def test_csv_matches_closed_form(self, two_point_file, tmp_path):
        out = tmp_path / "run"
        cli.run(["flow", "--space", str(two_point_file), "--times", "0.5",
                 "--out", str(out)])
        rows = (out / "dtilde_0p5.csv").read_text().strip().splitlines()
        val = float(rows[1].split(",")[1])
        assert abs(val - np.exp(-0.5)) < 1e-9

    def test_deterministic_output(self, two_point_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run(["flow", "--space", str(two_point_file), "--times", "0.25",
                 "--out", str(out1)])
        cli.run(["flow", "--space", str(two_point_file), "--times", "0.25",
                 "--out", str(out2)])
        assert (out1 / "dtilde_0p25.csv").read_bytes() == (out2 / "dtilde_0p25.csv").read_bytes()

    def test_negative_time_exits_2_without_files(self, two_point_file, tmp_path):
        out = tmp_path / "bad"
        code = cli.run(["flow", "--space", str(two_point_file),
                        "--times", "-1", "--out", str(out)])
        assert code == 2
        assert not list(out.glob("dtilde*"))

    def test_requires_one_input(self, tmp_path):
        code = cli.run(["flow", "--times", "0.1", "--out", str(tmp_path)])
        assert code == 2

    def test_one_point_space(self, tmp_path):
        # no pair of distinct points, so no distortion line to print
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"points": 1, "edges": [], "measure": [1.0], "K": 0.0}))
        out = tmp_path / "run"
        code = cli.run(["flow", "--space", str(path), "--times", "0,0.1", "--out", str(out)])
        assert code == 0
        for tag in ("0", "0p1"):
            assert_table(out / f"dtilde_{tag}.csv", [0], [[0.0]])
            assert_table(out / f"dt_{tag}.csv", [0], [[0.0]])
        checks = json.loads((out / "flow_summary.json").read_text())["checks"]
        assert len(checks) == 4 and all(c["pass"] for c in checks)

    def test_malformed_space_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"points\": 2}")
        code = cli.run(["flow", "--space", str(bad), "--times", "0.1",
                        "--out", str(tmp_path)])
        assert code == 2

    def test_solver_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        cycle = tmp_path / "cycle.json"
        cycle.write_text(json.dumps({
            "points": 4,
            "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [3, 0, 1.5]],
            "measure": [1.0, 2.0, 1.0, 1.0],
        }))

        def uncertified(*args, **kwargs):
            raise transport.SolverFailure("optimality certificate failed: gap -1.733e-07")

        monkeypatch.setattr(flow, "_w2_exact_batch", uncertified)
        out = tmp_path / "run"
        # t = 0 needs no solve and succeeds; the failure at t = 0.1 must not
        # leave the t = 0 tables behind
        code = cli.run(["flow", "--space", str(cycle), "--times", "0,0.1",
                        "--out", str(out)])
        assert code == 1
        assert "optimality certificate failed: gap -1.733e-07" in capsys.readouterr().err
        assert not list(out.glob("dtilde_*")) and not list(out.glob("dt_*"))

    @pytest.mark.parametrize("argv", [
        ["flow", "--geometry", "circle", "--n", "16", "--times", "0.1", "--pairs", "0:99"],
        ["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
         "--pairs", "0:99"],
        ["flow", "--geometry", "circle", "--n", "16", "--times", "0.1", "--pairs=-1:3"],
    ])
    def test_pair_out_of_range_exits_2(self, tmp_path, capsys, argv):
        code = cli.run(argv + ["--out", str(tmp_path)])
        assert code == 2
        pair = argv[-1].split("=")[-1]
        assert f"pair {pair} is out of range for 16 points" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_full_matrix_cap_exits_2_without_files(self, tmp_path, capsys):
        # t = 0 needs no solve, and the cap holds there all the same
        out = tmp_path / "big"
        code = cli.run(["flow", "--geometry", "circle", "--n", str(flow.FULL_MATRIX_CAP + 1),
                        "--times", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"full matrices capped at n = {flow.FULL_MATRIX_CAP}" in err
        assert "dtilde_pairs" in err and "--pairs" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("n, pair", [(128, "3:126"), (256, "60:65")])
    def test_short_circle_offsets_certify(self, tmp_path, n, pair):
        # both once failed the certificate with the LP (tiny tail masses)
        code = cli.run(["flow", "--geometry", "circle", "--n", str(n), "--times", "0.1",
                        "--pairs", pair, "--out", str(tmp_path)])
        assert code == 0

    def test_pair_list_mode(self, tmp_path):
        out = tmp_path / "pairs"
        code = cli.run(["flow", "--geometry", "circle", "--L", "6.283185307179586",
                        "--n", "16", "--times", "0.1", "--pairs", "0:8,1:5",
                        "--out", str(out)])
        assert code == 0
        assert (out / "dtilde_pairs_0p1.csv").exists()

    def test_pair_mode_checks_its_values(self, tmp_path):
        out = tmp_path / "pairs"
        assert cli.run(["flow", "--geometry", "torus", "--n1", "8", "--n2", "8",
                        "--times", "0,0.25", "--pairs", "0:9,3:30,1:2",
                        "--out", str(out)]) == 0
        checks = json.loads((out / "flow_summary.json").read_text())["checks"]
        assert [(c["name"], c["t"], c["pass"]) for c in checks] == [
            ("dtilde0_equals_d", 0.0, True), ("dtilde_below_scaled_original", 0.25, True)]
        assert_checks_table(out, "flow")

    def test_pair_mode_fails_an_overstated_curvature_bound(self, tmp_path):
        # the two-point flow is dtilde_t = e^{-t} d, above a declared e^{-5t} d
        path, out = tmp_path / "two_point_k5.json", tmp_path / "pairs"
        path.write_text(json.dumps({"points": 2, "edges": [[0, 1, 1.0]], "measure": [1.0, 1.0],
                                    "K": 5.0, "conductances": [1.0]}))
        assert cli.run(["flow", "--space", str(path), "--times", "0.5", "--pairs", "0:1",
                        "--out", str(out)]) == 1
        check, = json.loads((out / "flow_summary.json").read_text())["checks"]
        assert check["name"] == "dtilde_below_scaled_original" and not check["pass"]
        assert check["value"] == pytest.approx(np.exp(-0.5) - np.exp(-2.5), rel=1e-9)


class TestSpaceFileSymmetries:
    """A space file may declare symmetries; build_space checks them."""

    # a 12-point ring whose edge lengths and weights alternate, so its
    # rotations are by an even number of steps
    RING = {"points": 12,
            "edges": [[i, (i + 1) % 12, 1.0 + 0.5 * (i % 2)] for i in range(12)],
            "measure": [1.0 + (i % 2) for i in range(12)]}
    ROTATION = [(i + 2) % 12 for i in range(12)]

    @staticmethod
    def dtilde(tmp_path, name, space):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(space))
        assert cli.run(["flow", "--space", str(path), "--times", "0.1", "--out", str(out)]) == 0
        return np.loadtxt(out / "dtilde_0p1.csv", delimiter=",", skiprows=1)

    def test_declared_rotation(self, tmp_path, monkeypatch):
        solves = counted_batch(monkeypatch)
        sym = self.dtilde(tmp_path, "sym", {**self.RING, "symmetries": [self.ROTATION]})
        plain = self.dtilde(tmp_path, "plain", self.RING)
        g = np.array(self.ROTATION)
        assert np.array_equal(sym[np.ix_(g, g)], sym)
        np.testing.assert_allclose(sym, plain, rtol=1e-12, atol=0)
        orbits = {min(tuple(sorted(((x + k) % 12, (y + k) % 12))) for k in range(0, 12, 2))
                  for x in range(12) for y in range(x + 1, 12)}
        assert solves == [len(orbits), 66]

    @pytest.mark.parametrize("symmetries, message", [
        ([[0] * 12], "a symmetry must be a permutation of 0..11"),
        ([[(i + 1) % 12 for i in range(12)]], "a symmetry does not preserve the measure"),
        ([[(-i) % 12 for i in range(12)]], "a symmetry does not map the edges"),
    ], ids=["not-a-permutation", "moves-the-measure", "moves-an-edge"])
    def test_rejected_symmetry_exits_2(self, tmp_path, capsys, symmetries, message):
        path, out = tmp_path / "space.json", tmp_path / "run"
        path.write_text(json.dumps({**self.RING, "symmetries": symmetries}))
        assert cli.run(["flow", "--space", str(path), "--times", "0.1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTranslationGroupFiles:
    """A space file whose declared symmetries form a translation group takes
    the one-source metric and the character spectrum."""

    @staticmethod
    def as_file(tmp_path, name, space, symmetries=()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "points": space.n, "K": 0.0, "measure": space.measure.tolist(),
            "edges": [[i, j, ell] for (i, j), ell in zip(space.edges.tolist(), space.lengths)],
            "conductances": space.conductances.tolist(),
            "symmetries": [g.tolist() for g in symmetries]}))
        return path

    @pytest.mark.parametrize("geometry, grid", [
        (["circle", "--n", "24"], lambda: spaces.model_circle(2 * np.pi, 24)[1]),
        (["torus", "--n1", "8", "--n2", "12"],
         lambda: spaces.model_torus(2 * np.pi, 2 * np.pi, 8, 12)[1]),
    ], ids=["circle24", "torus8x12"])
    def test_t0_csv_is_the_all_pairs_metric(self, tmp_path, geometry, grid):
        # the model grid's metric, from one source, against the same grid as a
        # file without symmetries, from all pairs
        path = self.as_file(tmp_path, "plain", grid())
        args = ["flow", "--times", "0", "--out"]
        assert cli.run([*args, str(tmp_path / "grid"), "--geometry", *geometry]) == 0
        assert cli.run([*args, str(tmp_path / "file"), "--space", str(path)]) == 0
        for name in ("dtilde_0.csv", "dt_0.csv"):
            assert (tmp_path / "grid" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    def test_declared_one_step_rotation(self, tmp_path, monkeypatch):
        _, ring = spaces.model_circle(2 * np.pi, 12)
        rotation = (np.arange(12) + 1) % 12
        paths = [self.as_file(tmp_path, "rot", ring, [rotation]),
                 self.as_file(tmp_path, "plain", ring)]
        calls, eigh = [], heat.scipy.linalg.eigh
        monkeypatch.setattr(heat.scipy.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        for path in paths:
            assert cli.run(["flow", "--space", str(path), "--times", "0,0.1",
                            "--out", str(tmp_path / path.stem)]) == 0
        assert calls == [1]  # the file without symmetries alone calls eigh
        rot, plain = (tmp_path / path.stem for path in paths)
        assert (rot / "dtilde_0.csv").read_bytes() == (plain / "dtilde_0.csv").read_bytes()
        sym, ref = (np.loadtxt(d / "dtilde_0p1.csv", delimiter=",", skiprows=1) for d in (rot, plain))
        np.testing.assert_allclose(sym, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("edges, pair", [
        ([[0, 1, 1.0], [1, 2, 1.0], [2, 1, 1.0]], "(1, 2)"),
        ([[0, 1, 1.0], [0, 1, 2.0], [1, 2, 1.0]], "(0, 1)"),
    ], ids=["reversed", "parallel"])
    def test_edge_given_twice_exits_2(self, tmp_path, capsys, edges, pair):
        path, out = tmp_path / "space.json", tmp_path / "run"
        path.write_text(json.dumps({"points": 3, "edges": edges, "measure": [1.0] * 3}))
        assert cli.run(["flow", "--space", str(path), "--times", "0.1", "--out", str(out)]) == 2
        assert f"the edge {pair} is given twice" in capsys.readouterr().err
        assert not out.exists()


class TestTangencyCommand:
    def test_circle_quick(self, tmp_path):
        out = tmp_path / "tan"
        code = cli.run(["tangency", "--geometry", "circle", "--n", "256",
                        "--tmax", "0.2", "--tmin", "0.05", "--out", str(out)])
        assert code == 0
        text = (out / "tangency.csv").read_text()
        assert text.startswith("t,g_t,slope")
        assert "extrapolated" in text

    def test_torus_builds_no_space(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tangency must not build a discrete space")

        monkeypatch.setattr(cli, "_grid_space", refuse)
        monkeypatch.setattr(spaces, "build_space", refuse)
        out = tmp_path / "tantor"
        code = cli.run(["tangency", "--geometry", "torus", "--n1", "64", "--n2", "64",
                        "--v=0.6,0.8", "--tmax", "0.4", "--tmin", "0.1", "--out", str(out)])
        assert code == 0
        assert (out / "tangency.csv").exists()

    def test_uncertified_solve_exits_1(self, tmp_path, capsys, uncertified_poisson):
        out = tmp_path / "tan"
        code = cli.run(["tangency", "--geometry", "circle", "--n", "64", "--tmin", "0.05",
                        "--out", str(out)])
        assert code == 1
        assert "linear solve residual 1.00e-03 above 1e-08" in capsys.readouterr().err
        assert not (out / "tangency.csv").exists()

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        code = cli.run(["tangency", "--geometry", "circle", "--n", "4",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "circle grid needs n >= 8" in capsys.readouterr().err

    def test_sphere_exit_zero_within_tolerance(self, tmp_path):
        out = tmp_path / "tansph"
        code = cli.run(["tangency", "--geometry", "sphere", "--r", "1",
                        "--ntheta", "256", "--lmax", "120",
                        "--tmax", "0.2", "--tmin", "0.025", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "tangency_summary.json").read_text())
        slope = [c for c in summary["checks"] if c["name"] == "tangency_slope"][0]
        # the relative deviation from the target -2: below 0.05 is |slope + 2| < 0.1
        assert slope["value"] < 0.05 and slope["bound"] == 0.05


class TestOtherCommands:
    def test_contraction_circle(self, tmp_path):
        out = tmp_path / "con"
        code = cli.run(["contraction", "--geometry", "circle", "--n", "16",
                        "--times", "0.1,0.5", "--pairs", "0:8,2:5",
                        "--out", str(out)])
        assert code == 0
        assert (out / "contraction.csv").exists()

    def test_contraction_sphere(self, tmp_path):
        out = tmp_path / "consph"
        code = cli.run(["contraction", "--geometry", "sphere", "--ntheta", "512",
                        "--lmax", "120", "--times", "0.05,0.2",
                        "--widths", "0.1,0.3", "--out", str(out)])
        assert code == 0

    def test_contraction_sphere_below_truncation_floor(self, tmp_path, capsys):
        # at l_max = 120 the kernel series is unconverged below t ~ 0.0021
        out = tmp_path / "consph"
        code = cli.run(["contraction", "--geometry", "sphere", "--times", "0.0005,0.001",
                        "--out", str(out)])
        assert code == 2
        assert "sphere kernel tail 1.35e-02 above 1e-12" in capsys.readouterr().err
        assert not out.exists()

    def test_continuity(self, two_point_file, tmp_path):
        out = tmp_path / "cont"
        code = cli.run(["continuity", "--space", str(two_point_file), "--t", "0.2",
                        "--deltas", "0.2,0.1,0.05", "--out", str(out)])
        assert code == 0
        assert (out / "continuity.csv").exists()

    def test_refine_small(self, tmp_path):
        out = tmp_path / "ref"
        code = cli.run(["refine", "--grids", "16,32,64", "--t", "0.1",
                        "--probes", "0:0.5", "--out", str(out)])
        assert code == 0
        assert (out / "refine.csv").exists()

    def test_refine_to_512(self, tmp_path):
        code = cli.run(["refine", "--grids", "64,128,256,512", "--t", "0.1",
                        "--probes", "0:0.5", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "refine.csv").read_text().splitlines()
        header, values = rows[0].split(","), rows[1].split(",")
        orders = [float(v) for h, v in zip(header, values) if h.startswith("order")]
        assert min(orders) >= 1.0

    @pytest.mark.parametrize("grids, probes, message", [
        ("64,128", "0:0.5", "refinement needs at least three grid sizes"),
        ("16,32,64", "0:0.3333333", "not representable on n=16"),
        ("16,32,64", "0:inf", "probe (0.0, inf) needs circle fractions in [0, 1)"),
        ("16,32,64", "0:nan", "probe (0.0, nan) needs circle fractions in [0, 1)"),
        ("16,32,64", "0:1.5", "probe (0.0, 1.5) needs circle fractions in [0, 1)"),
        ("16,32,64", "-0.25:0.5", "probe (-0.25, 0.5) needs circle fractions in [0, 1)"),
    ])
    def test_refine_input_errors(self, tmp_path, capsys, grids, probes, message):
        # --probes=... so that a probe starting with "-" is not read as an option
        code = cli.run(["refine", "--grids", grids, f"--probes={probes}",
                        "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_refine_bad_probe(self, tmp_path):
        code = cli.run(["refine", "--grids", "16,32", "--probes", "0:0.3333333",
                        "--out", str(tmp_path)])
        assert code == 2

    def test_selftest(self, tmp_path):
        out = tmp_path / "self"
        code = cli.run(["selftest", "--seed", "0", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "selftest_summary.json").read_text())
        assert all(c["pass"] for c in summary["checks"])

    def test_selftest_sinkhorn_failure_is_a_failed_check(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise transport.SinkhornNonConvergence("marginal violation 1e-3 after 4000 iterations")

        monkeypatch.setattr(transport, "w2_sinkhorn", diverge)
        out = tmp_path / "self"
        code = cli.run(["selftest", "--seed", "0", "--out", str(out)])
        assert code == 1
        checks = json.loads((out / "selftest_summary.json").read_text())["checks"]
        failed = [c["name"] for c in checks if not c["pass"]]
        assert failed == ["sinkhorn_vs_exact"]


class TestInputBranches:
    """Input paths that the command tests above do not take."""

    TORUS8 = ["--geometry", "torus", "--n1", "8", "--n2", "8"]

    @pytest.mark.parametrize("argv, table", [
        (["flow", "--times", "0.25", "--pairs", "0:9,0:27"], "dtilde_pairs_0p25.csv"),
        (["contraction", "--times", "0.1", "--pairs", "0:9"], "contraction.csv"),
        (["continuity", "--t", "0.2", "--deltas", "0.1"], "continuity.csv"),
    ], ids=["flow", "contraction", "continuity"])
    def test_torus_geometry(self, tmp_path, capture, argv, table):
        built = capture(cli, "_grid_space")
        out = tmp_path / "run"
        assert cli.run(argv + self.TORUS8 + ["--out", str(out)]) == 0
        assert [space.n for space in built] == [64]
        assert (out / table).exists()

    @pytest.mark.parametrize("argv, message", [
        (["tangency", "--n", "64"], "tangency needs --geometry"),
        (["flow", "--geometry", "circle", "--n", "16", "--times", "0.1,abc"], "bad time 'abc'"),
        (["flow", "--geometry", "circle", "--n", "16", "--times", "0.1", "--pairs", "0:1,2"],
         "bad i:j pair '2'"),
        (["flow", "--geometry", "circle", "--n", "16", "--times", "0.1", "--pairs", ","],
         "empty pair list"),
        (["contraction", "--geometry", "sphere", "--r", "nan", "--times", "0.1"],
         "radius must be > 0 and finite, not nan"),
        (["contraction", "--geometry", "sphere", "--r", "inf", "--times", "0.1"],
         "radius must be > 0 and finite, not inf"),
        (["tangency", "--geometry", "circle", "--L", "nan"], "L must be > 0 and finite, not nan"),
        (["tangency", "--geometry", "sphere", "--r", "nan"], "radius must be > 0 and finite"),
        (["tangency", "--geometry", "sphere", "--v", "1,2,3"],
         "tangent vectors on the sphere have at most two components, not shape (3,)"),
        (["flow", "--geometry", "torus", "--L1", "inf", "--n1", "8", "--n2", "8",
          "--times", "0.1"], "torus side lengths must be > 0 and finite, not inf"),
    ], ids=["tangency-no-geometry", "bad-time", "bad-pair", "empty-pairs",
            "contraction-sphere-r-nan", "contraction-sphere-r-inf", "tangency-circle-L-nan",
            "tangency-sphere-r-nan", "tangency-sphere-v-3d", "flow-torus-L1-inf"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        assert cli.run(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["contraction", "--geometry", "circle", "--n", "16", "--times", "0.1",
          "--pairs", "0:0"], "pair 0:0 is at W2 distance 0, so it has no contraction ratio"),
        (["refine", "--grids", "64,128,256", "--probes", "0:0"],
         "probe (0.0, 0.0) lands both ends on node 0 of n=64"),
        (["tangency", "--geometry", "sphere", "--ntheta", "64", "--lmax", "80", "--v", "0"],
         "tangency needs a nonzero tangent vector v, not |v|^2 = 0"),
        (["tangency", "--geometry", "circle", "--n", "256", "--tmin", "0.05", "--v", "0"],
         "tangency needs a nonzero tangent vector v, not |v|^2 = 0"),
        (["tangency", "--geometry", "torus", "--n1", "64", "--n2", "64", "--tmin", "0.05",
          "--v=0,0"], "tangency needs a nonzero tangent vector v, not |v|^2 = 0"),
    ], ids=["contraction-pair-0:0", "refine-probe-0:0", "tangency-sphere-v0",
            "tangency-circle-v0", "tangency-torus-v0"])
    def test_degenerate_input_exits_2(self, tmp_path, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("solved on degenerate input")

        monkeypatch.setattr(flow, "spectral_decompose", refuse)
        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        out = tmp_path / "run"
        assert cli.run(argv + ["--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "points: 2"], ids=["missing", "not-json"])
    def test_unreadable_space_file_exits_2(self, tmp_path, capsys, content):
        path, out = tmp_path / "space.json", tmp_path / "run"
        if content is not None:
            path.write_text(content)
        assert cli.run(["flow", "--space", str(path), "--times", "0.1", "--out", str(out)]) == 2
        assert f"cannot read space file {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["contraction", "--times", "0.1,0.5", "--pairs", "0:1"],
        ["continuity", "--t", "0.1", "--deltas", "0.05"],
    ], ids=["contraction", "continuity"])
    def test_nonfinite_K_exits_2(self, tmp_path, capsys, argv):
        # Python's json reads and writes NaN
        path, out = tmp_path / "space.json", tmp_path / "run"
        path.write_text(json.dumps({"points": 2, "edges": [[0, 1, 1.0]],
                                    "measure": [1.0, 1.0], "K": float("nan")}))
        assert '"K": NaN' in path.read_text()
        assert cli.run(argv + ["--space", str(path), "--out", str(out)]) == 2
        assert "K must be finite, not nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("geometry, v", [
        (["circle", "--n", "64"], "nan"), (["circle", "--n", "64"], "inf"),
        (["sphere"], "nan"), (["sphere"], "inf"),
        (["torus", "--n1", "64", "--n2", "64"], "nan,1.0"),
    ], ids=["circle-nan", "circle-inf", "sphere-nan", "sphere-inf", "torus-nan"])
    def test_tangency_nonfinite_v_exits_2(self, tmp_path, capsys, monkeypatch, geometry, v):
        def refuse(*args):
            raise AssertionError("solved with a non-finite tangent vector")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        out = tmp_path / "run"
        assert cli.run(["tangency", "--geometry", *geometry, f"--v={v}", "--out", str(out)]) == 2
        assert "tangent vector v must be finite, not v=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("space, message", [
        ({"points": 2.9, "edges": [[0, 1, 1.0]]}, "the point count must be an integer, got 2.9"),
        ({"points": 2, "edges": [[0, 1.7, 1.0]]}, "each edge endpoint must be an integer, got 1.7"),
        ({"points": 2, "edges": [[0.0, 1, 1.0]]}, "each edge endpoint must be an integer, got 0.0"),
        ({"points": 2, "edges": [[True, 0, 1.0]]}, "each edge endpoint must be an integer, got True"),
        ({"points": 2, "edges": [[0, 1, 1.0]], "symmetries": [[1, 0.0]]},
         "each entry of a symmetry, a permutation of 0..1, must be an integer, got 0.0"),
        ({"points": 2, "edges": [[0, 1, 1.0]], "symmetries": [[True, 0]]},
         "each entry of a symmetry, a permutation of 0..1, must be an integer, got True"),
    ], ids=["points", "endpoint", "integral-float-endpoint", "boolean-endpoint",
            "symmetry-float", "symmetry-boolean"])
    def test_non_integer_space_file_exits_2(self, tmp_path, capsys, space, message):
        path, out = tmp_path / "space.json", tmp_path / "run"
        path.write_text(json.dumps({**space, "measure": [1.0, 1.0], "K": 0.0}))
        assert cli.run(["flow", "--space", str(path), "--times", "0.1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tangency_torus_default_v(self, tmp_path, monkeypatch):
        seen, experiment = [], tangent.tangency_experiment

        def recorder(geometry, **kwargs):
            seen.append(kwargs["v"])
            return experiment(geometry, **kwargs)

        monkeypatch.setattr(tangent, "tangency_experiment", recorder)
        code = cli.run(["tangency", "--geometry", "torus", "--n1", "64", "--n2", "64",
                        "--tmax", "0.4", "--tmin", "0.1", "--out", str(tmp_path)])
        assert code == 0
        assert seen == [(1.0, 0.0)]


class TestRepeatedRuns:
    def test_runs_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [["flow", "--geometry", "circle", "--times", "0.1", "--bogus"],
                ["flow", "--geometry", "circle", "--n", "8", "--times", "0,0.1"],
                ["tangency", "--geometry", "circle", "--n", "64", "--tmax", "0.1",
                 "--tmin", "0.05"]]
        cli.build_parser.cache_clear()
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
            code = cli.run(argv + ["--out", str(here)])
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "heatmetric.cli", *argv,
                                   "--out", str(fresh)], capture_output=True, text=True,
                                  env=env, check=False)
            assert code == proc.returncode == (2 if k == 0 else 0)
            assert out.replace(str(here), "OUT") == proc.stdout.replace(str(fresh), "OUT")
            assert err == proc.stderr
            files = sorted(p.name for p in here.glob("*"))
            assert files == sorted(p.name for p in fresh.glob("*"))
            for name in files:
                mine, theirs = (here / name).read_bytes(), (fresh / name).read_bytes()
                if name.endswith("_summary.json"):
                    mine, theirs = (json.loads(b) for b in (mine, theirs))
                    for summary in (mine, theirs):
                        del summary["wall_time_seconds"], summary["config"]["out"]
                assert mine == theirs, name
        assert cli.build_parser.cache_info().misses == 1
