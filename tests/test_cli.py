import json

import numpy as np
import pytest

from heatmetric import cli, flow, spaces, transport


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

        monkeypatch.setattr(flow, "w2_exact", uncertified)
        code = cli.run(["flow", "--space", str(cycle), "--times", "0.1",
                        "--out", str(tmp_path / "run")])
        assert code == 1
        assert "optimality certificate failed: gap -1.733e-07" in capsys.readouterr().err

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

        monkeypatch.setattr(cli, "model_torus", refuse)
        monkeypatch.setattr(spaces, "build_space", refuse)
        out = tmp_path / "tantor"
        code = cli.run(["tangency", "--geometry", "torus", "--n1", "64", "--n2", "64",
                        "--v=0.6,0.8", "--tmax", "0.4", "--tmin", "0.1", "--out", str(out)])
        assert code == 0
        assert (out / "tangency.csv").exists()

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
        assert abs(slope["value"] + 2.0) < 0.1


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
