import json

import pytest

from treespec import parse_graph
from treespec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_usage_error_on_bad_subcommand(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 2

    def test_usage_error_on_missing_argument(self, capsys):
        code, _, _ = run(capsys, "schreier", "--level", "3")
        assert code == 2

    def test_verify_fail_on_bad_omega_value(self, capsys):
        code, _, err = run(capsys, "growth", "--omega", "bogus", "--radius", "2")
        assert code == 1
        assert "error" in err

    def test_success(self, capsys):
        code, out, _ = run(capsys, "growth", "--omega", ":012", "--radius", "4")
        assert code == 0
        assert "[1, 5, 11, 23, 40]" in out


class TestConfigEcho:
    def test_config_line_is_json(self, capsys):
        _, out, _ = run(capsys, "growth", "--omega", ":01", "--radius", "2")
        line = next(l for l in out.splitlines() if l.startswith("config: "))
        cfg = json.loads(line[len("config: "):])
        # only knobs that change behaviour are echoed
        assert set(cfg) == {"max_vertices", "max_depth"}

    def test_override_propagates(self, capsys):
        _, out, _ = run(
            capsys, "--max-vertices", "64", "growth", "--omega", ":01", "--radius", "2"
        )
        line = next(l for l in out.splitlines() if l.startswith("config: "))
        assert json.loads(line[8:])["max_vertices"] == 64

    def test_resource_cap_enforced(self, capsys):
        code, _, err = run(
            capsys, "--max-vertices", "4", "schreier", "--omega", ":012", "--level", "5"
        )
        assert code == 1


class TestSubcommands:
    def test_schreier_document_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "schreier", "--omega", ":012", "--level", "3",
            "-o", str(out_file),
        )
        assert code == 0
        g = parse_graph(out_file.read_bytes())
        assert g.n == 8

    def test_schreier_dot(self, capsys):
        code, out, _ = run(capsys, "schreier", "--omega", ":012", "--level", "2", "--dot")
        assert code == 0
        assert "graph G {" in out

    def test_spectrum_containment(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--omega", ":012", "--level", "4",
            "--target", "[-0.5,0]u[0.5,1]",
        )
        assert code == 0
        assert "value" in out

    def test_spectrum_violation_exits_one(self, capsys):
        code, _, _ = run(
            capsys, "spectrum", "--omega", ":012", "--level", "4",
            "--target", "[0.9,1]",
        )
        assert code == 1

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--omega", ":01", "--max-level", "4")
        assert code == 0
        assert "hausdorff" in out

    def test_cover_verify(self, capsys):
        code, out, _ = run(
            capsys, "cover-verify", "--omega", ":012",
            "--source-level", "4", "--target-level", "2",
        )
        assert code == 0
        assert "covering verified" in out

    def test_cover_verify_corrupted(self, capsys):
        code, out, _ = run(
            capsys, "cover-verify", "--omega", ":012",
            "--source-level", "4", "--target-level", "2", "--corrupt-swap",
        )
        assert code == 1
        assert "violated" in out

    def test_relators(self, capsys):
        code, out, _ = run(
            capsys, "relators", "--omega", ":012", "--k", "1", "--depth", "8"
        )
        assert code == 0
        assert "trivial@8=True" in out

    def test_dihedral(self, capsys):
        code, out, _ = run(capsys, "dihedral", "--omega", ":012", "--depth", "4")
        assert code == 0
        assert "T^2=I True" in out
        assert "[-0.5,0]u[0.5,1]" in out

    def test_moments(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--omega", ":012", "--level", "3", "--count", "8"
        )
        assert code == 0
        assert "hankel min eigenvalue" in out

    def test_upsilon(self, capsys):
        code, out, _ = run(capsys, "upsilon", "--size", "3", "--dot")
        assert code == 0
        assert out.count("--") == 22  # 8 loops + 14 connecting edges

    def test_hulanicki_small(self, capsys):
        code, out, _ = run(
            capsys, "hulanicki", "--omega", ":012", "--target-level", "1",
            "--radii", "3,4",
        )
        assert code == 0
        assert "bound soundness: ok" in out

    def test_hulanicki_finite_target(self, capsys):
        code, out, _ = run(
            capsys, "hulanicki", "--omega", ":012", "--target-level", "1",
            "--radii", "3,4", "--mode", "finite-target",
        )
        assert code == 0
        assert out.count("best residual") == 2
