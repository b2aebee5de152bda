import io
import json
import re

import pytest

from treespec import OmegaWord, UpsilonSpec, cli, parse_graph, upsilon_graph
from treespec import growth, level_path_form, markov_eigenvalues_banded, schreier, spectra
from treespec.actions import _generator_table
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["relators", "--omega", ":012", "--depth", "8"],
            ["dihedral", "--omega", ":012", "--x", "1"],
            ["dihedral", "--omega", ":012", "--shift", "0"],
            ["upsilon", "--size", "3", "--exception"],
            ["dihedral"],
        ],
    )
    def test_usage_error_on_fixed_or_missing_option(self, capsys, argv):
        # the relator depth, the dihedral weights and the Upsilon variant are
        # fixed by the mathematics, and dihedral needs a sequence
        code, _, _ = run(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_usage_error_on_nonpositive_max_vertices(self, capsys, cap):
        code, out, err = run(
            capsys, "--max-vertices", cap, "growth", "--omega", ":012", "--radius", "2"
        )
        assert code == 2
        assert err == "error: max_vertices must be positive\n"
        assert out == ""

    def test_success(self, capsys):
        code, out, _ = run(capsys, "growth", "--omega", ":012", "--radius", "4")
        assert code == 0
        assert "[1, 5, 11, 23, 40]" in out

    def test_huge_radius_refused(self, capsys, monkeypatch):
        # radius 2^40 ended in a MemoryError traceback before the ball cap
        monkeypatch.setattr(growth, "MAX_BALL_ELEMENTS", 1000)
        code, _, err = run(capsys, "growth", "--omega", ":012", "--radius", str(2**40))
        assert code == 1
        assert err == "error: ball exceeds 1000 elements\n"


class TestConfigEcho:
    def test_config_line_is_json(self, capsys):
        _, out, _ = run(capsys, "growth", "--omega", ":01", "--radius", "2")
        line = next(l for l in out.splitlines() if l.startswith("config: "))
        cfg = json.loads(line[len("config: "):])
        # only knobs that change behaviour are echoed
        assert set(cfg) == {"max_vertices"}

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["schreier", "--omega", ":012", "--level", "3"],
            ["upsilon", "--size", "3"],
            ["upsilon", "--kind", "ray", "--size", "4"],
            ["upsilon", "--kind", "line", "--size", "2"],
            ["spectrum", "--omega", ":012", "--level", "3"],
            ["sweep", "--omega", ":012", "--max-level", "3"],
            ["moments", "--omega", ":012", "--level", "3"],
            ["cover-verify", "--omega", ":012", "--source-level", "3", "--target-level", "1"],
            ["hulanicki", "--omega", ":012", "--target-level", "3", "--radii", "2"],
            ["dihedral", "--omega", ":012", "--depth", "3"],
        ],
    )
    def test_every_graph_builder_capped(self, capsys, argv):
        # each of these builds at least 5 vertices
        code, out, err = run(capsys, "--max-vertices", "4", *argv)
        assert code == 1
        assert re.fullmatch(r"error: (2\^3|5) vertices exceed cap 4\n", err)
        assert out.splitlines() == ['config: {"max_vertices": 4}']

    def test_upsilon_within_cap(self, capsys):
        code, out, _ = run(capsys, "--max-vertices", "5", "upsilon", "--kind", "ray", "--size", "4")
        assert code == 0 and '"vertices":[0,1,2,3,4]' in out

    @pytest.mark.parametrize("kind", ["ray", "line"])
    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_upsilon_cap_counts_the_vertices_built(self, capsys, kind, size):
        # the cap and the builder read one span table: a cap of exactly the
        # segment's vertex count passes, one less refuses it
        count = upsilon_graph(UpsilonSpec(kind, size)).n
        argv = ["upsilon", "--kind", kind, "--size", str(size)]
        assert run(capsys, "--max-vertices", str(count), *argv)[0] == 0
        code, _, err = run(capsys, "--max-vertices", str(count - 1), *argv)
        assert code == 1 and err == f"error: {count} vertices exceed cap {count - 1}\n"

    def test_dihedral_resource_cap_enforced(self, capsys):
        code, out, err = run(
            capsys, "--max-vertices", "4", "dihedral", "--omega", ":012", "--depth", "6"
        )
        assert code == 1
        assert err == "error: 2^6 vertices exceed cap 4\n"
        assert "T^2=I" not in out


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

    @pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["document", "dot"])
    def test_stdout_holds_the_file_bytes_after_the_config_line(self, capsysbinary, tmp_path, dot):
        out_file = tmp_path / "g"
        argv = ["schreier", "--omega", ":012", "--level", "3", *dot]
        assert main([*argv, "-o", str(out_file)]) == 0
        capsysbinary.readouterr()
        assert main([*argv, "-o", "-"]) == 0
        config, data = capsysbinary.readouterr().out.split(b"\n", 1)
        assert config.startswith(b"config: ") and data == out_file.read_bytes()

    def test_stdout_with_no_buffer_takes_the_decoded_document(self, monkeypatch, tmp_path):
        out_file = tmp_path / "g.json"
        argv = ["schreier", "--omega", ":012", "--level", "3"]
        assert main([*argv, "-o", str(out_file)]) == 0
        stream = io.StringIO()  # a text stream with no binary buffer
        monkeypatch.setattr("sys.stdout", stream)
        assert main([*argv, "-o", "-"]) == 0
        config, data = stream.getvalue().split("\n", 1)
        assert config.startswith("config: ") and data == out_file.read_text()

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.json"
        code, _, err = run(
            capsys, "schreier", "--omega", ":012", "--level", "2", "-o", str(missing)
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err

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

    @pytest.mark.parametrize("sub, level", [("spectrum", "--level"), ("sweep", "--max-level")])
    def test_nan_target_refused(self, capsys, sub, level):
        # with a NaN end, 7 of the 8 level-3 eigenvalues were flagged outside
        code, out, err = run(
            capsys, sub, "--omega", ":012", level, "3", "--target", "[nan,1]"
        )
        assert code == 1
        assert err == "error: interval [nan, 1.0] is empty or has a NaN end\n"
        assert "value" not in out

    @pytest.mark.parametrize("sub, level", [("spectrum", "--level"), ("sweep", "--max-level")])
    def test_target_without_two_ends_refused(self, capsys, sub, level):
        for target, bad in [("[1,2,3]", "[1,2,3]"), ("[1,2]u[x,3]", "[x,3]")]:
            code, out, err = run(
                capsys, sub, "--omega", ":012", level, "3", "--target", target
            )
            assert code == 1
            assert err == f"error: bad interval {bad!r}\n"
            assert "value" not in out

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--omega", ":01", "--max-level", "4")
        assert code == 0
        assert "hausdorff" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--omega", ":012", "--max-level", "0"], "n_max must be >= 1"),
            (["relators", "--omega", ":012", "--k", "0"], "k must be >= 1"),
            (["relators", "--omega", ":012", "--k", "-2"], "k must be >= 1"),
            (["spectrum", "--omega", ":012", "--level", "0"], "n must be >= 1"),
        ],
    )
    def test_empty_certificate_refused(self, capsys, argv, message):
        # a run that would check nothing fails instead of passing vacuously
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not re.search(r"^\d", out, re.M) and "U_" not in out

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
        code, out, _ = run(capsys, "relators", "--omega", ":012", "--k", "1")
        assert code == 0
        assert "trivial@7=True" in out

    @pytest.mark.parametrize(
        "omega, k, depths",
        [(":012", "2", [7, 7, 8, 8]), ("0:01", "1", [6, 7, 8, 8, 9])],
    )
    def test_relators_proven_at_comparison_depth(self, capsys, omega, k, depths):
        code, out, _ = run(capsys, "relators", "--omega", omega, "--k", k)
        assert code == 0
        assert [int(d) for d in re.findall(r"trivial@(\d+)=True", out)] == depths
        assert "False" not in out

    def test_relators_nontrivial_word_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "relators_U", lambda w, k: ["ad"])
        code, out, _ = run(capsys, "relators", "--omega", ":012", "--k", "1")
        assert code == 1
        assert "trivial@3=False" in out

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

    @pytest.mark.parametrize("vertex", ["8", "99", "-1"])
    def test_moments_vertex_out_of_range(self, capsys, vertex):
        # a list index would raise past the last vertex and wrap below the first
        code, out, err = run(
            capsys, "moments", "--omega", ":012", "--level", "3", "--vertex", vertex
        )
        assert code == 2
        assert err == "error: --vertex must be in 0..7\n"
        assert "moments at" not in out

    def test_moments_level_checked_first(self, capsys):
        # the vertex range check shifted by the level: "negative shift count"
        code, out, err = run(capsys, "moments", "--omega", ":012", "--level", "-1")
        assert code == 1
        assert err == "error: n must be >= 1\n"
        assert "moments at" not in out

    def test_hulanicki_level_checked_first(self, capsys):
        # the window size shifted by the level: "negative shift count"
        code, out, err = run(
            capsys, "hulanicki", "--omega", ":012", "--target-level", "-1", "--radii", "4"
        )
        assert code == 1
        assert err == "error: n must be >= 1\n"
        assert "lambda" not in out

    def test_upsilon(self, capsys):
        code, out, _ = run(capsys, "upsilon", "--size", "3", "--dot")
        assert code == 0
        assert out.count("--") == 22  # 8 loops + 14 connecting edges

    @pytest.mark.parametrize("kind, size, count", [("ray", 5, 6), ("line", 3, 7)])
    def test_upsilon_kind(self, capsys, tmp_path, kind, size, count):
        out_file = tmp_path / "u.json"
        code, _, _ = run(
            capsys, "upsilon", "--kind", kind, "--size", str(size), "-o", str(out_file)
        )
        assert code == 0
        g = parse_graph(out_file.read_bytes())
        assert g.n == count
        assert all(g.degree(v) == 4 for v in g.vertices[1:-1])
        if kind == "ray":
            # three loops at the end, one at every other vertex
            loops = [sum(e.is_loop for e in g.edges if e.u == v) for v in g.vertices]
            assert loops == [3, 1, 1, 1, 1, 1]

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


class TestCertifiedLevelRoute:
    """``spectrum`` and ``sweep`` certify each level and read its spectrum
    off the closed form; a level that fails its certificate is refused."""

    def test_spectrum_reads_the_closed_form(self, capsys, monkeypatch):
        w = OmegaWord.parse("0:01")
        fold = markov_eigenvalues_banded(level_path_form(w, 6))

        def refuse(*args):
            raise AssertionError("the fold ran")

        monkeypatch.setattr(spectra, "_tridiagonal_eigvals", refuse)
        code, out, _ = run(capsys, "spectrum", "--omega", "0:01", "--level", "6")
        assert code == 0
        values = [line.split(",")[2] for line in out.splitlines()[2:]]
        assert values == [repr(v) for v in fold.tolist()]

    @pytest.mark.parametrize(
        "sub, level, vertex", [("spectrum", "--level", "00"), ("sweep", "--max-level", "0")]
    )
    def test_failed_certificate_exits_one(self, capsys, monkeypatch, sub, level, vertex):
        def fixed_a(w, n):  # a fixes every vertex; the sweep fails at level 1
            table = _generator_table(w, n).copy()
            table[0] = range(1 << n)
            return table

        monkeypatch.setattr(schreier, "_generator_table", fixed_a)
        code, out, err = run(capsys, sub, "--omega", ":012", level, "2")
        assert code == 1
        assert err == f"error: check 1: a fixes vertex {vertex}\n"
        assert "value" not in out
