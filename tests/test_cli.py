import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcvm import normal as nk
from tcvm.cli import main
from tcvm.table import embedded_table


def run_cli(argv, monkeypatch=None, env=None):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def normal_file(tmp_path, rng):
    path = tmp_path / "normal.txt"
    np.savetxt(path, rng.normal(5.0, 2.0, size=50))
    return str(path)


@pytest.fixture
def lognormal_file(tmp_path, rng):
    path = tmp_path / "lognormal.txt"
    np.savetxt(path, np.exp(rng.standard_normal(50)))
    return str(path)


class TestTables:
    def test_byte_stable(self):
        _, first = run_cli(["tables"])
        _, second = run_cli(["tables"])
        assert first == second

    def test_reference_rows(self):
        code, text = run_cli(["tables"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,0.15,0.1,0.075,0.05,0.025,0.01,0.001,a_n,C_n"
        assert (
            "10,0.7547,0.8525,0.9259,1.0203,1.1917,1.4128,1.9025,1.2816,28.5798"
            in lines
        )
        assert len(lines) == 197

    def test_round_trips_through_parser(self, tmp_path):
        from tcvm.table import CriticalValueTable

        _, text = run_cli(["tables"])
        parsed = CriticalValueTable.from_csv(text)
        emb = embedded_table()
        assert parsed.sizes == emb.sizes
        assert parsed.rows[157].critical_values == emb.rows[157].critical_values


class TestTest:
    def test_normal_data_accepts(self, normal_file):
        code, text = run_cli(["test", normal_file])
        assert code == 0
        header, row = text.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["n"] == "50"
        assert record["reject"] == "false"
        assert float(record["critical_value"]) == 1.6897

    def test_lognormal_data_rejects(self, lognormal_file):
        code, text = run_cli(["test", lognormal_file, "--format", "json"])
        assert code == 0
        record = json.loads(text)
        assert record["reject"] is True
        assert record["n"] == 50

    def test_affine_image_same_statistic(self, tmp_path, rng):
        x = rng.standard_normal(50)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        np.savetxt(p1, x)
        np.savetxt(p2, 2.0 * x + 5.0)
        _, t1 = run_cli(["test", str(p1), "--format", "json"])
        _, t2 = run_cli(["test", str(p2), "--format", "json"])
        s1 = json.loads(t1)["t_star"]
        s2 = json.loads(t2)["t_star"]
        assert s2 == pytest.approx(s1, abs=1e-9)

    def test_repeat_run_identical(self, normal_file):
        _, t1 = run_cli(["test", normal_file])
        _, t2 = run_cli(["test", normal_file])
        assert t1 == t2

    def test_header_is_skipped(self, tmp_path, rng):
        path = tmp_path / "with_header.csv"
        path.write_text("value\n" + "\n".join(str(v) for v in rng.normal(size=12)))
        code, text = run_cli(["test", str(path)])
        assert code == 0
        assert '"n": 12' in text or text.splitlines()[1].startswith("12,")

    def test_non_numeric_line_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nbogus\n3.0\n")
        code, _ = run_cli(["test", str(path)])
        assert code == 3
        assert ":3:" in capsys.readouterr().err

    def test_too_few_values_exit_3(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1.0\n2.0\n")
        assert run_cli(["test", str(path)])[0] == 3

    def test_constant_data_exit_3(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("2.0\n" * 10)
        assert run_cli(["test", str(path)])[0] == 3

    def test_small_n_coverage_error_exit_3(self, tmp_path, rng):
        path = tmp_path / "seven.txt"
        np.savetxt(path, rng.normal(size=7))
        assert run_cli(["test", str(path)])[0] == 3

    def test_user_table_override(self, normal_file, tmp_path):
        custom = tmp_path / "table.csv"
        custom.write_text("n,0.05,a_n,C_n\n50,0.0001,2.0537,534.8787\n")
        code, text = run_cli(["test", normal_file, "--table", str(custom)])
        assert code == 0
        assert text.strip().splitlines()[1].split(",")[8] == "true"  # reject

    def test_multi_field_line_exit_3(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("1.0,2.0\n3.0\n4.0\n")
        code, _ = run_cli(["test", str(path)])
        assert code == 3
        assert "single value" in capsys.readouterr().err

    def test_interpolated_flag_between_rows(self, tmp_path, rng):
        path = tmp_path / "n210.txt"
        np.savetxt(path, rng.standard_normal(210))
        code, text = run_cli(["test", str(path), "--format", "json"])
        assert code == 0
        record = json.loads(text)
        assert record["interpolated"] is True
        assert record["n"] == 210


class TestCritvals:
    def test_shape_and_determinism(self):
        args = ["critvals", "--n-range", "10..12", "--reps", "400", "--seed", "3"]
        code, text = run_cli(args)
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",") == [
            "n", "0.15", "0.1", "0.075", "0.05", "0.025", "0.01", "0.001", "a_n", "C_n",
        ]
        assert all(len(ln.split(",")) == 10 for ln in lines[1:])
        _, again = run_cli(args)
        assert text == again

    def test_deterministic_columns_independent_of_reps(self):
        _, t1 = run_cli(["critvals", "--n", "15", "--reps", "200", "--seed", "1"])
        _, t2 = run_cli(["critvals", "--n", "15", "--reps", "900", "--seed", "8"])
        a1, c1 = t1.strip().splitlines()[1].split(",")[-2:]
        a2, c2 = t2.strip().splitlines()[1].split(",")[-2:]
        assert (a1, c1) == (a2, c2)
        assert float(a1) == pytest.approx(nk.endpoint(15).a_n, rel=1e-12)
        assert float(c1) == pytest.approx(nk.c_n(15), rel=1e-12)

    def test_bad_range_exit(self):
        code, _ = run_cli(["critvals", "--n-range", "12..4"])
        assert code == 3

    @pytest.mark.parametrize(
        "extra", [["--alphas", "0.0"], ["--alphas", "0.05,1"], ["--workers", "-3"]]
    )
    def test_invalid_run_exit_2(self, extra, capsys):
        code, text = run_cli(["critvals", "--n", "10", "--reps", "200"] + extra)
        assert code == 2
        assert text == ""
        assert "tcvm: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [["--n", "3"], ["--n-range", "3..5"]])
    def test_n3_exit_2_names_atom(self, sizes, capsys):
        code, text = run_cli(["critvals", "--reps", "200"] + sizes)
        assert (code, text) == (2, "")
        assert "atom" in capsys.readouterr().err


class TestPower:
    def test_csv_layout(self):
        code, text = run_cli(
            [
                "power", "--alt", "Unif(0,1)", "--alt", "Beta(2,2)",
                "--n", "15", "--reps", "300", "--cv-reps", "500", "--seed", "5",
            ]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "alternative,tcvm,cvm,bcmr,ad,sw"
        assert len(lines) == 3
        assert lines[1].startswith("Unif(0,1),")

    def test_json_contains_stderr(self):
        code, text = run_cli(
            [
                "power", "--alt", "t(5)", "--tests", "tcvm,sw", "--n", "12",
                "--reps", "200", "--cv-reps", "400", "--seed", "5",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(text)
        assert set(payload[0]["power"]) == {"tcvm", "sw"}
        assert set(payload[0]["stderr"]) == {"tcvm", "sw"}

    def test_cvm_past_erfi_range_rejects(self):
        # Lognormal(0,3) at n = 3000 standardizes some replications past
        # |y| = 26 sqrt(2); their CVM is +inf instead of aborting the run
        code, text = run_cli(
            [
                "power", "--alt", "Lognormal(0,3)", "--n", "3000", "--reps", "300",
                "--cv-reps", "300", "--tests", "tcvm,cvm,ad",
            ]
        )
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "alternative,tcvm,cvm,ad"
        assert float(row.split(",")[2]) == 1.0

    def test_unknown_family_exit(self):
        code, _ = run_cli(["power", "--alt", "Nope(1)", "--reps", "100"])
        assert code == 3

    def test_nan_parameter_refused_before_calibration(self, monkeypatch, capsys):
        from tcvm import engine

        def refuse(*args):
            raise AssertionError("drew a block for a nan parameter")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        code, text = run_cli(
            ["power", "--alt", "Normal(0,nan)", "--n", "20", "--reps", "100",
             "--cv-reps", "200", "--tests", "ad"]
        )
        assert (code, text) == (3, "")
        assert "must not be nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--reps", "0"], "need reps >= 1"),
            (["--cv-reps", "10"], "need reps >= 100"),
            (["--workers", "-3"], "need workers >= 1"),
            (["--alpha", "0.0"], "alpha"),
            (["--alpha", "1.5"], "alpha"),
            # draws 5.0 every time: SW and BCMR divided by zero and read 0.0
            (["--alt", "Normal(5,1e-300)", "--tests", "sw,bcmr"], "sample is constant"),
        ],
    )
    def test_invalid_run_exit_2(self, extra, message, capsys):
        argv = ["power", "--alt", "Normal(0,1)", "--n", "12", "--reps", "100",
                "--cv-reps", "200"]
        code, text = run_cli(argv + extra)
        assert code == 2
        assert text == ""
        assert message in capsys.readouterr().err


    def test_n3_exit_2_with_tcvm(self, capsys):
        argv = ["power", "--alt", "Normal(0,1)", "--n", "3", "--reps", "200",
                "--cv-reps", "200"]
        code, text = run_cli(argv + ["--tests", "tcvm,ad"])
        assert (code, text) == (2, "")
        assert "atom" in capsys.readouterr().err
        code, text = run_cli(argv + ["--tests", "ad"])
        assert code == 0
        assert text.splitlines()[0] == "alternative,ad"

    def test_oversized_n_exit_2(self, monkeypatch, capsys):
        from tcvm import engine

        def refuse(*args):
            raise AssertionError("drew a block for an invalid n")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        code, text = run_cli(
            ["power", "--alt", "Normal(0,1)", "--n", "20000000", "--reps", "1",
             "--cv-reps", "100"]
        )
        assert (code, text) == (2, "")
        assert "n <= 10,000,000" in capsys.readouterr().err

    def test_out_of_memory_exit_3(self, monkeypatch, capsys):
        from tcvm import engine

        def no_memory(*args):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(engine, "_draw_block", no_memory)
        code, text = run_cli(
            ["power", "--alt", "Normal(0,1)", "--n", "10000000", "--reps", "1",
             "--cv-reps", "100"]
        )
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("tcvm: error: out of memory (Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestOtherCommands:
    def test_constant_c_runs(self):
        code, text = run_cli(
            ["constant-c", "--n", "120", "--reps", "150", "--seed", "2"]
        )
        assert code == 0
        header, row = text.strip().splitlines()
        assert header.split(",") == ["n", "reps", "seed", "c_hat", "stderr"]

    def test_verify_moments_runs(self):
        code, text = run_cli(
            [
                "verify-moments", "--x", "0", "--y", "0", "--n", "10",
                "--reps", "20000", "--seed", "4", "--format", "json",
            ]
        )
        assert code == 0
        record = json.loads(text)
        assert abs(record["z_score"]) < 6.0

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_verify_moments_non_finite_exit_2(self, x, capsys):
        code, text = run_cli(
            ["verify-moments", f"--x={x}", "--y", "0.5", "--n", "10", "--reps", "20000"]
        )
        assert (code, text) == (2, "")
        assert "finite" in capsys.readouterr().err


class TestSeedHandling:
    def test_env_seed_default(self, monkeypatch):
        args = ["critvals", "--n", "10", "--reps", "300"]
        monkeypatch.setenv("TCVM_SEED", "11")
        _, with_env = run_cli(args)
        monkeypatch.setenv("TCVM_SEED", "12")
        _, with_other = run_cli(args)
        assert with_env != with_other

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("TCVM_SEED", "11")
        _, flagged = run_cli(["critvals", "--n", "10", "--reps", "300", "--seed", "7"])
        monkeypatch.delenv("TCVM_SEED")
        _, bare = run_cli(["critvals", "--n", "10", "--reps", "300", "--seed", "7"])
        assert flagged == bare


# Values per option for the fuzz test below.  Every in-range value keeps a
# run small (n <= 200, reps <= 1,000, workers <= 2); the rest are out of
# domain or not numbers at all.
_FUZZ_VALUES = {
    "data": ["normal.txt", "flat.txt", "tiny.txt", "nan.txt", "seven.txt", "missing.txt"],
    "--n": ["0", "-3", "x", "1e9", "3", "4", "10", "57", "200"],
    "--n-range": ["10..12", "3..5", "12..4", "199..200", "0..2", "x"],
    "--reps": ["0", "-3", "x", "1e9", "1", "100", "257", "1000"],
    "--cv-reps": ["0", "-3", "x", "1e9", "10", "100", "1000"],
    "--workers": ["0", "-3", "x", "1", "2"],
    "--seed": ["0", "7", "-1", "x", str(2**64)],
    "--alpha": ["0", "0.05", "0.03", "0.1", "1.5", "-3", "nan", "x"],
    "--alphas": ["0.05", "0.1,0.01", "0.0", "0.05,1", "x"],
    "--alt": [
        "Normal(0,1)", "Normal(5,1e-300)", "TruncN(9,10)", "TruncN(-50,-40)",
        "Beta(2,1)", "Normal(0,nan)", "Nope(1)",
    ],
    "--tests": ["all", "sw,bcmr", "sw", "bcmr", "tcvm,ad", "nope"],
    "--x": ["0", "0.5", "-1e9", "nan", "inf", "x"],
    "--y": ["0", "1.5", "x"],
    "--format": ["csv", "json", "xml"],
    "--table": ["table.csv", "junk.txt", "missing.csv"],
}
_FILES = _FUZZ_VALUES["data"] + _FUZZ_VALUES["--table"]
_COMMON = ["--seed", "--workers", "--format"]
# per command: the options a run starts with, drawn; the arguments it
# starts with as they are (small stand-ins for defaults that would make a
# run large); and the options its fragments draw from.  A later fragment
# overrides a start value.
_FUZZ_COMMANDS = {
    "test": (["data"], [], ["--alpha", "--table", "--format"]),
    "critvals": (
        [], ["--n", "10", "--reps", "200"], ["--n", "--n-range", "--alphas", "--reps"] + _COMMON
    ),
    "power": (
        ["--alt", "--tests"],
        ["--reps", "200", "--cv-reps", "200"],
        ["--alt", "--n", "--alpha", "--reps", "--cv-reps"] + _COMMON,
    ),
    "tables": ([], [], ["--format"]),
    "constant-c": ([], ["--n", "120", "--reps", "150"], ["--n", "--reps"] + _COMMON),
    "verify-moments": (
        [], ["--x", "0", "--y", "0.5", "--reps", "1000"], ["--x", "--y", "--n", "--reps"] + _COMMON
    ),
    "nope": ([], [], ["--n"]),
}


def _option(flag):
    values = st.sampled_from(_FUZZ_VALUES[flag])
    return values.map(lambda v: [v] if flag == "data" else [flag, v])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    drawn, start, options = _FUZZ_COMMANDS[command]
    fragment = st.one_of(
        st.sampled_from(options).flatmap(_option),
        st.sampled_from(["--bogus", "--n", "--help", "flat.txt"]).map(lambda t: [t]),
    )
    frags = [draw(_option(flag)) for flag in drawn] + draw(st.lists(fragment, max_size=4))
    return [command] + start + [t for frag in frags for t in frag]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    np.savetxt(d / "normal.txt", np.random.default_rng(1).normal(5.0, 2.0, size=40))
    (d / "flat.txt").write_text("2.0\n" * 10)
    (d / "tiny.txt").write_text("1.0\n2.0\n")
    (d / "nan.txt").write_text("1.0\nnan\n2.0\n3.0\n")
    np.savetxt(d / "seven.txt", np.arange(7.0))
    (d / "table.csv").write_text("n,0.05,a_n,C_n\n40,1.6,1.96,400.0\n")
    (d / "junk.txt").write_text("not a table\n")
    return d


_SMALL_POWER = ["--tests", "sw,bcmr", "--n", "20", "--reps", "200", "--cv-reps", "200"]


@settings(deadline=None, max_examples=200)
@given(_argv())
@example(["power", "--alt", "Normal(5,1e-300)"] + _SMALL_POWER)
@example(["power", "--alt", "TruncN(9,10)"] + _SMALL_POWER)
def test_any_argv_exits_0_2_or_3_without_traceback(fuzz_dir, argv):
    argv = [str(fuzz_dir / t) if t in _FILES else t for t in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=io.StringIO())
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
