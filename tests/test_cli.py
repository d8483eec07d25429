import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fluxsym
from fluxsym.cli import COMMANDS, _subcommands, build_parser, main


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_derive_report_schema(tmp_path):
    code, out = run(tmp_path, "derive", "--n", "symbolic")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == "1"
    assert data["command"] == "derive"
    solved = {c["name"]: c["solved"]
              for c in data["determining_system"]["constraints"]}
    assert solved == {"a5": "a5 = 0", "a7": "a7 = 0", "a8": "a8 = a6 - a2",
                      "geometry_lock": "n*a1 = 0"}
    statuses = {row["id"]: row["status"] for row in data["audit"]["rows"]}
    assert statuses["diffusion_gradient_lock"] == "not-derivable"
    assert data["audit"]["unknown_verdicts"] == 0
    for row in data["audit"]["rows"]:
        assert set(row["published"]) == {"text", "hash"}


def test_derive_planar_leaves_a1_unconstrained(tmp_path):
    code, out = run(tmp_path, "derive", "--n", "0")
    assert code == 0
    data = json.loads(out.read_text())
    names = [c["name"] for c in data["determining_system"]["constraints"]]
    assert "geometry_lock" not in names


def test_derive_strict_audit_exit_code(tmp_path):
    code, _ = run(tmp_path, "derive", "--strict-audit")
    assert code == 3


def test_cases_report(tmp_path, capsys):
    code, out = run(tmp_path, "cases")
    assert code == 0
    data = json.loads(out.read_text())
    assert [c["case"] for c in data["cases"]] == list("ABCDEF")
    for case in data["cases"]:
        assert case["D"]["back_substitution"]["verdict"] == "zero"
        assert case["Gamma"]["back_substitution"]["verdict"] == "zero"


def test_cases_single_case(tmp_path):
    code, out = run(tmp_path, "cases", "--case", "D")
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cases"]) == 1
    assert data["cases"][0]["D"]["symbol"] == "C"
    assert data["cases"][0]["D"]["similarity_argument"] is None


@pytest.mark.parametrize("case_id", "ABCDEF")
def test_a_single_case_is_its_entry_of_the_golden_file(tmp_path, capsys,
                                                       case_id):
    # solved on its own, a case keeps its families, its checks and the
    # earlier case it coincides with
    golden = json.loads(
        (Path(__file__).parent / "golden" / "cases.json").read_text())
    golden["cases"] = [c for c in golden["cases"] if c["case"] == case_id]
    assert main(["cases", "--case", case_id, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(golden, sort_keys=True,
                                                 indent=2) + "\n"


def test_cases_json_to_stdout(tmp_path, capsys):
    code = main(["cases", "--case", "B", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "cases"
    assert data["schema_version"] == "1"


def test_cases_report_matches_the_golden_file(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "cases.json"
    code, out = run(tmp_path, "cases", "--json", "--seed", "0")
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_closure(tmp_path):
    code, out = run(tmp_path, "verify", "--closure")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["closure"]["identically_zero"] is True
    assert data["constant_materials"]["constant_D"]["constraint"] == "a4 = 2*a2"


def test_verify_case_material_residuals(tmp_path):
    code, out = run(tmp_path, "verify", "--case", "B", "--a2", "1",
                    "--a3", "1", "--a4", "2", "--r0", "0.0", "--r1", "1.0",
                    "--amplitude", "1.0")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["material_residuals"]["res_D"] <= 1e-6
    assert data["material_residuals"]["res_Gamma"] <= 1e-6


def test_verify_tolerance_failure(tmp_path):
    code, _ = run(tmp_path, "verify", "--case", "B", "--a2", "1",
                  "--a3", "1", "--a4", "2", "--tol", "1e-12")
    assert code == 2


def test_verify_invariance_report(tmp_path):
    code, out = run(tmp_path, "verify", "--case", "D", "--invariance",
                    "--refine", "2", "--nr", "32", "--nt", "32")
    assert code == 0
    data = json.loads(out.read_text())
    ratios = data["invariance"]["ratios"]
    assert len(ratios) == 2
    assert 2.8 <= ratios[-1] <= 5.2


@pytest.mark.parametrize("case, argv", [
    *((case, ["--a3", "1"]) for case in "ABCDEF"),
    ("A", ["--a1", "0.3", "--a3", "1"]),
    ("D", ["--a1", "0.3", "--a3", "1"]),
], ids=[*(f"{case}-a3" for case in "ABCDEF"), "A-a1-a3", "D-a1-a3"])
def test_verify_invariance_holds_with_translations_on(tmp_path, case, argv):
    # the finite map is the flow of chi, so a member with a1*a2 != 0 or
    # a3*a4 != 0 keeps the O(h^2) rate: every ratio is close to 4
    code, out = run(tmp_path, "verify", "--case", case, "--invariance", *argv)
    assert code == 0
    ratios = json.loads(out.read_text())["invariance"]["ratios"]
    assert len(ratios) == 3
    assert all(abs(ratio - 4) < 0.2 for ratio in ratios), ratios


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_verify_invariance_without_a_ratio_fails(tmp_path, capsys,
                                                 monkeypatch, refine):
    # a study with no refinement yields no ratio: refused before any solve
    from fluxsym import cli
    monkeypatch.setattr(cli, "enumerate_cases", None)
    code, out = run(tmp_path, "verify", "--case", "D", "--invariance",
                    "--refine", refine)
    assert code == 2
    assert capsys.readouterr().err == (
        "verify: --invariance needs --refine of at least 1\n")
    assert not out.exists()


def test_verify_refuses_a_family_that_fails_back_substitution(
        tmp_path, capsys, monkeypatch):
    # the case's own back-substitution is read before anything is compiled
    from fluxsym import characteristics, cli
    original = characteristics.back_substitute

    def gamma_nonzero(sol, pde, model, tol=1e-10):
        check = original(sol, pde, model, tol)
        return check._replace(verdict="nonzero") if sol.func == "Gamma" \
            else check
    monkeypatch.setattr(characteristics, "back_substitute", gamma_nonzero)
    compiled = []
    monkeypatch.setattr(cli, "compile_numeric", lambda *a, **k:
                        compiled.append(a))
    code, out = run(tmp_path, "verify", "--case", "D", "--a3", "1")
    assert code == 2
    assert capsys.readouterr().err == (
        "verify: case D: the Gamma family fails back-substitution "
        "(nonzero)\n")
    assert not out.exists()
    assert compiled == []


@pytest.mark.parametrize("command", ["derive", "simulate"])
def test_tol_is_only_an_option_of_cases_and_verify(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--tol", "5")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["derive", "--n", "5"],
    ["simulate", "--n", "7"],
    ["simulate", "--nr", "0"],
    ["verify", "--case", "D", "--nr", "2"],
    ["simulate", "--bc-left", "foo"],
    ["simulate", "--bc-left", "dirichlet:abc"],
    ["simulate", "--bc-left", "dirichlet:nan"],
    ["simulate", "--bc-right", "dirichlet:inf"],
    ["simulate", "--D", "1/"],
    ["simulate", "--D", "H(r)"],
    ["simulate", "--D", "a1"],
    ["simulate", "--r0", "2", "--r1", "1"],
    ["simulate", "--v", "-1"],
    ["simulate", "--v", "0"],
    ["simulate", "--v", "nan"],
    # a constant past the float range
    ["simulate", "--D", "10^400"],
    ["simulate", "--Gamma", "10^400"],
    ["simulate", "--initial", "10^400"],
    ["simulate", "--D", "10^1000000"],
    ["verify", "--case", "B", "--a3", "0", "--a4", "1"],
    ["verify", "--case", "B", "--a1", "1", "--a2", "0", "--a3", "0",
     "--a4", "0"],
    ["verify", "--case", "D", "--invariance", "--eps", "0.9"],
    # at eps = 0 the map is the identity: the ratios read 4.00, 4.00 with no
    # symmetry tested
    ["verify", "--case", "D", "--a3", "1", "--eps", "0", "--invariance",
     "--refine", "2"],
    ["verify", "--case", "D", "--a3", "-0.5"],
    ["verify", "--invariance"],
    ["derive", "--config", "missing.json"],
    ["derive", "--config", "invalid.json"],
], ids=" ".join)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    # argparse exits 2 itself; an error the command raises becomes a
    # one-line message "<command>: ..." and exit code 2
    (tmp_path / "invalid.json").write_text("{nope")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    try:
        code = main(argv + ["--out", str(tmp_path / "r.json")])
    except SystemExit as exc:
        code = exc.code
    else:
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "B", "--a1", "0.5", "--a3", "1", "--tol", "nan"],
    ["verify", "--tol", "0"],
    ["verify", "--tol=-1e-6"],
    ["verify", "--tol", "inf"],
    ["cases", "--tol", "nan"],
    ["cases", "--tol", "0"],
    ["verify", "--eps", "nan"],
    ["verify", "--amplitude", "inf"],
    ["verify", "--a1", "nan"],
    ["verify", "--a2", "inf"],
    ["verify", "--a3=-inf"],
    ["verify", "--a4", "nan"],
    ["verify", "--a6", "nan"],
    ["verify", "--r0", "nan"],
    ["verify", "--r1", "inf"],
    ["verify", "--t1", "nan"],
    ["simulate", "--r0", "nan"],
    ["simulate", "--r1", "nan"],
    ["simulate", "--t1", "inf"],
    ["simulate", "--v", "inf"],
    ["simulate", "--v", "abc"],
], ids=" ".join)
def test_a_bad_number_is_a_usage_error_of_its_flag(tmp_path, capsys, argv):
    # a NaN tolerance would pass every check (max(...) > nan is False)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    flag = argv[-1].partition("=")[0] if "=" in argv[-1] else argv[-2]
    assert f"argument {flag}: expected a " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_dirichlet_value_is_a_usage_error_of_its_flag(tmp_path, capsys,
                                                                 value):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "simulate", "--bc-right", f"dirichlet:{value}")
    assert exc.value.code == 2
    assert f"argument --bc-right: bad boundary spec 'dirichlet:{value}'" in (
        capsys.readouterr().err)


def test_unwritable_out_is_a_one_line_error(tmp_path, capsys):
    code = main(["cases", "--case", "A",
                 "--out", str(tmp_path / "missing" / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("cases: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gamma_pole_at_a_half_step_names_the_step(tmp_path, capsys):
    # t1 = 1 and nt = 8: the first half step is t = 1/16
    code, _ = run(tmp_path, "simulate", "--Gamma", "1/(t-1/16)",
                  "--nr", "8", "--nt", "8", "--csv", str(tmp_path / "f.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "simulate: non-finite coefficient at step 0\n"


def _in_a_fresh_process(tmp_path, *argv):
    # in a fresh process, so that numpy's RuntimeWarnings would reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(fluxsym.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "fluxsym.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--Gamma", "1/(t-1/16)", "--nr", "8", "--nt", "8"],
     "simulate: non-finite coefficient at step 0"),
    (["verify", "--case", "B", "--invariance", "--refine", "2"],
     "verify: D must be positive and finite on the grid: at a3 = 0 the "
     "similarity argument of case B is infinite at t = 0, so D = G(xi) "
     "underflows to 0 near it; give --a3 other than 0"),
    # a pole on a grid row, which the half-step solver never evaluates
    (["simulate", "--Gamma", "1/(1000*t-500)", "--nr", "8", "--nt", "8",
      "--json"],
     "simulate: non-finite discrete residual at t = 0.5, r = 0.25"),
    # at a3 = 0 a negative a4*t makes D's time factor NaN: not the
    # underflow that the a3 hint names
    (["verify", "--case", "A", "--a2", "-1", "--a4", "-2"],
     "verify: D or its residual is not finite at the sampled points"),
], ids=["simulate-gamma-pole", "verify-case-B-invariance",
        "simulate-gamma-pole-on-a-node", "verify-case-A-nan-time-factor"])
def test_a_non_finite_material_prints_one_line(tmp_path, argv, message):
    done = _in_a_fresh_process(tmp_path, *argv)
    assert done.returncode == 2
    assert done.stderr == message + "\n"


@pytest.mark.parametrize("case, argv, message", [
    # a2 = 0 makes the similarity argument a1/a2 infinite: the compiled D
    # and Gamma would be 0 at every node and both residuals would read 0.0
    ("A", ["--a1", "1", "--a2", "0", "--a3", "1", "--a4", "1"],
     "the D family needs a2 != 0, got a2 = 0"),
    ("B", ["--a2", "-0", "--a3", "1", "--a4", "1"],
     "the D family needs a2 != 0, got a2 = -0"),
    ("D", ["--a3", "1", "--a4", "0"], "the D family needs a4 != 0, got a4 = 0"),
    ("F", ["--a2", "0", "--a3", "1"],
     "the Gamma family needs a2 != 0, got a2 = 0"),
    # B is solved under a1 = 0
    ("B", ["--a1", "1", "--a3", "1"], "the case needs a1 = 0, got a1 = 1"),
], ids=["A-a2", "B-negative-zero-a2", "D-a4", "F-a2", "B-a1"])
def test_verify_refuses_a_degenerate_family_member(tmp_path, capsys, case, argv,
                                                   message):
    code, out = run(tmp_path, "verify", "--case", case, *argv)
    assert code == 2
    assert capsys.readouterr().err == f"verify: case {case}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", "ABC")
def test_verify_names_a3_when_d_underflows_at_the_default(tmp_path, capsys,
                                                         case):
    # at the default a3 = 0 the similarity argument is infinite at t = 0,
    # so D = G(xi) underflows to 0 near it: the one line names the fix
    code, out = run(tmp_path, "verify", "--case", case)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--a3" in err
    assert not out.exists()


def test_verify_runs_at_a3_0_where_d_does_not_underflow(tmp_path):
    # a3 = 0 is not refused: on [0.5, 0.6] G(xi) stays positive
    code, _ = run(tmp_path, "verify", "--case", "A", "--r0", "0.5",
                  "--r1", "0.6", "--tol", "1e-5")
    assert code == 0


def test_verify_checks_that_a_gradient_free_d_has_no_r(tmp_path, capsys,
                                                        monkeypatch):
    # case E's D solves c_t D_t = growth D, and so does D*(1 + r): the
    # unconstrained condition, which verify checks, tells them apart
    from fluxsym import cli
    from fluxsym.characteristics import enumerate_cases
    from fluxsym.kernel import to_text
    from fluxsym.model import Model
    from fluxsym.parser import parse

    model = Model()
    case = enumerate_cases(model, ("E",))["E"]
    d_of_r = parse(f"({to_text(case.diffusion.expression)})*(1 + r)",
                   model.table)
    assert case.diffusion.xi is None
    monkeypatch.setattr(cli, "enumerate_cases", lambda model, case_ids: {
        "E": case._replace(
            diffusion=case.diffusion._replace(expression=d_of_r))})
    code, out = run(tmp_path, "verify", "--case", "E", "--a3", "1")
    assert code == 2
    assert json.loads(out.read_text())["material_residuals"]["res_D"] > 0.1
    assert capsys.readouterr().err == (
        "verify: material residual exceeds tolerance\n")


def test_verify_refuses_a_diffusion_that_vanishes_where_sampled(tmp_path,
                                                                 capsys):
    # the amplitude C of case D's constant D
    code, _ = run(tmp_path, "verify", "--case", "D", "--amplitude", "0")
    assert code == 2
    assert capsys.readouterr().err == (
        "verify: D must be positive and finite on the grid\n")


def test_simulate_writes_csv_and_sidecar(tmp_path):
    csv = tmp_path / "field.csv"
    code, out = run(tmp_path, "simulate", "--D", "1/2", "--Gamma", "1/10",
                    "--nr", "8", "--nt", "8", "--csv", str(csv))
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "r,t,phi"
    sidecar = json.loads(out.read_text())
    assert sidecar["material"] == {"D": "1/2", "Gamma": "1/10", "v": 1.0}
    assert sidecar["grid"]["n_r"] == 8


def test_a_failing_simulate_writes_no_csv(tmp_path):
    # the residual of the solved field is checked before any file is written
    csv = tmp_path / "pole.csv"
    code, out = run(tmp_path, "simulate", "--Gamma", "1/(1000*t-500)",
                    "--nr", "8", "--nt", "8", "--csv", str(csv))
    assert code == 2
    assert not csv.exists() and not out.exists()


def test_a_diffusion_negative_at_a_half_step_writes_no_csv(tmp_path, capsys):
    # D = 0.99 or more on every node t = k/32, and -0.01 at t = 1/64, the
    # first half step, where the solver evaluates it
    csv = tmp_path / "halfstep.csv"
    code, out = run(tmp_path, "simulate", "--D", "(64*t-1)^2 - 1/100",
                    "--nr", "8", "--nt", "32", "--csv", str(csv))
    assert code == 2
    assert capsys.readouterr().err == (
        "simulate: D must be positive and finite on the grid\n")
    assert not csv.exists() and not out.exists()


def test_a_failing_report_leaves_no_csv(tmp_path, capsys):
    # the CSV is written before the report: a report that cannot be written
    # takes this run's CSV with it
    csv = tmp_path / "f.csv"
    code = main(["simulate", "--nr", "8", "--nt", "8", "--csv", str(csv),
                 "--out", str(tmp_path / "missing" / "dir" / "r.json")])
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not csv.exists()


@pytest.mark.parametrize("argv", [
    ["--out", "field.csv"],                     # the default CSV path
    ["--csv", "a.csv", "--out", "./a.csv"],
])
def test_simulate_refuses_a_report_path_that_is_the_csv(tmp_path, monkeypatch,
                                                        capsys, argv):
    # the report would overwrite the field: refused before any solve, and
    # no file is written
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--nr", "8", "--nt", "8"] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "names the CSV file" in err
    assert list(tmp_path.iterdir()) == []


_ABOVE = "has a cell volume above the largest float"


@pytest.mark.parametrize("argv, message", [
    # r0^2 underflows to 0, or to a subnormal float whose reciprocal
    # overflows
    (["--r0", "1e-300", "--n", "2"], "the grid on [1e-300, 1] in geometry 2 "
     "has a cell volume 0 below the smallest normal float"),
    (["--r0", "1e-160", "--n", "2"], "the grid on [1e-160, 1] in geometry 2 "
     "has a cell volume 6.23e-322 below the smallest normal float"),
    # the exact r = 0 volume, or r^n, overflows
    (["--r1", "1e160", "--n", "2"],
     f"the grid on [0, 1e+160] in geometry 2 {_ABOVE}"),
    (["--r0", "1", "--r1", "1e160", "--n", "2"],
     f"the grid on [1, 1e+160] in geometry 2 {_ABOVE}"),
    (["--r0", "1", "--r1", "1e300", "--n", "1"],
     f"the grid on [1, 1e+300] in geometry 1 {_ABOVE}"),
    # the step's bands overflow
    (["--t1", "1e308"], "non-finite coefficient at step 0"),
    (["--v", "1e308"], "non-finite coefficient at step 0"),
    # and so do the products of a step, with v small enough that
    # |v dt/2 * Gamma| stays below 1
    (["--initial", "10^307", "--Gamma", "10^300", "--v", "1e-300"],
     "NaN detected at step 1"),
], ids=["1e-300-0", "1e-160-6.23e-322", "r0-0-r1-1e160-n2", "r1-1e160-n2",
        "r1-1e300-n1", "t1-1e308", "v-1e308", "initial-1e307-gamma-1e300"])
def test_a_grid_with_a_vanishing_cell_volume_is_a_one_line_error(tmp_path, argv,
                                                                 message):
    done = _in_a_fresh_process(tmp_path, "simulate", *argv, "--nr", "8",
                               "--nt", "8", "--csv", "grid.csv")
    assert done.returncode == 2
    assert done.stderr == f"simulate: {message}\n"
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("gamma", ["100", "-100"])
def test_a_step_that_flips_the_sign_of_phi_is_a_one_line_error(tmp_path,
                                                               gamma):
    # c = v dt/2 = 1/16, so |c Gamma| = 6.25: the steps once wrote phi with
    # alternating signs, 1, -1.38, 1.91, ... at r = 0.5 for Gamma = 100
    done = _in_a_fresh_process(tmp_path, "simulate", "--Gamma", gamma,
                               "--nr", "8", "--nt", "8", "--csv", "flip.csv")
    assert done.returncode == 2
    assert done.stderr == ("simulate: |v dt/2 * Gamma| >= 1 at step 0, so the "
                           "step flips the sign of phi: refine the time grid\n")
    assert not (tmp_path / "flip.csv").exists()


@pytest.mark.parametrize("argv, factor", [
    (["--a6", "40000"], "e^(eps*a6) = e^(800)"),
    (["--eps=-1e300"], "e^(-eps*a2) = e^(1e+300)"),
    # e^(-800) underflows to 0: the transformed field and its residuals
    # would all be 0
    (["--a6", "-40000"], "e^(eps*a6) = e^(-800)"),
    (["--eps=1e300"], "e^(-eps*a2) = e^(-1e+300)"),
], ids=["a6-40000", "eps-minus-1e300", "a6-minus-40000", "eps-1e300"])
def test_a_finite_map_past_the_float_range_is_a_one_line_error(tmp_path, argv,
                                                               factor):
    done = _in_a_fresh_process(tmp_path, "verify", "--case", "D",
                               "--invariance", "--a3", "1", *argv,
                               "--refine", "1")
    assert done.returncode == 2
    assert done.stderr == (f"verify: the finite map's factor {factor} is past "
                           f"the float range\n")


def test_verify_without_invariance_does_not_read_eps(tmp_path):
    code, _ = run(tmp_path, "verify", "--case", "D", "--a3", "1",
                  "--eps", "0")
    assert code == 0


def test_a_constant_power_past_the_bound_fails_at_once(tmp_path, capsys):
    # 10^(10^7) once took 8 s to multiply out before failing
    csv = tmp_path / "huge.csv"
    start = time.perf_counter()
    code = main(["simulate", "--D", "10^(10^7)", "--nr", "8", "--nt", "8",
                 "--csv", str(csv), "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == ("simulate: the constant power "
                                       "10^10000000 would take more than "
                                       "2^22 bits\n")
    assert elapsed < 1.0
    assert not csv.exists()


@pytest.mark.parametrize("diffusion, message", [
    # a pole is not a zero: poles that cancel, or a zero factor beside one,
    # are refused where the product is formed, in either factor order
    ("1/2 + (r-r)^(-1) - (t-t)^(-1)", "0^(-1) has a zero base"),
    ("1/2 + 0*(r-r)^(-1)", "0^(-1) has a zero base"),
    ("1/2 + (r-r)^(-1)*0", "0^(-1) has a zero base"),
    ("1/0", "0^(-1) has a zero base"),
    # a power of a sum is bounded by its term count, before it is formed
    ("(1 + r)^1000", "would expand to more than 400 terms"),
    ("(1 + r + t)^60", "would expand to more than 400 terms"),
])
def test_an_undefined_or_unbounded_diffusion_fails_at_once(tmp_path, capsys,
                                                           diffusion, message):
    csv = tmp_path / "d.csv"
    start = time.perf_counter()
    code = main(["simulate", "--D", diffusion, "--nr", "8", "--nt", "8",
                 "--csv", str(csv), "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - start
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err, err
    assert elapsed < 0.5
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("through_config", [False, True])
def test_an_empty_csv_path_is_refused(tmp_path, monkeypatch, capsys,
                                      through_config):
    # --csv "" names no file: it does not fall back to field.csv
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--nr", "8", "--nt", "8"]
    if through_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"csv": ""}))
        argv += ["--config", str(config)]
    else:
        argv += ["--csv", ""]
    code = main(argv)
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == (
        ["config.json"] if through_config else [])


def test_the_map_factor_is_checked_only_where_the_map_is_used(tmp_path):
    code, _ = run(tmp_path, "verify", "--case", "D", "--a3", "1",
                  "--a6", "40000")
    assert code == 0


def test_a_negative_number_in_exponent_notation_is_a_value():
    args = build_parser("verify").parse_args(
        ["verify", "--case", "D", "--eps", "-1e-3", "--a2", "-1e5"])
    assert args.eps == -0.001
    assert args.a2 == -100000.0


def test_an_undeclared_jet_is_a_one_line_error(tmp_path, capsys):
    # the standard table declares D_r and D_rr, not D_rrt
    csv = tmp_path / "x.csv"
    code = main(["simulate", "--D", "D_rrt", "--nr", "8", "--nt", "8",
                 "--csv", str(csv)])
    assert code == 2
    assert capsys.readouterr().err == (
        "simulate: undeclared symbol 'D_rrt' (byte 0)\n")
    assert not csv.exists()


def test_stencil_weights_that_underflow_warn_nothing(tmp_path):
    # dr^2 overflows in the cell volumes times dr, so the weights, about
    # 3e-615 exactly, are 0 as they would be anyway
    done = _in_a_fresh_process(tmp_path, "simulate", "--r1", "1e308",
                               "--nr", "8", "--nt", "8")
    assert done.returncode == 0
    assert done.stderr == ""


def test_derive_exits_2_on_an_unknown_zero_verdict(tmp_path, monkeypatch,
                                                    capsys):
    # an inconclusive zero test is never read as success: is_zero answers
    # unknown for every nonzero normal form
    from fluxsym import isovector
    from fluxsym.kernel import ZERO, ZeroVerdict, normalize
    real = isovector.is_zero
    monkeypatch.setattr(
        isovector, "is_zero", lambda e: real(e)
        if normalize(e) == ZERO else ZeroVerdict.UNKNOWN)
    code, out = run(tmp_path, "derive", "--n", "symbolic")
    assert code == 2
    assert capsys.readouterr().err == "unknown zero-verdicts present\n"
    assert json.loads(out.read_text())["audit"]["unknown_verdicts"] > 0


def test_verify_closure_exits_2_on_a_nonzero_residual(tmp_path, monkeypatch,
                                                      capsys):
    # mis-set the generator's action on D_r to zero
    from fluxsym import isovector
    from fluxsym.kernel import ZERO
    real = isovector._lie_symbol
    monkeypatch.setattr(
        isovector, "_lie_symbol",
        lambda s, gen, m: ZERO if s.name == "D_r" else real(s, gen, m))
    code, out = run(tmp_path, "verify", "--closure")
    assert code == 2
    assert capsys.readouterr().err == "verify: closure residual nonzero\n"
    assert json.loads(out.read_text())["closure"]["identically_zero"] is False


def test_verify_invariance_exits_2_on_a_ratio_outside_the_band(tmp_path,
                                                                capsys):
    # 6x6 and 12x12 cells are too coarse for the O(h^2) rate
    code, out = run(tmp_path, "verify", "--case", "D", "--invariance",
                    "--nr", "6", "--nt", "6", "--refine", "1")
    assert code == 2
    ratios = json.loads(out.read_text())["invariance"]["ratios"]
    assert len(ratios) == 1 and not 2.8 <= ratios[0] <= 5.2
    assert capsys.readouterr().err == (
        f"verify: invariance ratio {ratios[0]:.2f} outside 4 +/- 30%\n")


def test_reports_are_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["derive", "--seed", "0", "--out", str(first)]) == 0
    assert main(["derive", "--seed", "0", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_file_merges_under_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"case": "D", "seed": 5}))
    out = tmp_path / "r.json"
    code = main(["cases", "--config", str(config), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [c["case"] for c in data["cases"]] == ["D"]
    assert data["seed"] == 5
    # explicit flags win over the config file
    code = main(["cases", "--config", str(config), "--case", "B",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [c["case"] for c in data["cases"]] == ["B"]


def test_config_never_overrides_an_explicit_flag(tmp_path):
    # --nr equals its default (32) and still wins; nt and csv come from the
    # config file
    config = tmp_path / "config.json"
    csv = tmp_path / "from_config.csv"
    config.write_text(json.dumps({"nr": 8, "nt": 8, "csv": str(csv)}))
    out = tmp_path / "r.json"
    code = main(["simulate", "--nr", "32", "--config", str(config),
                 "--out", str(out)])
    assert code == 0
    grid = json.loads(out.read_text())["grid"]
    assert (grid["n_r"], grid["n_t"]) == (32, 8)
    assert csv.is_file()


@pytest.mark.parametrize("data", [[1, 2], "D", 3, None])
def test_a_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys,
                                                         data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--config", str(config)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "fluxsym derive: error: config file must hold a JSON object\n")


@pytest.mark.parametrize("argv, message", [
    (["--D", "exp(r,t)"], "exp takes one argument (byte 0)"),
    # 1/r is infinite at r0 = 0
    (["--initial", "1/r", "--r0", "0"],
     "initial profile must be finite node values"),
])
def test_simulate_refuses_a_bad_input_with_no_csv(tmp_path, capsys, argv,
                                                  message):
    csv = tmp_path / "field.csv"
    code, out = run(tmp_path, "simulate", *argv, "--nr", "8", "--nt", "8",
                    "--csv", str(csv))
    assert code == 2
    assert capsys.readouterr().err == f"simulate: {message}\n"
    assert not csv.exists() and not out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caes": "D"}))
    with pytest.raises(SystemExit):
        main(["cases", "--config", str(config)])
    config.write_text(json.dumps({"materials": "D"}))
    with pytest.raises(SystemExit):
        main(["cases", "--config", str(config)])
    # a key of another command is unknown to this one
    for command, key in (("derive", {"tol": 5}), ("cases", {"nr": 8})):
        config.write_text(json.dumps(key))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config)])
        assert exc.value.code == 2


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    csv = tmp_path / "field.csv"
    out = tmp_path / "r.json"
    # a value the flag's type reads is taken as the flag would take it
    config.write_text(json.dumps({"nr": "8", "nt": 8, "csv": str(csv)}))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    grid = json.loads(out.read_text())["grid"]
    assert (grid["n_r"], grid["n_t"]) == (8, 8)
    # anything the flag would refuse is a usage error, exit code 2
    for command, bad in ((["simulate"], {"nr": "eight"}),
                         (["simulate"], {"nr": 8.5}),
                         (["simulate"], {"nt": None}),
                         (["verify"], {"case": "Z"}),
                         (["verify"], {"closure": "yes"}),
                         (["verify"], {"tol": float("nan")}),
                         (["cases"], {"tol": 0}),
                         (["derive"], {"geometry": 5}),
                         (["simulate"], {"bc_left": "foo"})):
        config.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(config), "--out", str(out)])
        assert exc.value.code == 2
        assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("golden, argv", [
    ("derive_symbolic.json", ["derive", "--n", "symbolic"]),
    ("derive_n0.json", ["derive", "--n", "0"]),
    ("derive_n1.json", ["derive", "--n", "1"]),
    ("derive_n2.json", ["derive", "--n", "2"]),
    ("cases.json", ["cases"]),
], ids=["derive-symbolic", "derive-n0", "derive-n1", "derive-n2", "cases"])
def test_the_seed_is_only_a_label(tmp_path, golden, argv):
    # the zero tests and the back-substitution draw from one fixed stream:
    # a report run with another seed differs from the golden file, made
    # with seed 0, only in the seed it records
    code, out = run(tmp_path, *argv, "--seed", "7")
    assert code == 0
    text, n = re.subn(rb'^  "seed": 7(,?)$', rb'  "seed": 0\1',
                      out.read_bytes(), flags=re.MULTILINE)
    assert n == 1
    assert text == (Path(__file__).parent / "golden" / golden).read_bytes()


def _full_parser_text(capsys, argv):
    """(stdout, stderr, exit code) of the parser holding every command's
    arguments, on `argv`."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


@pytest.mark.parametrize("argv", [
    ["--help"], ["derive", "--help"], ["cases", "--help"],
    ["verify", "--help"], ["simulate", "--help"], [], ["nosuch"],
    ["derive", "--n", "5"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_the_running_command_parser_reads_as_the_full_one(monkeypatch, capsys,
                                                           argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _full_parser_text(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (out, err, exc.value.code) == expected


def test_only_the_running_command_gets_its_arguments():
    parser = build_parser("derive")
    options = {name: [a.dest for a in p._actions]
               for name, p in _subcommands(parser).items()}
    assert options.keys() == COMMANDS.keys()
    assert "geometry" in options["derive"]
    for name in ("cases", "verify", "simulate"):
        assert options[name] == ["help"]
