import json

import pytest

from fluxsym.cli import main


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


def test_cases_json_to_stdout(tmp_path, capsys):
    code = main(["cases", "--case", "B", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "cases"
    assert data["schema_version"] == "1"


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


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_verify_invariance_without_a_ratio_fails(tmp_path, refine):
    code, out = run(tmp_path, "verify", "--case", "D", "--invariance",
                    "--refine", refine)
    assert code == 2
    assert json.loads(out.read_text())["invariance"]["ratios"] == []


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
    ["simulate", "--D", "1/"],
    ["simulate", "--D", "H(r)"],
    ["simulate", "--D", "a1"],
    ["simulate", "--r0", "2", "--r1", "1"],
    ["simulate", "--v", "-1"],
    ["simulate", "--v", "0"],
    ["simulate", "--v", "nan"],
    ["verify", "--case", "B", "--a3", "0", "--a4", "1"],
    ["verify", "--case", "D", "--invariance", "--eps", "0.9"],
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


def test_unwritable_out_is_a_one_line_error(tmp_path, capsys):
    code = main(["cases", "--case", "A",
                 "--out", str(tmp_path / "missing" / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("cases: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_gamma_pole_at_a_half_step_names_the_step(tmp_path, capsys):
    # t1 = 1 and nt = 8: the first half step is t = 1/16
    code, _ = run(tmp_path, "simulate", "--Gamma", "1/(t-1/16)",
                  "--nr", "8", "--nt", "8", "--csv", str(tmp_path / "f.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "simulate: non-finite coefficient at step 0\n"


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
                         (["derive"], {"geometry": 5}),
                         (["simulate"], {"bc_left": "foo"})):
        config.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(config), "--out", str(out)])
        assert exc.value.code == 2
        assert "config" in capsys.readouterr().err


def test_derive_seed_reaches_the_zero_tests(tmp_path, monkeypatch):
    from fluxsym import isovector
    seeds = []
    real = isovector.is_zero

    def recording(e, table, *args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(e, table, *args, **kwargs)
    monkeypatch.setattr(isovector, "is_zero", recording)
    assert main(["derive", "--seed", "7", "--out", str(tmp_path / "r.json")]) == 0
    assert seeds and set(seeds) == {7}
