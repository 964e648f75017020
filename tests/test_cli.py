import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowzero
from lowzero import bounds, rayleigh, testfunction
from lowzero.cli import main
from lowzero.symmetry import Symmetry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    record = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        record[key] = value
    return record


def test_bound_orthogonal(capsys):
    code, out, _ = run(capsys, "bound", "--symmetry", "O", "--nu-max", "2")
    assert code == 0
    record = parse_kv(out)
    assert record["branch"] == "small_support"
    assert 0.18 < float(record["bound"]) < 0.19
    assert record["lambda"] == ""


def test_bound_unitary(capsys):
    code, out, _ = run(capsys, "bound", "--symmetry", "U", "--nu-max", "2")
    assert code == 0
    assert float(parse_kv(out)["bound"]) == pytest.approx(0.25, rel=1e-12)


def test_bound_oracle_check(capsys):
    code, out, _ = run(
        capsys, "bound", "--symmetry", "Sp", "--nu-max", "2", "--oracle-check"
    )
    assert code == 0
    record = parse_kv(out)
    assert float(record["oracle_gap"]) <= 5e-3
    assert record["branch"] == "transcendental"
    assert float(record["m_tilde"]) == pytest.approx(
        (float(record["lambda"]) / (2 * math.pi)) ** 2, rel=1e-12
    )


def test_bound_symplectic_large_support(capsys):
    # past R = 9 the continuity matrix has n >= 19 rows, yet cond(M) < 1e6
    code, out, _ = run(
        capsys, "bound", "--symmetry", "Sp", "--nu-max", "19.4", "--oracle-check",
        "--trunc", "1940",
    )
    assert code == 0
    record = parse_kv(out)
    assert float(record["bound"]) <= float(record["oracle"])
    assert float(record["oracle_gap"]) <= 1e-8


def test_bound_root_inside_exclusion_window(capsys):
    # the root lies within 1e-6 of the excluded frequency cos(pi/5), so both
    # ends of that exclusion window agree in sign
    code, out, _ = run(
        capsys, "bound", "--symmetry", "SO+", "--nu-max", "3.5784491015624997",
        "--oracle-check", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert float(record["oracle_gap"]) <= 1e-9


def test_bound_oracle_check_uses_solved_support(capsys, monkeypatch):
    nu = 2.0
    real_oracle = rayleigh.sqrt_quotient
    oracle_supports = []

    def recording_oracle(g, radius, trunc):
        oracle_supports.append(radius)
        return real_oracle(g, radius, trunc)

    monkeypatch.setattr(rayleigh, "sqrt_quotient", recording_oracle)
    code, out, _ = run(capsys, "bound", "--symmetry", "Sp", "--nu-max", str(nu), "--oracle-check")
    assert code == 0
    assert oracle_supports == [nu / 2 - 1e-5]
    assert float(parse_kv(out)["oracle_gap"]) <= 5e-3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bound_above_its_oracle_exits_1(capsys, monkeypatch, fmt):
    """The oracle bounds the minimum from above, so a bound more than 1e-9
    above it is a wrong root: stdout as on success, one stderr line, exit 1."""
    argv = ["bound", "--symmetry", "SO+", "--nu-max", "2", "--oracle-check", "--format", fmt]
    result = bounds.height_bound_result(Symmetry.SOplus, 2.0)
    for share, code in ((1 - 1e-12, 0), (1 - 1e-6, 1)):
        oracle = result.bound * share
        monkeypatch.setattr(rayleigh, "sqrt_quotient", lambda g, R, trunc: oracle)
        got, out, err = run(capsys, *argv)
        record = json.loads(out) if fmt == "json" else parse_kv(out)
        assert got == code
        assert record["oracle"] == format(oracle, ".17g")
        assert record["bound"] == format(result.bound, ".17g")
        if code == 0:
            assert err == ""
        else:
            assert err == (
                f"error: bound {result.bound:.17g} lies above its oracle {oracle:.17g} "
                f"for SO+ at R={result.support!r} (N=400)\n"
            )


def test_bound_json_format(capsys):
    code, out, _ = run(
        capsys, "bound", "--symmetry", "SO+", "--nu-max", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["symmetry"] == "SO+"
    assert float(record["bound"]) <= 0.22
    code, out, _ = run(
        capsys, "bound", "--symmetry", "Sp", "--nu-max", "7.3", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["branch"] == "transcendental"
    assert set(record) == {"symmetry", "nu_max", "bound", "branch", "lambda", "m_tilde"}


def test_bound_ascii_alias(capsys):
    code_a, out_a, _ = run(capsys, "bound", "--symmetry", "SOminus", "--nu-max", "1.5")
    code_b, out_b, _ = run(capsys, "bound", "--symmetry", "SO-", "--nu-max", "1.5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "--symmetry", "O", "--nu-max", "2", "--frobnicate"])
    assert err.value.code == 2


def test_bad_symmetry_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "--symmetry", "GUE", "--nu-max", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity", "-NaN"])
@pytest.mark.parametrize(
    "argv,option",
    [
        (["bound", "--symmetry", "SO+"], "--nu-max"),
        (["bound", "--symmetry", "U"], "--nu-max"),
        (["curve", "--symmetry", "Sp", "--nu-to", "3"], "--nu-from"),
        (["curve", "--symmetry", "Sp", "--nu-from", "1"], "--nu-to"),
        (["proportion", "--family", "Hr", "--r", "2"], "--beta"),
        (["testfn", "--symmetry", "Sp"], "--R"),
        (["testfn", "--symmetry", "O"], "--R"),
    ],
)
def test_non_finite_float_is_usage_error(argv, option, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + [f"{option}={value}"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: not a finite number: {value!r}\n")


def test_non_numeric_float_keeps_its_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "--symmetry", "O", "--nu-max", "two"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --nu-max: invalid float value: 'two'\n")


def test_curve_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code = main(
        [
            "curve",
            "--symmetry",
            "Sp",
            "--nu-from",
            "1.0",
            "--nu-to",
            "3.0",
            "--steps",
            "25",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "nu_max,bound,branch"
    assert len(lines) == 26
    rows = [line.split(",") for line in lines[1:]]
    nus = [float(r[0]) for r in rows]
    bounds_col = [float(r[1]) for r in rows]
    assert nus == sorted(nus)
    assert all(a > b for a, b in zip(bounds_col, bounds_col[1:]))
    raw = out_file.read_bytes()
    assert b"\r" not in raw


def test_curve_through_roots_near_excluded_frequencies(tmp_path):
    out_file = tmp_path / "so_minus.csv"
    code = main(
        [
            "curve", "--symmetry", "SO-", "--nu-from", "1", "--nu-to", "3",
            "--steps", "100", "--out", str(out_file),
        ]
    )
    assert code == 0
    rows = out_file.read_text().splitlines()[1:]
    assert len(rows) == 100
    bounds_col = [float(r.split(",")[1]) for r in rows]
    assert all(a >= b for a, b in zip(bounds_col, bounds_col[1:]))


def test_curve_deterministic(tmp_path):
    args = [
        "curve", "--symmetry", "SO-", "--nu-from", "0.4", "--nu-to", "2.6",
        "--steps", "12",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_curve_ordering_across_symmetries(tmp_path):
    columns = {}
    for name in ("Sp", "U", "SO+", "O", "SO-"):
        path = tmp_path / f"{name.replace('+', 'p').replace('-', 'm')}.csv"
        assert (
            main(
                [
                    "curve", "--symmetry", name, "--nu-from", "0.3", "--nu-to", "2.9",
                    "--steps", "9", "--out", str(path),
                ]
            )
            == 0
        )
        columns[name] = [
            float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]
        ]
    order = ["Sp", "U", "SO+", "O", "SO-"]
    for i in range(9):
        stack = [columns[name][i] for name in order]
        assert all(a >= b - 1e-12 for a, b in zip(stack, stack[1:]))


def test_curve_bad_range(capsys):
    code = main(
        ["curve", "--symmetry", "O", "--nu-from", "2", "--nu-to", "1", "--steps", "5"]
    )
    assert code == 2


def test_curve_needs_two_steps(capsys):
    argv = ["curve", "--symmetry", "O", "--nu-from", "1", "--nu-to", "2", "--steps", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --steps must be at least 2\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_failing_curve_writes_nothing(to_file, tmp_path, capsys):
    # the first row's bound fails: no header or partial CSV may be left
    argv = ["curve", "--symmetry", "O", "--nu-from", "-2", "--nu-to", "-1", "--steps", "2"]
    path = tmp_path / "curve.csv"
    code, out, err = run(capsys, *argv, *(["--out", str(path)] if to_file else []))
    assert code == 2 and out == ""
    assert err == "error: nu_max must be positive\n"
    assert not path.exists()


NUMPY_REFUSAL = (
    "Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--symmetry", "SO+", "--nu-max", "2", "--oracle-check", "--trunc", "200000"],
        ["verify", "--grid-size", "1", "--trunc", "200000"],
    ],
    ids=["bound", "verify"],
)
@pytest.mark.parametrize(
    "message, expected",
    [
        (NUMPY_REFUSAL, NUMPY_REFUSAL),
        ("", "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_oracle_too_large_for_memory_is_usage_error(argv, message, expected, capsys, monkeypatch):
    # numpy refuses a 200000 x 200000 form at once; stand in for it without
    # allocating anything
    def refuse(g, R, N):
        assert N == 200000
        raise MemoryError(message)

    monkeypatch.setattr(rayleigh, "assemble_forms", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {expected}\n"


def test_proportion_full_family(capsys):
    code, out, _ = run(
        capsys, "proportion", "--family", "Hr", "--r", "1", "--beta", "1.0"
    )
    assert code == 0
    record = parse_kv(out)
    assert record["cleared"] == "True"
    assert float(record["lower_bound"]) > 0.8


def test_proportion_below_threshold(capsys):
    code, out, _ = run(
        capsys, "proportion", "--family", "Hr", "--r", "1", "--beta", "0.3"
    )
    assert code == 0
    assert "not applicable (below threshold)" in out


def test_proportion_signed_at_threshold(capsys):
    code, out, _ = run(
        capsys, "proportion", "--family", "Hrpm", "--r", "3", "--sign", "-1",
        "--beta", "100",
    )
    assert code == 0
    record = parse_kv(out)
    assert 0.0 < float(record["lower_bound"]) < 1.0


def test_proportion_even_r_rejected(capsys):
    for r, sign in (("2", "-1"), ("0", "+1"), ("-1", "+1"), ("-2", "-1")):  # r <= 0 too
        code, out, err = run(
            capsys, "proportion", "--family", "Hrpm", "--r", r, "--sign", sign,
            "--beta", "1.0",
        )
        assert code == 2 and out == ""
        assert err == "error: sign-restricted families require odd r\n"


def test_proportion_sign_on_full_family_rejected(capsys):
    code, _, err = run(
        capsys, "proportion", "--family", "Hr", "--r", "1", "--sign", "+1",
        "--beta", "1.0",
    )
    assert code == 2


def test_proportion_signed_family_needs_a_sign(capsys):
    code, out, err = run(capsys, "proportion", "--family", "Hrpm", "--r", "3", "--beta", "100")
    assert code == 2 and out == ""
    assert err == "error: Hrpm requires --sign\n"


def test_bad_sign_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["proportion", "--family", "Hrpm", "--r", "3", "--sign", "x", "--beta", "100"])
    assert err.value.code == 2
    assert "argument --sign: bad sign 'x' (use +1 or -1)" in capsys.readouterr().err


def test_proportion_json_format(capsys):
    code, out, _ = run(
        capsys, "proportion", "--family", "Hr", "--r", "2", "--beta", "3", "--format", "json"
    )
    assert code == 0 and out.count("\n") == 1
    record = json.loads(out)
    assert list(record) == sorted(record)
    assert record == {
        "beta": "3",
        "cleared": True,
        "family": "Hr",
        "lower_bound": "0.9251186741697518",
        "r": 2,
        "threshold": "2.2982169231905218",
    }


def test_testfn_csv_even_and_supported(tmp_path, capsys):
    out_file = tmp_path / "h.csv"
    code = main(
        [
            "testfn", "--symmetry", "SO+", "--R", "0.75", "--samples", "201",
            "--out", str(out_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "u,h"
    rows = [(float(a), float(b)) for a, b in (line.split(",") for line in lines[1:])]
    amp = max(abs(v) for _, v in rows)
    for (u, v), (u2, v2) in zip(rows, reversed(rows)):
        assert abs(u + u2) <= 1e-12
        assert abs(v - v2) <= 1e-9 * amp  # mirror symmetry across the grid
    for u, v in rows:
        if abs(u) > 0.75 + 1e-9:
            assert v == 0.0
    assert "residuals:" in captured.err
    for field in ("delayed_ode", "volterra", "compatibility", "rayleigh_gap"):
        value = float(captured.err.split(f"{field}=")[1].split()[0])
        assert value <= 1e-7


def test_testfn_residuals_line_format(capsys):
    code, _, err = run(capsys, "testfn", "--symmetry", "SO-", "--R", "1.2", "--samples", "11")
    report = testfunction.residuals(testfunction.reconstruct(Symmetry.SOminus, 1.2)[0])
    names = ("delayed_ode", "volterra", "compatibility", "rayleigh_gap")
    names += ("int_tail_gap", "int_full_gap")
    assert code == 0
    assert err == "residuals: " + " ".join(f"{n}={getattr(report, n):.3e}" for n in names) + "\n"


def test_testfn_past_200_breakpoints(capsys):
    # 200 cell boundaries: QUADPACK once refused them at 200 subintervals
    code, out, err = run(capsys, "testfn", "--symmetry", "SO+", "--R", "50.3", "--samples", "11")
    assert code == 0
    assert len(out.splitlines()) == 12
    assert err.startswith("residuals:")
    assert max(float(field.split("=")[1]) for field in err.split()[1:]) <= 1e-10


def test_testfn_needs_two_samples(capsys):
    code, out, err = run(capsys, "testfn", "--symmetry", "Sp", "--R", "0.75", "--samples", "1")
    assert code == 2 and out == ""
    assert err == "error: --samples must be at least 2\n"


def test_bound_root_in_an_exclusion_core_exits_2(capsys):
    code, out, err = run(capsys, "bound", "--symmetry", "Sp", "--nu-max", "45.54749406851713")
    assert code == 2 and out == ""
    assert err == (
        "error: root within 1e-09 of excluded frequency 0.1361666490962466"
        " for Sp at R=22.773737034258566\n"
    )


def test_testfn_unitary_rejected(capsys):
    code, out, err = run(capsys, "testfn", "--symmetry", "U", "--R", "0.5")
    assert code == 2 and out == ""
    assert err == "error: the unitary kernel has no reconstructed optimizer\n"


@pytest.mark.parametrize("R", ["0", "-0.5"])
def test_testfn_nonpositive_support_rejected(R, capsys):
    code, out, err = run(capsys, "testfn", "--symmetry", "Sp", "--R", R)
    assert code == 2 and out == ""
    assert err == "error: R must be positive\n"


def test_verify_small_grid(tmp_path):
    out_file = tmp_path / "verify.json"
    code = main(["verify", "--grid-size", "3", "--trunc", "100", "--out", str(out_file)])
    assert code == 0
    summary = json.loads(out_file.read_text())
    assert summary["passed"] is True
    assert {"name", "expected", "got", "tol", "pass"} <= set(summary["cases"][0])


@pytest.mark.parametrize("grid_size", ("0", "-1"))
def test_verify_rejects_a_grid_size_below_one(grid_size, capsys):
    code, out, err = run(capsys, "verify", "--grid-size", grid_size)
    assert code == 2 and out == ""
    assert err == "error: --grid-size must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--symmetry", "SO+", "--nu-from", "1", "--nu-to", "3", "--steps", "3"],
        ["testfn", "--symmetry", "Sp", "--R", "0.75", "--samples", "3"],
        ["verify", "--grid-size", "1", "--trunc", "25"],
    ],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv,smallest",
    [
        (["bound", "--symmetry", "U", "--nu-max", "1e-320"], "1.5e-154"),
        (["bound", "--symmetry", "U", "--nu-max", "1e-160"], "1.5e-154"),
        (["bound", "--symmetry", "O", "--nu-max", "1e-14"], "1e-13"),
        (["bound", "--symmetry", "SO-", "--nu-max", "1e-300"], "1e-13"),
        (["testfn", "--symmetry", "Sp", "--R", "1e-200"], "1e-13"),
    ],
)
def test_tiny_support_is_a_usage_error_naming_the_limit(argv, smallest, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: support R = ")
    assert f" is below {smallest}, the smallest support " in err


@pytest.mark.parametrize(
    "argv,R",
    [
        (["bound", "--symmetry", "O", "--nu-max", "1e17"], "5e+16"),
        (["bound", "--symmetry", "O", "--nu-max", "10000002"], "5000001.0"),
        (["testfn", "--symmetry", "O", "--R", "1e8"], "100000000.0"),
    ],
)
def test_huge_orthogonal_support_is_a_usage_error_naming_the_limit(argv, R, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: support R = {R} is above 5000000.0, the largest support the O kernel "
        "is solved at (a height bound needs nu_max <= 10000000.0)\n"
    )


def test_orthogonal_bound_at_the_largest_support(capsys):
    code, out, _ = run(capsys, "bound", "--symmetry", "O", "--nu-max", "1e7")
    assert code == 0
    assert parse_kv(out)["bound"] == "2.4656174798764109e-11"


def test_bound_reports_a_failed_root_scan(capsys):
    code, out, err = run(capsys, "bound", "--symmetry", "SO-", "--nu-max", "200")
    assert code == 2 and out == ""
    assert err.startswith("error: no admissible root up to the one-mode frequency ")
    assert err.endswith(" for SO- at R=99.99999\n")


def test_verify_truncation_monotonicity(tmp_path):
    gaps = {}
    for trunc in (25, 400):
        out_file = tmp_path / f"verify_{trunc}.json"
        main(["verify", "--grid-size", "3", "--trunc", str(trunc), "--out", str(out_file)])
        gaps[trunc] = json.loads(out_file.read_text())["max_oracle_gap"]
    assert gaps[25] > gaps[400]


def test_verify_deterministic(tmp_path):
    f1, f2 = tmp_path / "v1.json", tmp_path / "v2.json"
    main(["verify", "--grid-size", "3", "--trunc", "50", "--out", str(f1)])
    main(["verify", "--grid-size", "3", "--trunc", "50", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    import lowzero.verification as verification

    def rigged(grid_size=12, trunc=400):
        return {
            "grid_size": grid_size,
            "trunc": trunc,
            "cases": [
                {"name": "rigged/one", "expected": 0.0, "got": 1.0, "tol": 0.1,
                 "pass": False}
            ],
            "max_oracle_gap": 1.0,
            "passed": False,
        }

    monkeypatch.setattr(verification, "run_all", rigged)
    out_file = tmp_path / "v.json"
    code = main(["verify", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL rigged/one" in captured.err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden,argv",
    [
        (
            "curve_SOplus_nu1-3_steps100.csv",
            ["curve", "--symmetry", "SO+", "--nu-from", "1", "--nu-to", "3", "--steps", "100"],
        ),
        (
            "testfn_SOminus_R5.2_samples801.csv",
            ["testfn", "--symmetry", "SO-", "--R", "5.2", "--samples", "801"],
        ),
    ],
)
def test_csv_matches_golden(golden, argv, tmp_path, capsys):
    # the golden files hold the exact bytes these commands wrote when they
    # were recorded; values get a relative tolerance so the test holds on
    # CPUs whose libm rounds differently
    out_file = tmp_path / golden
    assert main(argv + ["--out", str(out_file)]) == 0
    capsys.readouterr()
    got = list(csv.reader(out_file.read_text().splitlines()))
    want = list(csv.reader((DATA / golden).read_text().splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    got, want = got[1:], want[1:]
    assert [row[0] for row in got] == [row[0] for row in want]
    assert [row[2:] for row in got] == [row[2:] for row in want]  # curve: branch
    np.testing.assert_allclose(
        [float(row[1]) for row in got], [float(row[1]) for row in want], rtol=1e-12, atol=0
    )


def test_python_m_lowzero_runs_the_cli():
    argv = ["bound", "--symmetry", "SO+", "--nu-max", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(lowzero.__file__).parents[1])}
    out = [
        subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, check=True
        ).stdout
        for module in ("lowzero", "lowzero.cli")
    ]
    assert out[0] == out[1] and out[0].startswith(b"symmetry SO+\n")


def test_oracle_check_output_does_not_depend_on_blas_threads():
    # the oracle's value is the same whether the BLAS library may use every
    # core or one thread (a dense eigensolve's last digits were not)
    argv = ["bound", "--symmetry", "SO+", "--nu-max", "2", "--oracle-check", "--format", "json"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in threads}
    env["PYTHONPATH"] = str(Path(lowzero.__file__).parents[1])
    out = [
        subprocess.run(
            [sys.executable, "-m", "lowzero", *argv], env=run_env, capture_output=True, check=True
        ).stdout
        for run_env in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert out[0] == out[1] and b'"oracle": ' in out[0]
