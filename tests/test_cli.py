"""Command-line front end: toy builders, subcommands, artifacts, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import brute_first_order, eta_of
import snrsched
from snrsched import shannon_entropy
from snrsched.cli import build_toy, main, toy_discrete
from snrsched.targets import target_to_json


def write_loss_csv(path, gammas, losses, kind="x0"):
    with open(path, "w") as fh:
        fh.write("gamma,loss,kind\n")
        for g, lo in zip(gammas, losses):
            fh.write(f"{float(g)!r},{float(lo)!r},{kind}\n")


def write_target(path, dist):
    path.write_text(json.dumps(target_to_json(dist)) + "\n")


def single_gauss_file(tmp_path, sigma0=1.0):
    from snrsched import GaussianMixture

    p = tmp_path / "gauss.json"
    write_target(p, GaussianMixture(weights=[1.0], means=[[0.0]], sigmas=[sigma0]))
    return str(p)


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# toy targets


def test_circle8_defaults():
    toy = build_toy("circle8")
    assert len(toy.weights) == 8
    radii = np.linalg.norm(np.asarray(toy.means), axis=1)
    np.testing.assert_allclose(radii, 4.0, rtol=1e-12)
    np.testing.assert_allclose(toy.sigmas, 0.25)
    np.testing.assert_allclose(toy.weights, np.arange(8, 0, -1) / 36.0)


def test_grid8_lattice():
    toy = build_toy("grid8")
    means = {tuple(m) for m in np.asarray(toy.means)}
    assert len(means) == 8
    xs = sorted({m[0] for m in means})
    ys = sorted({m[1] for m in means})
    assert len(xs) == 4 and len(ys) == 2


def test_uniform_weights_give_ln8_entropy():
    disc = toy_discrete("circle8", weights=[0.125] * 8)
    assert shannon_entropy(disc) == pytest.approx(math.log(8.0), rel=1e-12)


def test_toy_rejects_wrong_weight_count():
    with pytest.raises(ValueError):
        build_toy("circle8", weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        build_toy("hexagon3")


# ---------------------------------------------------------------------------
# schedule subcommand


def test_schedule_constant_loss_tie_break(tmp_path, capsys):
    gam = np.geomspace(1.0, 40.0, 9)
    write_loss_csv(tmp_path / "loss.csv", gam, np.full(9, 0.7))
    out = tmp_path / "run"
    rc = main(
        [
            "schedule",
            "--loss",
            str(tmp_path / "loss.csv"),
            "--K",
            "3",
            "--lambda",
            "1.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["indices"] == [0, 1, 2, 8]
    want = 0.7 * (eta_of(gam[-1], 1.5) - eta_of(gam[0], 1.5))
    assert sched["objective"] == pytest.approx(want, rel=1e-12)
    assert "objective" in capsys.readouterr().out


def test_schedule_matches_exhaustive_on_16_knots(tmp_path):
    rng = np.random.default_rng(61)
    gam = np.sort(np.exp(rng.uniform(0.0, 6.0, 16)))
    risks = rng.uniform(0.05, 2.0, 16)
    write_loss_csv(tmp_path / "loss.csv", gam, risks)
    out = tmp_path / "run"
    rc = main(
        ["schedule", "--loss", str(tmp_path / "loss.csv"), "--K", "10", "--out", str(out)]
    )
    assert rc == 0
    sched = json.loads((out / "schedule.json").read_text())
    best_idx, best_obj = brute_first_order(gam, risks, 10, 1.5)
    assert tuple(sched["indices"]) == best_idx
    assert sched["objective"] == pytest.approx(best_obj, rel=1e-12)


def test_schedule_beam_when_alpha_positive(tmp_path):
    gam = np.geomspace(1.0, 100.0, 12)
    write_loss_csv(tmp_path / "loss.csv", gam, np.linspace(1.5, 0.1, 12))
    out = tmp_path / "run"
    rc = main(
        [
            "schedule",
            "--loss",
            str(tmp_path / "loss.csv"),
            "--K",
            "4",
            "--alpha",
            "12",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["algorithm"] == "beam"
    assert sched["alpha"] == 12.0


def test_schedule_exit_codes(tmp_path):
    # unreadable CSV
    assert main(["schedule", "--loss", str(tmp_path / "no.csv"), "--K", "3", "--out", str(tmp_path / "a")]) == 2
    # non-ascending gammas
    bad = tmp_path / "bad.csv"
    bad.write_text("gamma,loss,kind\n4.0,1.0,x0\n1.0,1.0,x0\n")
    assert main(["schedule", "--loss", str(bad), "--K", "1", "--out", str(tmp_path / "b")]) == 2
    # infeasible K
    small = tmp_path / "small.csv"
    write_loss_csv(small, [1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    assert main(["schedule", "--loss", str(small), "--K", "5", "--out", str(tmp_path / "c")]) == 3
    # non-positive trims: 1/T would divide by zero or keep every candidate
    for flag, value in (("--T", "0"), ("--delta", "0"), ("--T", "-1")):
        argv = ["schedule", "--loss", str(small), "--K", "1", flag, value]
        assert main(argv + ["--out", str(tmp_path / "d")]) == 2


# ---------------------------------------------------------------------------
# grids subcommand


def test_grids_emits_all_kinds(tmp_path):
    out = tmp_path / "run"
    rc = main(["grids", "--T", "1", "--delta", "0.01", "--K", "4", "--out", str(out)])
    assert rc == 0
    table = json.loads((out / "grids.json").read_text())
    assert set(table) == {"time_uniform", "geometric", "edm"}
    for gams in table.values():
        assert len(gams) == 5
        assert gams[0] == pytest.approx(1.0, rel=1e-12)
        assert gams[-1] == pytest.approx(100.0, rel=1e-12)
    np.testing.assert_allclose(table["geometric"], np.geomspace(1, 100, 5), rtol=1e-12)


# ---------------------------------------------------------------------------
# report subcommand


def test_report_geometric_beats_time_uniform(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "report",
            "--target",
            single_gauss_file(tmp_path),
            "--baseline",
            "geometric",
            "--baseline",
            "time_uniform",
            "--K",
            "8",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    reports = {e["name"]: e for e in json.loads((out / "report.json").read_text())}
    assert reports["geometric"]["e_disc"] < reports["time_uniform"]["e_disc"]
    header, rows = read_csv(out / "report.csv")
    assert header == ["name", "K", "e_disc", "e_apx", "combined_objective", "kl_path_bound"]
    assert len(rows) == 2


def test_report_exact_loss_zero_apx(tmp_path):
    gam = np.geomspace(1.0, 1000.0, 9)
    losses = [1.0 / (1.0 + g) for g in gam]  # sigma0 = 1 closed form
    write_loss_csv(tmp_path / "loss.csv", gam, losses)
    out = tmp_path / "run"
    rc = main(
        [
            "report",
            "--target",
            single_gauss_file(tmp_path),
            "--baseline",
            "geometric",
            "--K",
            "8",
            "--loss",
            str(tmp_path / "loss.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    (entry,) = json.loads((out / "report.json").read_text())
    assert entry["e_apx"] == pytest.approx(0.0, abs=1e-10)
    assert entry["combined_objective"] == pytest.approx(
        entry["e_disc"] + entry["e_apx"] + math.log((1 + 1000.0) / 2.0), rel=1e-9
    )


def test_report_bounds_share_two_term_kl_total(tmp_path):
    from snrsched import FiniteDiscrete

    target = tmp_path / "two.json"
    write_target(target, FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5]))
    write_loss_csv(tmp_path / "loss.csv", np.geomspace(1.0, 1000.0, 4), [0.9, 0.5, 0.1, 0.01])
    out = tmp_path / "run"
    argv = ["report", "--target", str(target), "--baseline", "geometric", "--K", "8",
            "--loss", str(tmp_path / "loss.csv"), "--out", str(out)]
    assert main(argv) == 0
    (entry,) = json.loads((out / "report.json").read_text())
    assert entry["two_term"]["stat_term"] > 0.0
    assert entry["bounds"]["kl_total"] == pytest.approx(entry["two_term"]["kl_total"], rel=1e-12)


def test_report_k_sweep_slope(tmp_path):
    """E_disc ~ C/K on geometric grids over a moderate SNR span."""
    vals = {}
    for K in (4, 8, 16, 32):
        out = tmp_path / f"k{K}"
        rc = main(
            [
                "report",
                "--target",
                single_gauss_file(tmp_path),
                "--baseline",
                "geometric",
                "--T",
                "2",
                "--delta",
                "0.125",
                "--K",
                str(K),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        (entry,) = json.loads((out / "report.json").read_text())
        vals[K] = entry["e_disc"]
    ks = np.log(list(vals))
    es = np.log(list(vals.values()))
    slope = np.polyfit(ks, es, 1)[0]
    assert abs(slope - (-1.0)) <= 0.15


def test_report_rejects_unknown_target(tmp_path):
    rc = main(
        ["report", "--target", "nonesuch", "--baseline", "geometric", "--out", str(tmp_path / "x")]
    )
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--entropy", "nan"), ("--entropy", "inf"),
                                         ("--entropy", "-1"), ("--c-fit", "nan")])
def test_report_rejects_bad_bound_constants(tmp_path, flag, value):
    from snrsched import FiniteDiscrete

    # the discrete target supplies H itself, so --c-fit is checked on it
    if flag == "--c-fit":
        target = tmp_path / "two.json"
        write_target(target, FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5]))
        target = str(target)
    else:
        target = single_gauss_file(tmp_path)
    out = tmp_path / "run"
    argv = ["report", "--target", target, "--baseline", "geometric", "--K", "4",
            flag, value, "--out", str(out)]
    assert main(argv) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flag", ["--entropy", "--c-fit"])
def test_report_rejects_bound_constants_before_oracle_work(tmp_path, monkeypatch, flag):
    # circle8 is a mixture, so with --c-fit alone no bound reads C_fit; a nan
    # is still a configuration error, caught before the first posterior call
    from snrsched import channel

    calls = []
    kernel = channel.posterior_cov_stats

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(channel, "posterior_cov_stats", counting)
    out = tmp_path / "run"
    argv = ["report", "--target", "circle8", "--baseline", "geometric", "--K", "4",
            flag, "nan", "--out", str(out)]
    assert main(argv) == 2
    assert calls == []
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# simulate subcommand


def simulate_args(tmp_path, outname):
    return [
        "simulate",
        "--target",
        "grid8",
        "--baseline",
        "geometric",
        "--K",
        "6",
        "--samples",
        "400",
        "--seed",
        "11",
        "--out",
        str(tmp_path / outname),
    ]


def test_simulate_writes_artifacts(tmp_path, capsys):
    rc = main(simulate_args(tmp_path, "run"))
    assert rc == 0
    out = tmp_path / "run"
    header, rows = read_csv(out / "samples.csv")
    assert header == ["x0", "x1"]
    assert len(rows) == 400
    rep = json.loads((out / "sample_report.json").read_text())
    assert rep["n_samples"] == 400
    assert math.isfinite(rep["nll_mean"])
    assert "nll" in capsys.readouterr().out


def test_simulate_reproduces_artifacts_byte_identical(tmp_path):
    assert main(simulate_args(tmp_path, "a")) == 0
    assert main(simulate_args(tmp_path, "b")) == 0
    for name in ("samples.csv", "sample_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_samples_csv_writes_each_value_as_fmt(tmp_path, monkeypatch):
    import snrsched.cli as cli

    rng = np.random.default_rng(4)
    arr = rng.normal(size=(400, 2)) * 10.0 ** rng.integers(-300, 300, size=(400, 2))
    arr[:4] = [[-0.0, 0.0], [1 / 3, -2.5e-7], [math.inf, -math.inf], [math.nan, 1e16]]
    real = cli.sample
    monkeypatch.setattr(cli, "sample", lambda *a: (arr, real(*a)[1]))
    assert main(simulate_args(tmp_path, "run")) == 0
    want = "x0,x1\n" + "".join(f"{cli._fmt(a)},{cli._fmt(b)}\n" for a, b in arr)
    assert (tmp_path / "run" / "samples.csv").read_text() == want


def test_manifest_lists_hashes_that_match(tmp_path):
    assert main(simulate_args(tmp_path, "run")) == 0
    out = tmp_path / "run"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert {a["path"] for a in manifest["artifacts"]} == {
        "samples.csv",
        "sample_report.json",
    }
    for art in manifest["artifacts"]:
        digest = hashlib.sha256((out / art["path"]).read_bytes()).hexdigest()
        assert digest == art["sha256"]
        assert (out / art["path"]).stat().st_size == art["bytes"]


def test_simulate_needs_exactly_one_grid(tmp_path):
    rc = main(
        [
            "simulate",
            "--target",
            "grid8",
            "--baseline",
            "geometric",
            "--baseline",
            "edm",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# mmse-table subcommand


def test_mmse_table_single_gaussian_closed_form(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "mmse-table",
            "--target",
            single_gauss_file(tmp_path),
            "--gamma-min",
            "1",
            "--gamma-max",
            "64",
            "--points",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out / "mmse.csv")
    assert header == ["gamma", "mmse", "stderr", "dmmse", "dstderr"]
    assert len(rows) == 7
    for row in rows:
        g, m = float(row[0]), float(row[1])
        assert m == pytest.approx(1.0 / (1.0 + g), rel=1e-10)
        assert float(row[3]) == pytest.approx(-1.0 / (1.0 + g) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# verify subcommand


VERIFY_ROWS = [
    ("entropy", "uniform8 entropies equal log 8"),
    ("entropy", "entropy ordering H <= H_1/2 <= log n"),
    ("entropy", "sub-exponential fit bounds the Renyi gap"),
    ("entropy", "mean surprisal equals H"),
    ("entropy", "permutation determinism"),
    ("mmse", "two-atom symmetry point"),
    ("mmse", "two-atom tanh posterior mean"),
    ("mmse", "single-Gaussian conjugate mean"),
    ("mmse", "mmse derivative matches finite differences"),
    ("mmse", "posterior moment inequalities"),
    ("mmse", "mmse nonincreasing"),
    ("mmse", "mmse below prior variance"),
    ("mmse", "fourth moment dominates tr(Cov^2)"),
    ("dp", "first-order DP vs brute force"),
    ("dp", "second-order DP vs brute force"),
    ("dp", "endpoint pinning"),
    ("dp", "constant-risk tie break"),
    ("grids", "builder endpoints"),
    ("grids", "geometric grid has equal log steps"),
    ("grids", "EDM rho=1 linear in sigma"),
    ("grids", "geometric optimality (random probes)"),
    ("grids", "Lambda equals product of ratios"),
    ("errors", "closed-form discretization constant"),
    ("errors", "objective decomposition identity"),
    ("errors", "exact-loss profile has zero E_apx"),
    ("errors", "eps to x0 conversion"),
    ("errors", "final bounds arithmetic"),
    ("errors", "pathwise KL MC vs area gap"),
    ("sampler", "reverse step moments"),
    ("sampler", "point-mass contraction"),
    ("sampler", "seed determinism"),
    ("sampler", "single-Gaussian terminal law"),
    ("sampler", "second order equals first on constant denoiser"),
    ("target", "posterior weights normalize"),
    ("target", "mmse nonincreasing"),
    ("target", "discretization error nonnegative"),
    ("target", "entropy ordering"),
]


def test_verify_dp_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "dp", "--seed", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[PASS] dp:" in text
    assert "FAIL" not in text


def test_verify_mmse_suite(capsys):
    rc = main(["verify", "--suite", "mmse", "--seed", "0"])
    assert rc == 0
    assert "[PASS] mmse:" in capsys.readouterr().out


def test_verify_all_with_point_mass_target(tmp_path, capsys):
    from snrsched import FiniteDiscrete

    p = tmp_path / "pm.json"
    write_target(p, FiniteDiscrete(points=[[0.0, 0.0]], probs=[1.0]))
    out = tmp_path / "run"
    rc = main(["verify", "--suite", "all", "--target", str(p), "--out", str(out)])
    assert rc == 0
    results = json.loads((out / "verify.json").read_text())
    assert all(r["ok"] for r in results)
    # every row of the table, in order; the last row applies to discrete targets only
    assert [(r["suite"], r["label"]) for r in results] == VERIFY_ROWS
    assert "checks passed" in capsys.readouterr().out


def test_verify_errors_suite_passes_on_every_seed():
    from snrsched import verify

    for seed in range(8):
        failed = [r for r in verify.run_checks("errors", None, seed) if not r["ok"]]
        assert failed == [], (seed, failed)


def test_verify_mixture_target_skips_discrete_only_row():
    from snrsched import GaussianMixture, verify

    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0], [1.0]], sigmas=[0.5, 0.5])
    results = verify.run_checks("grids", gmm, 0)
    assert [(r["suite"], r["label"]) for r in results] == [
        row for row in VERIFY_ROWS if row[0] == "grids"
    ] + VERIFY_ROWS[-4:-1]
    assert all(r["ok"] for r in results)


def test_verify_rejects_unknown_suite():
    from snrsched import verify

    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_checks("target", None, 0)


def test_verify_failure_exits_4_and_runs_every_check(tmp_path, capsys, monkeypatch):
    from snrsched import verify

    def raises(rng, seed):
        raise RuntimeError("boom")

    broken = [
        ("grids", "always fails", lambda rng, seed: (False, "nope")),
        ("grids", "always raises", raises),
    ]
    rows = [row for row in verify._CHECKS if row[0] != "grids"]
    at = next(i for i, row in enumerate(rows) if row[0] == "errors")
    monkeypatch.setattr(verify, "_CHECKS", rows[:at] + broken + rows[at:])
    out = tmp_path / "run"
    rc = main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)])
    assert rc == 4
    text = capsys.readouterr().out
    assert "[FAIL] grids: always fails (nope)" in text
    assert "[FAIL] grids: always raises (raised RuntimeError: boom)" in text
    # the suites after the broken one still ran
    assert "[PASS] errors:" in text and "[PASS] sampler:" in text
    results = json.loads((out / "verify.json").read_text())
    assert [r["ok"] for r in results].count(False) == 2
    assert f"{len(results) - 2}/{len(results)} checks passed" in text


# ---------------------------------------------------------------------------
# entry point


def _run_python(*args):
    """Run a fresh interpreter that imports snrsched from where this suite does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(snrsched.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, snrsched.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_discrete_target_leaves_numpy_ma_unloaded():
    # the distinct-atoms check must not pull in numpy.ma (np.unique(axis=0) does)
    code = (
        "import sys, snrsched.cli; "
        "snrsched.FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.5, 0.5]); "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point_runs():
    proc = _run_python("-m", "snrsched.cli", "verify", "--suite", "grids")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
