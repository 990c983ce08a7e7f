"""Command-line front end: toy builders, subcommands, artifacts, exit codes."""

import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_first_order, eta_of
import snrsched
from snrsched import SamplerConfig, channel, grid_geometric, sample, verify
from snrsched.cli import _fmt, build_parser, main
from snrsched.csvtext import format_block
from snrsched.targets import build_toy, target_to_json, toy_discrete


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


def test_toy_rejects_wrong_weight_count():
    # build_toy takes no weights, so an unknown name is its only bad input
    with pytest.raises(ValueError):
        build_toy("hexagon3")


def test_toys_do_not_share_weights():
    toy = build_toy("circle8")
    toy.weights[0] += 0.1
    assert build_toy("grid8").weights[0] == 8 / 36.0
    assert toy_discrete("circle8").probs[0] == 8 / 36.0


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
    assert sched["tie_breaks"] == 5
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


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_schedule_reads_eps_rows_as_x0(tmp_path, alpha):
    rng = np.random.default_rng(7)
    gam = np.sort(np.exp(rng.uniform(0.0, 6.0, 24)))
    x0 = rng.uniform(0.05, 2.0, 24)
    eps = rng.random(24) < 0.5
    mixed = tmp_path / "mixed.csv"
    with open(mixed, "w") as fh:
        fh.write("gamma,loss,kind\n")
        for g, lo, is_eps in zip(gam.tolist(), x0.tolist(), eps):
            fh.write(f"{g!r},{g * lo!r},eps\n" if is_eps else f"{g!r},{lo!r},x0\n")
    snrsched.LossProfile.from_csv(mixed).to_csv(tmp_path / "x0.csv")
    runs = []
    for name in ("mixed", "x0"):
        out = tmp_path / f"run_{name}"
        argv = ["schedule", "--loss", str(tmp_path / f"{name}.csv"), "--K", "6",
                "--alpha", alpha, "--T", "0.9", "--out", str(out)]
        assert main(argv) == 0
        runs.append((out / "schedule.json").read_bytes())
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_schedule_lambda_whose_square_overflows_exits_2(tmp_path, capsys, alpha):
    loss = tmp_path / "p.csv"
    write_loss_csv(loss, np.geomspace(1.0, 100.0, 16), np.ones(16))
    out = tmp_path / "run"
    argv = ["schedule", "--loss", str(loss), "--K", "4", "--lambda", "1e300", "--alpha", alpha]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "lambda must be positive with a finite square" in capsys.readouterr().err


def test_schedule_trim_below_two_knots_names_the_trim(tmp_path, capsys):
    loss = tmp_path / "p128.csv"
    write_loss_csv(loss, np.geomspace(1.0, 1e4, 128), np.ones(128))
    out = tmp_path / "run"
    argv = ["schedule", "--loss", str(loss), "--K", "1", "--T", "0.001", "--delta", "0.000999"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--T/--delta" in err and "[1/T, 1/delta] = [1000, 1001]" in err
    assert "keeps 0 of 128 knots" in err
    assert not out.exists()


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
    bounds = entry["bounds"]
    assert bounds["kl_stat_term"] > 0.0
    assert bounds["kl_total"] == pytest.approx(
        bounds["kl_disc_term"] + bounds["kl_stat_term"], rel=1e-12
    )


@pytest.mark.parametrize("entropy", [None, "0.8"], ids=["no_entropy", "entropy"])
def test_report_json_entry_key_set(tmp_path, entropy):
    gam = np.geomspace(1.0, 1000.0, 9)
    write_loss_csv(tmp_path / "loss.csv", gam, [1.0 / (1.0 + g) + 0.01 for g in gam])
    out = tmp_path / "run"
    argv = ["report", "--target", single_gauss_file(tmp_path), "--baseline", "geometric",
            "--K", "8", "--loss", str(tmp_path / "loss.csv"), "--out", str(out)]
    if entropy is not None:
        argv += ["--entropy", entropy]
    assert main(argv) == 0
    (entry,) = json.loads((out / "report.json").read_text())
    keys = {"name", "K", "gammas", "e_disc", "e_apx", "kl_path_bound", "combined_objective",
            "provenance"}
    if entropy is None:
        assert set(entry) == keys
    else:
        assert set(entry) == keys | {"bounds"}
        assert set(entry["bounds"]) == {
            "disc_bound", "geo_disc_bound", "kl_total", "kl_disc_term", "kl_stat_term",
            "kl_total_applicable",
        }
    assert entry["provenance"] == {"e_disc": "mmse_functional", "e_apx": "loss_profile"}


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
    kernel = channel._pair_spread

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(channel, "_pair_spread", counting)
    out = tmp_path / "run"
    argv = ["report", "--target", "circle8", "--baseline", "geometric", "--K", "4",
            flag, "nan", "--out", str(out)]
    assert main(argv) == 2
    assert calls == []
    assert not (out / "report.json").exists()


def test_schedule_trim_records_requested_range_and_endpoint_drift(tmp_path):
    # 1/T = 2.5 and 1/delta = 5000 fall between knots of the 128-knot profile,
    # so the endpoints are the nearest in-range knots
    loss = tmp_path / "p128.csv"
    gammas = np.geomspace(1.0, 1e4, 128)
    write_loss_csv(loss, gammas, np.ones(128))
    base = ["schedule", "--loss", str(loss), "--K", "4"]
    assert main(base + ["--T", "0.4", "--delta", "2e-4", "--out", str(tmp_path / "trim")]) == 0
    obj = json.loads((tmp_path / "trim" / "schedule.json").read_text())
    lo, hi = 1 / 0.4, 1 / 2e-4
    assert obj["requested_gammas"] == [lo, hi]
    g0, gK = obj["gammas"][0], obj["gammas"][-1]
    assert g0 == gammas[gammas >= lo][0] and gK == gammas[gammas <= hi][-1]
    assert obj["endpoint_drift"] == [g0 / lo - 1.0, gK / hi - 1.0]
    step = gammas[1] / gammas[0] - 1.0
    assert 0.0 < obj["endpoint_drift"][0] < step and -step < obj["endpoint_drift"][1] < 0.0
    # one end only: the other is null
    assert main(base + ["--T", "0.4", "--out", str(tmp_path / "lo")]) == 0
    obj = json.loads((tmp_path / "lo" / "schedule.json").read_text())
    assert obj["requested_gammas"] == [lo, None] and obj["endpoint_drift"][1] is None
    # untrimmed: neither key
    assert main(base + ["--out", str(tmp_path / "all")]) == 0
    obj = json.loads((tmp_path / "all" / "schedule.json").read_text())
    assert "requested_gammas" not in obj and "endpoint_drift" not in obj


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
    # rows are formatted in blocks of max(1, 4096 // d); row counts one short
    # of, equal to and one past a block
    import snrsched.cli as cli

    rng = np.random.default_rng(4)
    real = cli.sample
    special = [-0.0, 0.0, 1 / 3, -2.5e-7, math.inf, -math.inf, math.nan, 1e16]
    for d in (1, 2, 3, 64):
        for m in (max(1, 4096 // d) + k for k in (-1, 0, 1)):
            arr = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-300, 300, size=(m, d))
            arr.ravel()[: len(special)] = special
            monkeypatch.setattr(cli, "sample", lambda *a: (arr, real(*a)[1]))
            assert main(simulate_args(tmp_path, f"run{d}_{m}")) == 0
            want = ",".join(f"x{i}" for i in range(d)) + "\n"
            want += "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in arr)
            assert (tmp_path / f"run{d}_{m}" / "samples.csv").read_text() == want


def _fmt_lines(arr):
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in arr).encode()


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-5, 1e16, math.inf, -math.inf, math.nan,
               float(np.nextafter(1e-5, 0)), float(np.nextafter(1e16, 0)), -9.9999999999999995e-06]


@pytest.mark.parametrize("d", [1, 2, 3, 64])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_samples_csv_writes_moderate_values_as_fmt(tmp_path, monkeypatch, d, extra):
    # the magnitudes samples take, 1e-4..1e4, around one block of max(1, 4096 // d) rows
    import snrsched.cli as cli

    m = max(1, 4096 // d) + extra
    rng = np.random.default_rng(d)
    arr = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-4, 5, size=(m, d))
    arr.ravel()[rng.choice(arr.size, min(arr.size, len(EDGE_VALUES)), replace=False)] = EDGE_VALUES[:arr.size]
    real = cli.sample
    monkeypatch.setattr(cli, "sample", lambda *a: (arr, real(*a)[1]))
    assert main(simulate_args(tmp_path, "run")) == 0
    want = ",".join(f"x{i}" for i in range(d)).encode() + b"\n" + _fmt_lines(arr)
    assert (tmp_path / "run" / "samples.csv").read_bytes() == want


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 5), data=st.data())
def test_format_block_matches_fmt_on_any_float(d, data):
    rows = data.draw(st.integers(1, 8))
    floats = arrays(np.float64, (rows, d), elements=st.floats())
    bits = arrays(np.uint64, (rows, d)).map(lambda a: a.view(np.float64))
    arr = data.draw(st.one_of(floats, bits))
    assert format_block(arr) == _fmt_lines(arr)


def test_format_block_matches_fmt_at_decade_and_range_edges():
    rng = np.random.default_rng(0)
    values = []
    for k in range(-7, 18):
        up = down = 10.0**k
        for _ in range(3):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, 0)
            values += [up, down]
        values.append(10.0**k)
    for edge in (1e-5, 1e16):
        values += [edge, np.nextafter(edge, 0), np.nextafter(edge, math.inf)]
    # integers, dyadic fractions, and decimals of 1 to 17 significant digits
    for digits in range(1, 18):
        mant = rng.integers(10 ** (digits - 1), 10**digits, size=40)
        values += [float(m) for m in mant[:10]]
        values += [float(m) / 2.0 ** int(j) for m, j in zip(mant[10:20], rng.integers(1, 30, size=10))]
        values += [float(f"{m}e{int(e)}") for m, e in zip(mant[20:], rng.integers(-25, 5, size=20))]
    arr = np.array(values)
    arr = np.concatenate([arr, -arr])
    for d in (1, 3):
        block = arr[: arr.size // d * d].reshape(-1, d)
        assert format_block(block) == _fmt_lines(block)


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


@pytest.fixture
def cov_kernel_calls(monkeypatch):
    """A list that grows by one on each pass of the covariance kernel.

    That is _cov_stats, the block kernel of posterior_cov_stats, which the
    oracles run with a kernel table built once per knot."""
    from snrsched import channel

    calls = []
    kernel = channel._cov_stats

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(channel, "_cov_stats", counting)
    return calls


@pytest.mark.parametrize("points", ["0", "-3"])
def test_mmse_table_rejects_empty_table_before_oracle_work(tmp_path, cov_kernel_calls, capsys, points):
    out = tmp_path / "run"
    argv = ["mmse-table", "--target", "circle8", "--points", points, "--out", str(out)]
    assert main(argv) == 2
    assert cov_kernel_calls == []
    assert not (out / "mmse.csv").exists()
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gamma_min, gamma_max, flag",
    [("10", "1", "--gamma-max"), ("0", "1000", "--gamma-min"), ("1", "inf", "--gamma-max"),
     ("nan", "10", "--gamma-min")],
)
def test_mmse_table_rejects_bad_gamma_range_before_oracle_work(
    tmp_path, cov_kernel_calls, capsys, gamma_min, gamma_max, flag
):
    out = tmp_path / "run"
    argv = ["mmse-table", "--target", "circle8", "--gamma-min", gamma_min,
            "--gamma-max", gamma_max, "--out", str(out)]
    assert main(argv) == 2
    assert cov_kernel_calls == []
    assert not out.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["grids", "--kind", "time_uniform", "--delta", "1e-320"], "delta"),
    (["grids", "--kind", "geometric", "--delta", "1e-320"], "delta"),
    (["grids", "--kind", "edm", "--delta", "1e-320"], "delta"),
    (["mmse-table", "--target", "circle8", "--gamma-min", "1e-320", "--gamma-max", "1"],
     "--gamma-min"),
], ids=["time_uniform", "geometric", "edm", "mmse-table"])
def test_overflowing_reciprocal_names_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["grids", "--kind", "edm"],
    ["report", "--target", "circle8", "--baseline", "edm"],
    ["simulate", "--target", "circle8", "--baseline", "edm", "--samples", "10"],
], ids=["grids", "report", "simulate"])
def test_edm_rho_whose_power_overflows_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--T", "4", "--K", "4", "--rho", "1e-4", "--out", str(out)]) == 2
    assert "rho" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--target", "circle8", "--baseline", "geometric", "--K", "4"],
    ["simulate", "--target", "circle8", "--baseline", "geometric", "--K", "4", "--samples", "10"],
    ["mmse-table", "--target", "circle8", "--points", "2"],
    ["verify", "--target", "circle8"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seed_exits_2_in_the_parser(tmp_path, capsys, argv, seed):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("loss", [False, True])
def test_report_csv_holds_no_nan_or_inf(tmp_path, loss):
    argv = ["report", "--target", "circle8", "--baseline", "geometric", "--K", "4"]
    if loss:
        write_loss_csv(tmp_path / "loss.csv", np.geomspace(0.5, 2000.0, 9), np.full(9, 0.5))
        argv += ["--loss", str(tmp_path / "loss.csv")]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = read_csv(out / "report.csv")
    fields = [f.strip().lower().lstrip("+-") for row in rows for f in row]
    assert not {"nan", "inf", "infinity"} & set(fields)
    combined = rows[0][header.index("combined_objective")]
    assert (combined != "") == loss


def test_report_csv_quotes_a_name_that_holds_csv_syntax(tmp_path):
    sched = tmp_path / 'c,d "e"\nf' / "s.json"
    sched.parent.mkdir()
    sched.write_text(json.dumps({"gammas": [1.0, 10.0, 100.0]}))
    out = tmp_path / "run"
    argv = ["report", "--target", "circle8", "--schedule", str(sched), "--baseline", "geometric",
            "--K", "2", "--out", str(out)]
    assert main(argv) == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [6, 6, 6]
    assert [rows[1][0], rows[2][0]] == [str(sched), "geometric"]
    # a field without a comma, quote or line break keeps its bytes
    assert (out / "report.csv").read_text().splitlines()[-1].startswith("geometric,2,")


# ---------------------------------------------------------------------------
# verify subcommand


VERIFY_ROWS = [
    "posterior weights normalize",
    "mmse nonincreasing",
    "discretization error nonnegative",
    "entropy ordering H <= H_1/2 <= log n",
    "mmse below prior variance",
    "mmse derivative matches finite differences",
    "sub-exponential fit bounds the Renyi gap",
    "fourth moment dominates tr(Cov^2)",
    "I-MMSE integral within Riemann bracket",
]
DISCRETE_ONLY = {VERIFY_ROWS[3], VERIFY_ROWS[6], VERIFY_ROWS[7]}
MIXTURE_ROWS = [label for label in VERIFY_ROWS if label not in DISCRETE_ONLY]


def test_verify_defaults_run_every_row_on_both_toys_and_companions(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["verify", "--out", str(out)]) == 0
    results = json.loads((out / "verify.json").read_text())
    assert all(r["ok"] for r in results)
    assert [(r["target"], r["label"]) for r in results] == [
        (name, label)
        for toy in ("circle8", "grid8")
        for name, rows in ((toy, MIXTURE_ROWS), (f"{toy}_discrete", VERIFY_ROWS))
        for label in rows
    ]
    assert f"{len(results)}/{len(results)} checks passed" in capsys.readouterr().out


def test_verify_all_with_point_mass_target(tmp_path, capsys):
    from snrsched import FiniteDiscrete

    p = tmp_path / "pm.json"
    write_target(p, FiniteDiscrete(points=[[0.0, 0.0]], probs=[1.0]))
    out = tmp_path / "run"
    rc = main(["verify", "--target", str(p), "--out", str(out)])
    assert rc == 0
    results = json.loads((out / "verify.json").read_text())
    assert all(r["ok"] for r in results)
    # --target runs that target alone, through every row of the table, in order
    assert [(r["target"], r["label"]) for r in results] == [(str(p), row) for row in VERIFY_ROWS]
    assert set(results[0]) == {"target", "label", "ok", "message"}
    assert "9/9 checks passed" in capsys.readouterr().out


def test_verify_passes_on_every_seed():
    # the rows that sample (Monte Carlo above dim 2, the fourth moment) on small targets
    from snrsched import FiniteDiscrete, GaussianMixture

    rng = np.random.default_rng(3)
    dists = {
        "two atoms": FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5]),
        "gmm d=3": GaussianMixture(weights=[0.3, 0.7], means=rng.normal(size=(2, 3)),
                                   sigmas=[0.5, 0.8]),
        "discrete d=5": FiniteDiscrete(points=2.0 * rng.normal(size=(6, 5)),
                                       probs=np.full(6, 1 / 6)),
    }
    for seed in range(6):
        failed = [r for r in verify.run_checks(dists, seed) if not r["ok"]]
        assert failed == [], (seed, failed)


def test_verify_mixture_target_skips_discrete_only_row():
    from snrsched import GaussianMixture

    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0], [1.0]], sigmas=[0.5, 0.5])
    results = verify.run_checks({"gmm": gmm}, 0)
    assert [r["label"] for r in results] == MIXTURE_ROWS
    assert all(r["ok"] for r in results)


def test_verify_rejects_unknown_suite(capsys):
    # --suite is gone: verify takes a target, not a slice of the library's checks
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all"])
    assert exc.value.code == 2
    assert "--suite" in capsys.readouterr().err


def _scaled_trace(c):
    """A wrapper of channel._pair_spread whose trace is c times the kernel's."""

    def wrap(kernel):
        def scaled(*args):
            trace, *rest = kernel(*args)
            return (c * trace, *rest)

        return scaled

    return wrap


@pytest.mark.parametrize("row, owner, name, wrap", [
    (4, channel, "_pair_spread", _scaled_trace(2.0)),
    (5, channel, "_pair_spread", _scaled_trace(1.01)),
    (6, verify, "renyi_half_entropy", lambda f: lambda d: f(d) + 1e-6),
    (7, verify, "posterior_fourth_moment", lambda f: lambda *a: tuple(0.01 * v for v in f(*a))),
    (8, channel.MmseCurve, "integral", lambda f: lambda self, lo, hi: 0.5 * f(self, lo, hi)),
], ids=["prior-variance", "derivative", "renyi-gap", "fourth-moment", "i-mmse"])
def test_verify_broken_oracle_fails_its_row(tmp_path, capsys, monkeypatch, row, owner, name, wrap):
    # each row's own break: a 1 %-high mmse, for one, leaves rows 5, 7 and 8 passing
    target = tmp_path / "circle8_discrete.json"
    write_target(target, toy_discrete("circle8"))
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    assert main(["verify", "--target", str(target)]) == 4
    assert f"[FAIL] {target}: {VERIFY_ROWS[row]} (" in capsys.readouterr().out


def test_verify_failure_exits_4_and_runs_every_check(tmp_path, capsys, monkeypatch):
    def raises(target, rng, seed):
        raise RuntimeError("boom")

    broken = [
        ("always fails", lambda target, rng, seed: (False, "nope")),
        ("always raises", raises),
    ]
    monkeypatch.setattr(verify, "_CHECKS", broken + verify._CHECKS)
    out = tmp_path / "run"
    rc = main(["verify", "--target", "circle8", "--seed", "0", "--out", str(out)])
    assert rc == 4
    text = capsys.readouterr().out
    assert "[FAIL] circle8: always fails (nope)" in text
    assert "[FAIL] circle8: always raises (raised RuntimeError: boom)" in text
    # the rows after the broken ones still ran
    assert f"[PASS] circle8: {VERIFY_ROWS[-1]}" in text
    results = json.loads((out / "verify.json").read_text())
    assert [r["label"] for r in results] == ["always fails", "always raises", *MIXTURE_ROWS]
    assert [r["ok"] for r in results].count(False) == 2
    assert f"{len(results) - 2}/{len(results)} checks passed" in text


# ---------------------------------------------------------------------------
# failed runs leave no --out directory


def _failing_argv(tmp_path, case):
    small = tmp_path / "small.csv"
    write_loss_csv(small, np.geomspace(1.0, 100.0, 16), np.ones(16))
    narrow = tmp_path / "narrow.csv"
    write_loss_csv(narrow, [2.0, 10.0], [1.0, 1.0])
    gauss = single_gauss_file(tmp_path)
    return {
        "grids T=0": ["grids", "--T", "0"],
        "simulate samples=0": ["simulate", "--target", "circle8", "--baseline", "geometric",
                               "--samples", "0"],
        "report K=0": ["report", "--target", "circle8", "--baseline", "geometric", "--K", "0"],
        "report unknown target": ["report", "--target", "nope", "--baseline", "geometric"],
        "schedule infeasible K": ["schedule", "--loss", str(small), "--K", "40"],
        "report grid outside profile": ["report", "--target", gauss, "--baseline", "geometric",
                                        "--loss", str(narrow)],
    }[case]


@pytest.mark.parametrize("case, code", [
    ("grids T=0", 2), ("simulate samples=0", 2), ("report K=0", 2),
    ("report unknown target", 2), ("schedule infeasible K", 3),
    ("report grid outside profile", 2),
])
def test_failed_run_leaves_no_out_dir(tmp_path, case, code):
    out = tmp_path / "run"
    assert main(_failing_argv(tmp_path, case) + ["--out", str(out)]) == code
    assert not out.exists()


def test_write_json_leaves_no_partial_file():
    # an artifact is serialized before --out exists; a value strict JSON cannot hold
    # raises there, naming the artifact
    from snrsched.cli import _json_bytes

    with pytest.raises(ValueError, match=r"^x\.json: .*nan"):
        _json_bytes("x.json", {"a": 1.0, "b": math.nan})
    assert _json_bytes("x.json", {"b": 2, "a": 1.0}) == b'{\n  "a": 1.0,\n  "b": 2\n}\n'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_csv_bytes_rejects_a_non_finite_float_naming_its_column(value):
    from snrsched.cli import _csv_bytes

    with pytest.raises(ValueError, match=r"^t\.csv: column b is not finite"):
        _csv_bytes("t.csv", ["a", "b"], [("x", 1.0), ("y", value)])
    text = _csv_bytes("t.csv", ["a", "b"], [("x,y", 3), ("", 0.1)])
    assert text == b'a,b\n"x,y",3\n,0.10000000000000001\n'


def _huge_target(tmp_path, scale=1e120):
    comps = [{"w": 0.5, "mean": [m], "sigma": 1.0} for m in (scale, -scale)]
    return _gammas_file(tmp_path, {"variant": "gmm", "dim": 1, "components": comps}, "huge.json")


def _huge_loss(tmp_path):
    path = tmp_path / "huge_loss.csv"
    write_loss_csv(path, np.geomspace(0.5, 2000.0, 32), np.full(32, 1e308))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    # means at +-1e120 and gamma near 1e-240, where the posterior spreads
    # over both: mmse is about 4e239, so tr Cov^2 about 2e479 overflows
    (["mmse-table", "--target", _huge_target, "--points", "3",
      "--gamma-min", "1e-240", "--gamma-max", "4e-240"],
     "mmse.csv: column dmmse is not finite: -inf"),
    # risks of 1e308: the E_apx sum overflows
    (["report", "--target", "circle8", "--baseline", "geometric", "--K", "3",
      "--loss", _huge_loss],
     "report.csv: column e_apx is not finite: inf"),
], ids=["mmse-table", "report"])
def test_non_finite_artifact_leaves_no_out_dir(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    argv = [a(tmp_path) if callable(a) else a for a in argv] + ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracles overflow on the way
        assert main(argv) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_target_whose_pair_distances_overflow_exits_2_naming_it(tmp_path, capsys):
    # the oracles would read nan on these means, so the target is refused first
    out = tmp_path / "run"
    argv = ["mmse-table", "--target", _huge_target(tmp_path, 1e300), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "component 0 is too far from the weighted mean" in capsys.readouterr().err


def test_report_on_a_discrete_target_to_snr_1e20_writes_a_nonnegative_e_disc(tmp_path):
    # I must reach H at gamma = 1e20 without cancellation, or e_disc goes negative
    target = _gammas_file(tmp_path, target_to_json(toy_discrete("circle8")), "c8d.json")
    out = tmp_path / "run"
    argv = ["report", "--target", target, "--baseline", "geometric", "--K", "8",
            "--T", "1", "--delta", "1e-20", "--out", str(out)]
    assert main(argv) == 0
    (entry,) = json.loads((out / "report.json").read_text())
    assert 0.0 <= entry["e_disc"] < math.inf


def test_simulate_unwritable_sample_report_leaves_no_out_dir(tmp_path, capsys, monkeypatch):
    # samples.csv is streamed into --out, so sample_report.json must be serialized first
    import snrsched.cli as cli

    real = cli.sample

    def nan_nll(*args):
        samples, report = real(*args)
        return samples, {**report, "nll_mean": math.nan}

    monkeypatch.setattr(cli, "sample", nan_nll)
    out = tmp_path / "run"
    assert main(simulate_args(tmp_path, "run")) == 2
    assert not out.exists()
    assert "sample_report.json: " in capsys.readouterr().err


def _file_writers(tree) -> set:
    """Qualified names of the functions in ``tree`` that open a file for writing
    or make a directory."""

    def writes(call):
        f = call.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            return mode is not None and not (
                isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
        return isinstance(f, ast.Attribute) and f.attr in {
            "makedirs", "mkdir", "write_text", "write_bytes"}

    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.add(".".join(scope) or "<module>")
            walk(child, scope)

    walk(tree, [])
    return found


def test_only_run_write_creates_out_or_writes_a_file():
    # every subcommand hands _Run.write finished bytes; nothing else touches --out
    import snrsched.cli as cli

    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    assert _file_writers(tree) == {"_Run.write"}


def _gammas_file(tmp_path, obj, name="plain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv, flag", [
    (["grids", "--kind", "geometric", "--K", "4", "--rho", "nan"], "--rho"),
    (["report", "--target", "circle8", "--schedule", None, "--T", "nan"], "--T"),
    (["simulate", "--target", "circle8", "--schedule", None, "--samples", "10",
      "--delta", "inf"], "--delta"),
])
def test_unused_nonfinite_flag_leaves_no_out_dir(tmp_path, capsys, argv, flag):
    # the flag is read by nothing in the run, but the manifest's config echo
    # is strict JSON, so it is rejected before the first artifact
    sched = _gammas_file(tmp_path, {"gammas": [1.0, 10.0, 100.0]})
    out = tmp_path / "run"
    assert main([sched if a is None else a for a in argv] + ["--out", str(out)]) == 2
    assert not out.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (["--entropy", "1e160"], "disc_bound"),
    (["--c-fit", "1e200", "--entropy", "1"], "disc_bound"),
    (["--entropy", "1e154"], "disc_bound"),
    # every bound is finite, but log(Lambda)^2 (C H)^2 overflows before the / K
    (["--K", "8", "--entropy", "2.12e153"], "disc_term"),
])
def test_report_overflowing_bound_leaves_no_out_dir(tmp_path, capsys, flags, name):
    out = tmp_path / "run"
    argv = ["report", "--target", "circle8", "--baseline", "geometric", "--K", "4"]
    assert main(argv + flags + ["--out", str(out)]) == 2
    assert not out.exists()
    assert f"{name} is not finite" in capsys.readouterr().err


_GMM = {"variant": "gmm", "dim": 1, "components": [{"w": 1.0, "mean": [0.0], "sigma": 1.0}]}


@pytest.mark.parametrize("spec, message", [
    ([_GMM], "malformed target spec"),
    (dict(_GMM, dim=[1]), "dim must be a JSON integer"),
    (dict(_GMM, components=5), "malformed target spec"),
    (dict(_GMM, components=[{"w": 1.0, "mean": [0.0], "sigma": {"a": 1}}]),
     "malformed target spec"),
    ({"variant": "gmm", "dim": 1}, "malformed target spec: missing key 'components'"),
    (dict(_GMM, components=[{"mean": [0.0], "sigma": 1.0}]),
     "malformed target spec: missing key 'w'"),
    ({"variant": "discrete", "atoms": [{"x": [0.0]}]}, "malformed target spec: missing key 'p'"),
    (dict(_GMM, components=[{"w": 1.0, "mean": [0.0], "sigma": 1e-300}]),
     "component 0 sigma 1e-300 is too small: 1/(2 sigma^2) overflows"),
], ids=["top_level_list", "list_dim", "int_components", "dict_sigma", "missing_components",
        "missing_w", "missing_p", "underflowing_sigma"])
def test_malformed_target_json_exits_2(tmp_path, capsys, spec, message):
    target = _gammas_file(tmp_path, spec, "target.json")
    out = tmp_path / "run"
    argv = ["report", "--target", target, "--baseline", "geometric", "--K", "4", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --schedule files


@pytest.mark.parametrize("alpha", ["0", "2"])
def test_schedule_file_runs_report_and_simulate_on_its_gammas(tmp_path, capsys, alpha):
    loss = tmp_path / "p32.csv"
    gammas = np.geomspace(1.0, 1e3, 32)
    write_loss_csv(loss, gammas, 2.0 / (1.0 + gammas))
    assert main(["schedule", "--loss", str(loss), "--K", "5", "--alpha", alpha,
                 "--out", str(tmp_path / "s")]) == 0
    path = str(tmp_path / "s" / "schedule.json")
    sched = json.loads((tmp_path / "s" / "schedule.json").read_text())
    assert sched["algorithm"] == ("exact" if alpha == "0" else "beam")
    want = np.array(sched["gammas"]).tobytes()

    assert main(["report", "--target", "circle8", "--schedule", path,
                 "--out", str(tmp_path / "r")]) == 0
    (entry,) = json.loads((tmp_path / "r" / "report.json").read_text())
    assert np.array(entry["gammas"]).tobytes() == want and entry["K"] == sched["K"] == 5

    capsys.readouterr()
    assert main(["simulate", "--target", "circle8", "--schedule", path, "--samples", "50",
                 "--out", str(tmp_path / "sim")]) == 0
    rep = json.loads((tmp_path / "sim" / "sample_report.json").read_text())
    assert np.array(rep["gammas"]).tobytes() == want
    assert "K=5 " in capsys.readouterr().out

    # a plain {"gammas": [...]} file, and a schedule file whose other keys are
    # mangled, read the same grid: only "gammas" is read
    plain = _gammas_file(tmp_path, {"gammas": sched["gammas"]})
    mangled = _gammas_file(tmp_path, dict(sched, K=[1], indices="x"), "mangled.json")
    for i, p in enumerate((plain, mangled)):
        out = tmp_path / f"r{i}"
        assert main(["report", "--target", "circle8", "--schedule", p, "--out", str(out)]) == 0
        (other,) = json.loads((out / "report.json").read_text())
        assert dict(other, name=path) == entry


@pytest.mark.parametrize("obj", [[1.0, 10.0], {"gammas": "1,10"}, {"gammas": ["1", "10"]}],
                         ids=["top_level_list", "non_list_gammas", "string_gammas"])
def test_schedule_file_must_hold_a_list_of_numbers(tmp_path, capsys, obj):
    bad = _gammas_file(tmp_path, obj, "bad.json")
    out = tmp_path / "run"
    assert main(["report", "--target", "circle8", "--schedule", bad, "--out", str(out)]) == 2
    assert not out.exists()
    assert bad in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser


USAGE = "usage: snrsched [-h] {schedule,grids,report,simulate,verify,mmse-table} ...\n"

ARGV = {
    "schedule": ["--loss", "l.csv", "--K", "4", "--alpha", "0.5", "--T", "10", "--out", "o"],
    "grids": ["--kind", "edm", "--K", "3", "--rho", "5", "--out", "o"],
    "report": ["--target", "circle8", "--baseline", "geometric", "--baseline", "edm",
               "--schedule", "s.json", "--loss", "l.csv", "--c-fit", "2", "--seed", "3", "--out", "o"],
    "simulate": ["--target", "circle8", "--schedule", "s.json", "--order", "second",
                 "--final-denoise", "--sigma-err", "0.1", "--out", "o"],
    "verify": ["--seed", "2"],
    "mmse-table": ["--target", "grid8", "--policy", "monte_carlo", "--points", "5", "--out", "o"],
}


def _exit(parser, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("name", list(ARGV))
def test_one_command_parser_matches_the_full_parser(name, capsys, monkeypatch):
    # a parser built for one subcommand parses, helps and fails as the full one does
    monkeypatch.setenv("COLUMNS", "80")
    argv = [name, *ARGV[name]]
    assert vars(build_parser(name).parse_args(argv)) == vars(build_parser().parse_args(argv))
    for tail in (["--help"], ["--bogus"], ["--seed", "-1"], ARGV[name] + ["stray"]):
        one, full = (_exit(p, [name, *tail], capsys) for p in (build_parser(name), build_parser()))
        assert one == full
    assert full[2].startswith(USAGE)  # the stray argument's error prints the full usage line


def test_cli_without_a_command_keeps_its_output_and_exit_codes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err == USAGE + "snrsched: error: the following arguments are required: command\n"

    monkeypatch.setattr(sys, "argv", ["snrsched", "--help"])  # main reads sys.argv itself
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help() and out.startswith(USAGE)

    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--K", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(USAGE) and "error: argument command: invalid choice: 'bogus'" in err


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


def test_cli_import_leaves_verify_unloaded():
    proc = _run_python("-c", "import sys, snrsched.cli; print('snrsched.verify' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_leaves_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Hermite rule is built without numpy.polynomial, whose import
    # cost several ms of every report
    code = (
        "import sys, snrsched.cli; "
        f"rc = snrsched.cli.main(['report', '--target', 'circle8', '--baseline', 'geometric', "
        f"'--baseline', 'edm', '--K', '8', '--out', {str(tmp_path / 'run')!r}]); "
        "print(rc, 'numpy.polynomial' in sys.modules)"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_cli_import_leaves_the_samples_csv_formatter_unloaded():
    proc = _run_python("-c", "import sys, snrsched.cli; print('snrsched.csvtext' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_simulate_rejects_non_finite_samples(tmp_path):
    # in a fresh interpreter, whose stderr shows any warning on the way.
    # Every step's std is finite, so the pre-pass lets the run through; the
    # states stay finite near 1e300, where log_prob is -inf, so the sampler
    # refuses the NLL by name before --out is made.
    out = tmp_path / "run"
    proc = _run_python("-m", "snrsched.cli", "simulate", "--target", "circle8", "--baseline",
                       "geometric", "--sigma-err", "1e300", "--samples", "10", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "error: the sample NLL is not finite at 10 of 10 samples" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


def test_simulate_discrete_target_writes_strict_json(tmp_path, capsys):
    target = tmp_path / "circle8_discrete.json"
    write_target(target, toy_discrete("circle8"))
    out = tmp_path / "run"
    argv = ["simulate", "--target", str(target), "--baseline", "geometric", "--K", "4",
            "--samples", "50", "--final-denoise", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("nll=n/a")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["manifest.json", "sample_report.json"]
    for name in names:
        json.loads((out / name).read_text(), parse_constant=reject)
    rep = json.loads((out / "sample_report.json").read_text())
    assert rep["nll_mean"] is rep["nll_stderr"] is rep["denoised_nll_mean"] is None


@pytest.mark.parametrize("dist, flags, cfg", [
    (toy_discrete("circle8"), ["--final-denoise"], {"final_denoise": True}),
    (build_toy("circle8"), ["--order", "second"], {"order": "second"}),
], ids=["discrete-final-denoise", "circle8-second-order"])
def test_sample_report_is_the_written_report(tmp_path, dist, flags, cfg):
    # sample() returns the sample_report.json object; the CLI adds only "schedule"
    target = tmp_path / "target.json"
    write_target(target, dist)
    out = tmp_path / "run"
    argv = ["simulate", "--target", str(target), "--baseline", "geometric", "--K", "4",
            "--samples", "50", "--seed", "3", *flags, "--out", str(out)]
    assert main(argv) == 0
    written = json.loads((out / "sample_report.json").read_text())
    assert written.pop("schedule") == "geometric"
    _, report = sample(dist, grid_geometric(1.0, 1e-3, 4),
                       SamplerConfig(n_samples=50, seed=3, **cfg))
    json.dumps(report, allow_nan=False)
    assert report == written


def test_simulate_rejects_overflowing_grid_before_sampling(tmp_path, capsys, monkeypatch):
    import snrsched.sampler as sampler

    calls = []
    kernel = sampler.posterior_mean

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(sampler, "posterior_mean", counting)
    out = tmp_path / "run"
    # a subnormal first knot puts T = 1/gamma_0 at inf
    sched = _gammas_file(tmp_path, {"gammas": [1e-320, 1.0, 1000.0]})
    argv = ["simulate", "--target", "circle8", "--schedule", sched, "--samples", "10",
            "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert calls == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "gamma_0 = 1e-320" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T", ["1e200", "1e300", "1e308"])
def test_simulate_runs_where_the_step_std_product_overflows(tmp_path, T):
    # t_1 (T - t_1) overflows at these T, but the step's noise std does not
    out = tmp_path / "run"
    argv = ["simulate", "--target", "circle8", "--baseline", "geometric", "--T", T,
            "--samples", "10", "--out", str(out)]
    assert main(argv) == 0
    _, rows = read_csv(out / "samples.csv")
    assert len(rows) == 10 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_perfbench_selftest_passes():
    # the benchmark traces snrsched names and signatures; this catches a change that breaks them
    script = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "selftest.py")
    proc = subprocess.run([sys.executable, "-B", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "selftest: ok"


def test_console_entry_point_runs():
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "snrsched.cli", "verify")
    assert proc.returncode == 0, proc.stderr
    assert "30/30 checks passed" in proc.stdout
