"""Byte contract: small runs of every subcommand write pinned bytes.

Each case runs one subcommand in-process from a scratch directory with
relative paths, so the manifest's config echo is the same on every run. It
pins the sha256 of every artifact, and of the manifest's non-timing fields:
the command, the config echo, the artifact list and the stage names, with
the versions checked against the running interpreter. Every float is written
in full (``%.17g`` or ``repr``), so a one-ulp change to any of them moves a
hash. The pins belong to this toolchain (NumPy, its BLAS and libm): a change
that moves written bytes on purpose re-pins them and says why.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

import snrsched
from snrsched import FiniteDiscrete, GaussianMixture
from snrsched.cli import main
from snrsched.targets import target_to_json

CASES = {
    "schedule_alpha0": ["schedule", "--loss", "loss.csv", "--K", "4"],
    "schedule_alpha": ["schedule", "--loss", "loss.csv", "--K", "4", "--alpha", "0.5"],
    "grids": ["grids", "--K", "4"],
    "report": ["report", "--target", "circle8", "--baseline", "geometric", "--baseline", "edm",
               "--K", "4", "--loss", "loss.csv"],
    "simulate_circle8": ["simulate", "--target", "circle8", "--baseline", "geometric", "--K", "4",
                         "--samples", "64", "--seed", "3"],
    "simulate_unequal": ["simulate", "--target", "unequal.json", "--baseline", "edm", "--K", "4",
                         "--samples", "64", "--seed", "4", "--order", "second"],
    "simulate_prior": ["simulate", "--target", "circle8", "--baseline", "geometric", "--K", "4",
                       "--samples", "64", "--seed", "6", "--init", "gaussian_prior"],
    "simulate_atoms_prior": ["simulate", "--target", "atoms.json", "--baseline", "edm", "--K", "4",
                             "--samples", "64", "--seed", "7", "--init", "gaussian_prior"],
    "simulate_atoms": ["simulate", "--target", "atoms.json", "--baseline", "geometric", "--K", "4",
                       "--samples", "64", "--seed", "8"],
    "mmse_quadrature": ["mmse-table", "--target", "circle8", "--policy", "quadrature",
                        "--points", "5"],
    "mmse_quadrature_1d": ["mmse-table", "--target", "line.json", "--policy", "quadrature",
                           "--points", "5"],
    "mmse_monte_carlo": ["mmse-table", "--target", "unequal.json", "--policy", "monte_carlo",
                         "--points", "3", "--samples", "2000", "--seed", "5"],
    "verify": ["verify", "--target", "circle8", "--seed", "1"],
}

PINS = {
    "grids": {
        "grids.csv": "fe2e99be5c932257f34a72d150b0a47dfba5b2541e9354beedd80ec9106aac06",
        "grids.json": "0d760f5f4fe8b0f752f90b133da08acbf897ae85456e0f460ce29f7df7d1d85c",
        "manifest.json": "f3cad2e63d66ca04a5aa5fdee1dff01b82e61cd0e34604305ea6c4d13efd2826",
    },
    "mmse_monte_carlo": {
        "manifest.json": "f60bde4def029c9ad3e084b4a442e0796c440a0ee9437216157ca2e101c8eddb",
        "mmse.csv": "9493dd7643f4049c373062f7373e28f4315ab332f6cdf9d47db5cfb1439be84b",
    },
    "mmse_quadrature": {
        "manifest.json": "d1c83d557b69c16305ac69d1690f4016fcbc86fe38bbaa7ec12c04d61735aed3",
        "mmse.csv": "39adfdcd22e680e897761be70ebc13b621d72a95dd7bd4073231756198812e7f",
    },
    "mmse_quadrature_1d": {
        "manifest.json": "b03cde49f213bcfca224b6919764f49079f13ee50061f3c87bd01ffa965f007e",
        "mmse.csv": "986ed7a3b2fe44e989b3cca1c683854688cf9e466b8893f580ec45df5c448423",
    },
    "report": {
        "manifest.json": "c4e913b6943f7f9b715146a7f47ed6db114a94bf40ec9a8a45814b7df06e8e2c",
        "report.csv": "4c9b8e0b71e2749d944f32c17d9b4379e2e7c3843483658c6e4f53627f970442",
        "report.json": "8b196c22b6dd737f7f542cf79acac372075e4f238add8661628782f1fd0e0480",
    },
    "schedule_alpha": {
        "manifest.json": "62b326d7e59f0fcd5e190a93241cdbee6699ef8c87f58b0eb80a6f9fc120fc4d",
        "schedule.json": "203247b189b665c542d0f908c8b06d2c3ef15e061da59104c299e31f88446471",
    },
    "schedule_alpha0": {
        "manifest.json": "59af157dbf78c852c7e153f2f4a42184e66890243862ed30b7500f62532040ec",
        "schedule.json": "f713a6c5b26095b8942f8c6614acd12338b3a53dade177078a12ea7712f83ce1",
    },
    "simulate_atoms": {
        "manifest.json": "5c9abf66a2767f074808bcbe075b5b32fd12710bf9a35da54281ed1e52c70094",
        "sample_report.json": "ac81bbaf53f2194a50d2ec7c9c3f2b111267f2e8302fc6e66eda5566197d5ee4",
        "samples.csv": "46b02e0902fd2015db9b473586c1aff989e827b2e21e78372a10059b6351d524",
    },
    "simulate_atoms_prior": {
        "manifest.json": "aff8ee4e8e8664dcddd36fcca93067663556b98a9c471bb41d19991488835d33",
        "sample_report.json": "e20b18bb49fb5d4d07feef22df5c334312e2abc763d9cc632fe8b682d8ba37eb",
        "samples.csv": "abc5e939125e3766048c07e7b90ceddcf21cc11c0ba8510b06fd1737722e4a4d",
    },
    "simulate_circle8": {
        "manifest.json": "bc6a17a2e74aea6a283f2fe13ff187ec58eb1f08f3519c8dfec698dca866b3fd",
        "sample_report.json": "1da64e39738403294e82140987273690446e90f08115f9c5104731358830bd24",
        "samples.csv": "50eb75f05cd2943c6c46b6e02651699516dd8a2a0c01e7177e6a3f9e76b3fc77",
    },
    "simulate_prior": {
        "manifest.json": "75aaf00f8ecb1baaea3a4d36ac774c578ab45e89110d5300fa5abfc2aedd6d78",
        "sample_report.json": "d41d054637fb00c32725b86f5a77af747b57b5d8543097f977e923d6be578134",
        "samples.csv": "036f55ca60486ea131f41559eed01fa7993936de6280d12d4df97d0499aae356",
    },
    "simulate_unequal": {
        "manifest.json": "9189bcd28da1ae907a1eebe2f9220656cef61bdd434df552e34ff0f42ef58b3b",
        "sample_report.json": "f5f2ddfbd4dacc77af22f10bc4b610900b7fca59e67cc6bdfd9e131ee39c3567",
        "samples.csv": "dd56d69abd3623579c21fa7c515d81c355e6e8b32223cc4ded8d525c880c38ef",
    },
    "verify": {
        "manifest.json": "10895f7a3cdd9bebeeae424641ca260357d10e9d4f642bb858aa968aa49e7e20",
        "verify.json": "4457188d81069600b3b61144b92bf2fddb34cc73e3c4b3d5a5dad48f20764e94",
    },
}


def _write_inputs(d):
    g = np.geomspace(1.0, 1000.0, 24)
    x0 = 2.0 / (1.0 + g) * (1.0 + 0.1 * np.sin(np.arange(24)))
    with open(d / "loss.csv", "w") as fh:
        fh.write("gamma,loss,kind\n")
        for k, (gk, lk) in enumerate(zip(g.tolist(), x0.tolist())):
            # every third row is an eps loss, which the reader converts to x0
            fh.write(f"{gk!r},{lk * gk!r},eps\n" if k % 3 == 0 else f"{gk!r},{lk!r},x0\n")
    dist = GaussianMixture(weights=[0.5, 0.3, 0.2], means=[[0.0, 0.0], [2.0, 0.0], [0.0, -1.5]],
                           sigmas=[0.3, 0.6, 1.0])
    (d / "unequal.json").write_text(json.dumps(target_to_json(dist)) + "\n")
    line = GaussianMixture(weights=[0.25, 0.75], means=[[-1.0], [2.0]], sigmas=[0.5, 0.2])
    (d / "line.json").write_text(json.dumps(target_to_json(line)) + "\n")
    atoms = FiniteDiscrete(points=[[0.0, 0.0], [1.5, -0.5], [-1.0, 2.0]], probs=[0.5, 0.3, 0.2])
    (d / "atoms.json").write_text(json.dumps(target_to_json(atoms)) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(outdir) -> dict:
    """{artifact: sha256} and, under "manifest.json", the sha256 of its non-timing fields."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["versions"] == {"snrsched": snrsched.__version__, "numpy": np.__version__,
                                    "python": sys.version.split()[0]}
    fixed = {k: manifest[k] for k in ("command", "config", "artifacts")}
    fixed["stages"] = sorted(manifest["timings_sec"])
    digests = {a["path"]: _sha((outdir / a["path"]).read_bytes()) for a in manifest["artifacts"]}
    digests["manifest.json"] = _sha(json.dumps(fixed, sort_keys=True).encode())
    return digests


def test_every_subcommand_writes_its_pinned_bytes(tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in CASES.items():
        assert main([*argv, "--out", name]) == 0, name
        got[name] = _digests(tmp_path / name)
    capsys.readouterr()
    moved = _moved(PINS, got)
    if moved:
        pytest.fail(f"{len(moved)} pinned artifact(s) moved:\n" + "\n".join(moved))


def _moved(pins: dict, got: dict) -> list:
    """One "case/file: old -> new" line per artifact whose hash differs; None where absent."""
    lines = []
    for case in sorted(pins.keys() | got.keys()):
        old, new = pins.get(case, {}), got.get(case, {})
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                lines.append(f"{case}/{name}: {old.get(name)} -> {new.get(name)}")
    return lines


def test_moved_names_each_changed_artifact_with_both_hashes():
    pins = {"a": {"x.csv": "1", "m.json": "2"}, "b": {"y.json": "3"}}
    got = {"a": {"x.csv": "1", "m.json": "9", "z.csv": "4"}, "c": {"w.csv": "5"}}
    assert _moved(pins, got) == [
        "a/m.json: 2 -> 9", "a/z.csv: None -> 4", "b/y.json: 3 -> None", "c/w.csv: None -> 5",
    ]
    assert _moved(pins, pins) == []
