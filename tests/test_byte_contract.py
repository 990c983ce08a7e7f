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
from snrsched import GaussianMixture
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
        "manifest.json": "cef298349fd4df3ecd7c9e32fdf5b4461c54cb7726f342c3d2ba60ea67685c4c",
        "mmse.csv": "27b506029b80204c683bba222a2d4d2d9dd70f42bdd7e49f6889dfbac1af1f79",
    },
    "mmse_quadrature": {
        "manifest.json": "61259808fda173a29bdb9c0af82b5bee1c89281d27624504fdbfa0a0d051a8c6",
        "mmse.csv": "5a23647960ccd82a3ad66eac75ddb7aaad0c3bd50a5cd0abcdfd42d40e60121c",
    },
    "mmse_quadrature_1d": {
        "manifest.json": "0d963b5474b85329ee560a2ec03fae4169ae205df6659946fa5bb79d07ade94b",
        "mmse.csv": "873bb56ee7fadc9a84326c418ab7fd93a64679a34fe75c4903fb1231417b3dab",
    },
    "report": {
        "manifest.json": "e33f197fe8ff2edcc7a114d8dc0ae4dcbc20be778bf3cddf6e767bf9a762f54b",
        "report.csv": "4c9812c1b653b20f79a36bdbeb24e50a771e9e038ca7a1f8d3e0523e262b2a9d",
        "report.json": "e41844689cf0d95a9d34d8460ab8908dae9428954ec59100931fea753d19a5c2",
    },
    "schedule_alpha": {
        "manifest.json": "62b326d7e59f0fcd5e190a93241cdbee6699ef8c87f58b0eb80a6f9fc120fc4d",
        "schedule.json": "203247b189b665c542d0f908c8b06d2c3ef15e061da59104c299e31f88446471",
    },
    "schedule_alpha0": {
        "manifest.json": "59af157dbf78c852c7e153f2f4a42184e66890243862ed30b7500f62532040ec",
        "schedule.json": "f713a6c5b26095b8942f8c6614acd12338b3a53dade177078a12ea7712f83ce1",
    },
    "simulate_circle8": {
        "manifest.json": "e24e93ab227c2675ea20dbe610178ce283e98bc67720fc66a9c81030ecfdd32f",
        "sample_report.json": "b0f9f5dbd527f8e5349ed0aa09b2332966dda377edab6a818cc2e42fcac402cc",
        "samples.csv": "f9d8c9a40bbdeea0d73d13f235fdb74bb0f43fc941d2ecd32470f0f09f764d82",
    },
    "simulate_unequal": {
        "manifest.json": "8470ecd5f4ce1b3a7da18eb60573141509959cc63dc5b07970cf5852b5b94507",
        "sample_report.json": "a971c45656850dd12f2837e2fcb75f1381e709b84dbfdc3988d756a543f8e026",
        "samples.csv": "154c68c426d08faeb2de3027723adb144b4454569f79d32222195cf6ffe4951c",
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
    assert got == PINS
