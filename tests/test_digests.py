"""Committed SHA-256 digests of what fixed CLI flag vectors print and write.

Repeated runs must be byte-identical, and a change that keeps the arithmetic
must keep every output byte. Each vector runs in its own empty directory with
a relative ``--out`` (the sidecar records ``out=`` as given), and the digests
of its stdout and of every file it writes are compared with those recorded
here. A change that moves a digest on purpose updates it in the same change
and names the vector and the reason.

The vectors do their arithmetic elementwise or in Python floats, except the
norm `solve` prints, which goes through a BLAS dot that another numpy or BLAS
build may round differently. The digests were recorded with the build in
`RECORDED_WITH`, and a mismatch names both builds.
"""

import hashlib

import numpy as np
import pytest

from l1subgrad.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

DIGESTS = {
    # 20 trials: through the forked workers on a host with more than one CPU
    ("bench", "--experiment", "toy2d-perturbed", "--trials", "20", "--out", "out.csv"): {
        "stdout": "88946e14bbe849bc8f41a36f90da72d14149051d2faf8f46f7138cab3f73ff76",
        "out.csv": "5d060285505acdcf6cb42bf90631eb23be9a194907a27ef8afb07e2f0991a3b6",
        "out.meta.txt": "6eb19a891a9f8efb6792518cb0b09a8d30e0b1504bb1fba0c50bd89e053dadea",
        "out.raw.csv": "f19c4946b11c55a3dfaea01211d0cb2cae670a6910bde9afd4e02c8e77934c28",
    },
    ("bench", "--experiment", "toy2d", "--trials", "1", "--out", "out.csv"): {
        "stdout": "6bb28bf9014b7529348e90d3bcf22b226ef649dafd094277d84782fca5246a3e",
        "out.csv": "925fc434f3ff58a81f5f79139ee3dcc37080f00d9ca78a7b212d30b043fbf24a",
        "out.meta.txt": "83c8d520b5682d940ce520a0824bf45c4b4cbc6c5587e93fb10f05c04845edb7",
        "out.raw.csv": "d74b08e7fe5ff7e33be1d2c58749086d0eb9280f7ef379a6c29615986caeb546",
    },
    ("solve", "--problem", "toy2d", "--solver", "alg1", "--out", "out.csv"): {
        "stdout": "4aec06d33f698f8eafc18e36428447a89a76f3cfb7c35556dabad1aad4c49918",
        "out.csv": "59498f86d6061de666718562caaa6c324ed116910b20e60f8427382e0fe31789",
    },
    ("solve", "--problem", "toy2d", "--solver", "ista", "--out", "out.csv"): {
        "stdout": "7c48ed2a645a49d0e53cc60dd9c9f0d65bd92a50bfe1afa87a4def7b4c32c775",
        "out.csv": "d19ff0509f565c2d8a41d24da6ab78148fba4c29f341c4e85a4e10254503fc3e",
    },
    ("solve", "--problem", "toy2d", "--solver", "classic", "--out", "out.csv"): {
        "stdout": "24792acc3d233bc53f2eb1fdb01c194f84f0d2181fc6c1ed3acd9badcb901ea1",
        "out.csv": "2a94a7fbca0fddcdb35c753b591542fc16d1fa155acb422b17bdfe8dadb7caeb",
    },
    ("verify", "--suite", "anti-oscillation"): {
        "stdout": "c41a139f6a62de48631076e502a64cb3bb656162d4019b3201b2d96ba5040029",
    },
}


def _this_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(DIGESTS), ids=lambda argv: " ".join(argv[:5]))
def test_output_digests(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = {"stdout": _sha256(out.encode())}
    got.update((p.name, _sha256(p.read_bytes())) for p in sorted(tmp_path.iterdir()))
    if got != DIGESTS[argv]:
        pytest.fail(
            f"the output of {' '.join(argv)} moved: digests recorded with {RECORDED_WITH}, "
            f"this run is {_this_build()}; its digests are {got}"
        )
