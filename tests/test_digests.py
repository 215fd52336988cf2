"""Committed SHA-256 digests of what fixed CLI flag vectors print and write.

Repeated runs must be byte-identical, and a change that keeps the arithmetic
must keep every output byte. Each vector runs in its own empty directory with
a relative ``--out`` (the sidecar records ``out=`` as given), and the digests
of its stdout and of every file it writes are compared with those recorded
here. A change that moves a digest on purpose updates it in the same change
and names the vector and the reason.

The toy2d vectors do their arithmetic elementwise or in Python floats, except
the norm `solve` prints, which goes through a BLAS dot. The small quadratic,
lasso, logistic and logsumexp `bench` and alg2 `solve` vectors, and the
default-size `solve` vectors, use BLAS matrix products throughout, in
their problems, their runs and their reference optima. Another numpy or BLAS
build may round those differently, so the digests were recorded with the
build in `RECORDED_WITH`, and a mismatch names both builds.
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
    # the reference optimum of each family with no exact value: alg2 runs to its tolerance
    ("bench", "--experiment", "quadratic", "--n", "30", "--trials", "3", "--iters", "300",
     "--out", "out.csv"): {
        "stdout": "040975bdfb746d82ea320c1e79471ef19811e63dc19a44b18c9ce33c08fac301",
        "out.csv": "ab04ed237f8490b44142d6af696d41897998f228d3d64bc24a7a6cd3a940dc22",
        "out.meta.txt": "c25fe3efcc549f790733b722cf5ea035a42ed91e69f46b72ca93b1043142edc2",
        "out.raw.csv": "082043ab8a5c69d8eeffea2a86e70895f03dc1d11d2494c526936e37a12a4ef6",
    },
    ("bench", "--experiment", "lasso", "--m", "20", "--n", "40", "--trials", "3", "--iters", "300",
     "--out", "out.csv"): {
        "stdout": "65dc302b82d11e3f88e0a79b617adc82b5a2fe0fd6fcad9c74d42f4b49b3f59c",
        "out.csv": "eb9296f039a71090e130191da65273de01430f788a8db211633d6be97d1ab36d",
        "out.meta.txt": "d679dbbe167dcf0e9e4cc6cfc7c5528b1653075a9b32c01acfaa68fa8d156b7c",
        "out.raw.csv": "04c840da75e9a10a41e6c225c956406947255633d2dbaac832a8aaf8000403ad",
    },
    ("bench", "--experiment", "logistic", "--m", "30", "--n", "20", "--trials", "3", "--iters",
     "300", "--out", "out.csv"): {
        "stdout": "88913e0730bbc42d5e3ee9c17b3dd89f1f71c2648af26e19205895d93a077886",
        "out.csv": "7de58afd4c212acb3c96aae9ff01c2e456aa7a103bfa130ae2744cc181b7612d",
        "out.meta.txt": "7c0d6edcb641fb79095abf6b4d56459c8ecc26f0375f88ee75e6cfd05cee3e00",
        "out.raw.csv": "63cf0c99696565980a365bdc8f413ba612268a970218c20c2e03c3be210455c5",
    },
    ("bench", "--experiment", "logsumexp", "--k", "30", "--n", "20", "--trials", "3", "--iters",
     "300", "--out", "out.csv"): {
        "stdout": "0245ac1a35c1c0f2b83af5328890cc4994c53c09b6a3c18be80f353aa6d0ed56",
        "out.csv": "f674b2e21feaab469a54292853aae247625f3d2cc3f679c13a3ca852fb067ce5",
        "out.meta.txt": "67493a4a3d44133d42b017288eaad476c2c65e8327caee29e94beca6545eec66",
        "out.raw.csv": "d851d43735d0915c11a3ecaff95c3fc4c3cb45c9a942003ab48887aa9ffd703d",
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
    # alg2 runs whose products multiply only the iterate's support once it has
    # at most half the components nonzero, in two row blocks
    # (`_rowsplit.RowSplit`); the quadratic's hands the rows of grad_g at q off
    # its support to the helper process on a host with more than one CPU
    # (`_fork.helper_for`), the same with the helper and without it
    ("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "1000", "--iters", "300",
     "--out", "out.csv"): {
        "stdout": "b8d057203196813253e67277b68bfae0cef0ddc2172aa2916b31f9a30e37fad9",
        "out.csv": "52df9dce3ffa8242191a11ba3b30990503bfbfd08608774428f89c83e66efc56",
    },
    ("solve", "--problem", "lasso", "--solver", "alg2", "--iters", "300", "--out", "out.csv"): {
        "stdout": "a5dc2e0d47a518f2f62541411bd2ae14b145d9c260b10a3a04139cbd5e82289a",
        "out.csv": "c29650f82211d19b6f4e3c7526b46df55d5e2726900259bd0463296b20500113",
    },
    # a method other than alg2 on a large transposed family: its grad_g comes
    # from the two row blocks too
    ("solve", "--problem", "lasso", "--solver", "fista", "--iters", "300", "--out", "out.csv"): {
        "stdout": "c7173eccfb10b50755d06fd23d442f982aeac84f8c3b18feff5d1b40316d5d99",
        "out.csv": "5dcac02dd1cfac79d2726c41ba43c565ed79490f2c096a355e13386cca20bad2",
    },
    # alg2 on the small matrix-family instances, below the helper's gate
    ("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "30", "--iters", "300",
     "--out", "out.csv"): {
        "stdout": "03ca58fe81fe45bffd95381a34f7a3fa120e6d17440eab71680ef23edd26255c",
        "out.csv": "517d9fe850c965cd2c92d3c6a0aadd3aafa4e62bc17613e4e159f33ebecfdbf7",
    },
    ("solve", "--problem", "lasso", "--solver", "alg2", "--m", "20", "--n", "40", "--iters",
     "300", "--out", "out.csv"): {
        "stdout": "58d98010c1f382c3ae0adc54161b3ee483a5e134e0fc6467e553f62e662c7f8d",
        "out.csv": "034a9e63a8130c0c9135005b1ad0f94470eb5f933c03c7b473f481b63a5b76b3",
    },
    ("solve", "--problem", "logistic", "--solver", "alg2", "--m", "30", "--n", "20", "--iters",
     "300", "--out", "out.csv"): {
        "stdout": "67f3e531805c680dfccdbafc1e3d85606c8fb06c57b33f2accdea42fc33d0fa9",
        "out.csv": "a036c5a41fcc93a2a77cb63cf1b63ffc9383d2a866b8e44f0f74760a71ef6b0d",
    },
    ("solve", "--problem", "logsumexp", "--solver", "alg2", "--k", "30", "--n", "20", "--iters",
     "300", "--out", "out.csv"): {
        "stdout": "243549ed4485a5dd29373e7d3a1c44f5c583c33771a5a2ccc4ccc180042469c4",
        "out.csv": "23d4dc90bacb30875d31f7c9dfe35a4ca2b6b612a9b3fd2f3d6650e52ea2abb5",
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


def _ids(vectors) -> list[str]:
    # the first five words name a vector; a later vector that shares them
    # takes flag-value pairs until its name is new
    ids = []
    for argv in vectors:
        k = 5
        while " ".join(argv[:k]) in ids:
            k += 2
        ids.append(" ".join(argv[:k]))
    return ids


@pytest.mark.parametrize("argv", list(DIGESTS), ids=_ids(DIGESTS))
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
