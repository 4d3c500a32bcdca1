"""Byte identity of the CLI's output on the sample models.

Every verb runs in-process through `cli.main` on `samples/*.model`, in one
working directory per model so that verbs hand files to each other by
relative name. Each case's exit code, stdout, stderr and `-o` file are
hashed together and compared with the recorded digests below, so a change
that alters any output byte fails here even when two runs of it agree.
Re-record only for an intended output change, and say so in the change's
notes:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from microlump.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
MODELS = ("voter3", "path3", "majority3")
GENS = ("SN", "Sdelta", "full")


def cases(model):
    """(case id, argv, output file or None), in pipeline order."""
    m = f"{model}.model"
    out = [("compile", ["compile", m, "-o", "micro.sparse"], "micro.sparse"),
           ("maps", ["maps", m, "--table"], None),
           ("check-sym-SN", ["check-sym", m, "--gens", "SN"], None),
           ("check-sym-flip", ["check-sym", m, "--gens", "flip"], None)]
    for g in GENS:
        out.append((f"orbits-{g}", ["orbits", m, "--gens", g, "-o", f"{g}.part"],
                    f"{g}.part"))
    for g in GENS:
        out.append((f"check-lump-{g}",
                    ["check-lump", "micro.sparse", f"{g}.part", "--exhaustive"], None))
        out.append((f"lump-{g}", ["lump", "micro.sparse", f"{g}.part",
                                  "-o", f"macro-{g}.sparse"], f"macro-{g}.sparse"))
    for chain in ("micro", "macro-Sdelta"):
        out.append((f"analyze-{chain}", ["analyze", f"{chain}.sparse"], None))
        out.append((f"analyze-{chain}-kv", ["analyze", f"{chain}.sparse", "--format", "kv",
                                            "-o", f"{chain}.kv"], f"{chain}.kv"))
    out += [("propagate-micro", ["propagate", "micro.sparse", "--start", "1", "-t", "5"],
             None),
            ("propagate-macro", ["propagate", "macro-Sdelta.sparse", "--start", "1",
                                 "-t", "7", "-o", "macro.dist"], "macro.dist"),
            ("simulate", ["simulate", m, "--start", "1", "--steps", "30", "--seed", "9",
                          "-o", "traj.txt"], "traj.txt"),
            ("simulate-projected", ["simulate", m, "--start", "(white,black,white)",
                                    "--steps", "12", "--seed", "4",
                                    "--partition", "SN.part"], None),
            ("estimate", ["estimate", m, "--samples", "2000", "--seed", "6"], None)]
    return out


def run_model(model, workdir):
    """Case id -> sha256 over exit code, stdout, stderr and output bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copy(SAMPLES / f"{model}.model", workdir)
    digests = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv, target in cases(model):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            data = Path(target).read_bytes() if target and Path(target).exists() else b""
            record = b"\0".join([str(code).encode(), out.getvalue().encode(),
                                 err.getvalue().encode(), data])
            digests[f"{model}/{case}"] = hashlib.sha256(record).hexdigest()
    finally:
        os.chdir(here)
    return digests


GOLDEN = {
    "voter3/compile": "b02014a11345d8d4c2feb1337752569479c875db0c08c40087dd75911f8137fa",
    "voter3/maps": "4e3a56b606e4bf1af4e9aaab7ad155a25c59e3c87a94905e66a582ba81af514e",
    "voter3/check-sym-SN": "9727d372937cb18f7d153820edd464b81dca0b1fd095a84d366d9c4bef01f8b0",
    "voter3/check-sym-flip": "2134ba2dda2154efd6533c43a03a33f32ed427464fa8955607d2aa37a0ccddf8",
    "voter3/orbits-SN": "1e75ecaf055df0cd9ca4f8872958b4c71f12082f4df7effdc75ba1aa67a2ee0d",
    "voter3/orbits-Sdelta": "098f0949b2b9a6aa72f32c179bdc377905e843eb03033037bd7b59c25962fb78",
    "voter3/orbits-full": "7d102e1e1748bb8b3f5f35c8925df39a0144afde18ec31bfe040fd7b2cb4bd87",
    "voter3/check-lump-SN": "90f31f651f2f1a7cb14672dfeb7e8eda2d1495eb3e78e7abbcec4bd236a3afbd",
    "voter3/lump-SN": "f67469e522b7c8f88ba37e73d75c12c3e862dcec25998085070f8c7db7eea550",
    "voter3/check-lump-Sdelta": "90f31f651f2f1a7cb14672dfeb7e8eda2d1495eb3e78e7abbcec4bd236a3afbd",
    "voter3/lump-Sdelta": "f0df8ebfe5fae3fce0c0bbe1b3b14eb994731bd56fc23591ede5eecffcebbbf1",
    "voter3/check-lump-full": "d41dc81b1ef616afae097eae52032d82997e950c3fd6924efa69ec0174c13472",
    "voter3/lump-full": "a8d20e41e89bac0fc0bfc5532be2f5f9ada2581386f78c2924444adcaf47cd80",
    "voter3/analyze-micro": "2266fc83d1964ca6b17ad667f18f3bd880e89400437f6e9f9fb5897f45c07dd3",
    "voter3/analyze-micro-kv": "f97ded699056b50c6c854b2ee8195f715de57b9496d38af231a9166528256e40",
    "voter3/analyze-macro-Sdelta": "29f5a6d6647f00a9a7487932bea730b0ef026ff9957f65a2a923cf6a6b8bad05",
    "voter3/analyze-macro-Sdelta-kv": "5e2621fac49ac58b99b09bb48f41235c8cee552deb4808b83121359c613d3139",
    "voter3/propagate-micro": "255454751e74d2a3d024d62b144322d38d2be72f8d0d7726214fd5a87257bae3",
    "voter3/propagate-macro": "e7d3b374f1ac6b00786518f13cc00654b14bd01692845cf2c9491e472a9cd754",
    "voter3/simulate": "b50f35759d5039d5cfb2b1b81063e6b721508f0456a83b7a09eec88eaabe82f0",
    "voter3/simulate-projected": "ab147a8fe5e47d491f9c4163a52bf66c3603fee9bd7cffbc885110e73935e129",
    "voter3/estimate": "bc62ba454839cb23ecd8d0ed5253c27ab64a26069a2a24986af3e0ab93ce0932",
    "path3/compile": "0241b23cd867de83b1a44cf196b21a5f161c876ce67078c3f79a3ba04e531185",
    "path3/maps": "ae66501ad981854ca1179b8251f2328107f44899005e27eb646edbda6cb8d1ef",
    "path3/check-sym-SN": "5807a3db9920f04d6d78d0d496b697022924ec769f3f1c0c39155bf0e9d28163",
    "path3/check-sym-flip": "2134ba2dda2154efd6533c43a03a33f32ed427464fa8955607d2aa37a0ccddf8",
    "path3/orbits-SN": "1e75ecaf055df0cd9ca4f8872958b4c71f12082f4df7effdc75ba1aa67a2ee0d",
    "path3/orbits-Sdelta": "098f0949b2b9a6aa72f32c179bdc377905e843eb03033037bd7b59c25962fb78",
    "path3/orbits-full": "7d102e1e1748bb8b3f5f35c8925df39a0144afde18ec31bfe040fd7b2cb4bd87",
    "path3/check-lump-SN": "91800ae727d2c20d82f5c9237f61674e0f6c8e2f984b7bde1bdf784a2149df48",
    "path3/lump-SN": "57d1d678f07a812ea14d4235185b55efef7e218baf9a63618c20991790297d4c",
    "path3/check-lump-Sdelta": "90f31f651f2f1a7cb14672dfeb7e8eda2d1495eb3e78e7abbcec4bd236a3afbd",
    "path3/lump-Sdelta": "d1e6d09c1d814ac6a7a56663ff0af6c85f091791af58eed7bcb79b94dfeb92f7",
    "path3/check-lump-full": "d41dc81b1ef616afae097eae52032d82997e950c3fd6924efa69ec0174c13472",
    "path3/lump-full": "a8d20e41e89bac0fc0bfc5532be2f5f9ada2581386f78c2924444adcaf47cd80",
    "path3/analyze-micro": "e0d50a888b26ada457d8ee7e6b8ef42959a7512e8c8a035949b5be3a56ed5ee4",
    "path3/analyze-micro-kv": "918f945a897838b72dba073fe0ea95dd840648913327160e550b9d150a720109",
    "path3/analyze-macro-Sdelta": "29f5a6d6647f00a9a7487932bea730b0ef026ff9957f65a2a923cf6a6b8bad05",
    "path3/analyze-macro-Sdelta-kv": "5e2621fac49ac58b99b09bb48f41235c8cee552deb4808b83121359c613d3139",
    "path3/propagate-micro": "fb3ef62e0e8f84ce5c528e1a01144eab5700e9af38c618a7fd706a8a1003f8c2",
    "path3/propagate-macro": "abadf36c392717f729b0e3c46f885b0a06fd78d6383e05beda07790c3fc62492",
    "path3/simulate": "9bb77feee4a2cffd7da84c46c8ce988e4e98403e081a484ea8fbf5544c5e2f66",
    "path3/simulate-projected": "c775a61cdcbb2e45ba8483d54264f5586f4954319179dd24503263fbed38a5c7",
    "path3/estimate": "681a608ec0de3b355bf45173c8bc149fe5f808f129b65a977713b9b497d7e1e6",
    "majority3/compile": "059823c2f4aea951c2c7fde5670bcbd54bf3d0835816fd8a8dd99e36d8096652",
    "majority3/maps": "a13710789c807914ca29ba09c694b76e1ddcae6af63273b72a0c5eda673b30e7",
    "majority3/check-sym-SN": "9727d372937cb18f7d153820edd464b81dca0b1fd095a84d366d9c4bef01f8b0",
    "majority3/check-sym-flip": "2134ba2dda2154efd6533c43a03a33f32ed427464fa8955607d2aa37a0ccddf8",
    "majority3/orbits-SN": "1e75ecaf055df0cd9ca4f8872958b4c71f12082f4df7effdc75ba1aa67a2ee0d",
    "majority3/orbits-Sdelta": "098f0949b2b9a6aa72f32c179bdc377905e843eb03033037bd7b59c25962fb78",
    "majority3/orbits-full": "7d102e1e1748bb8b3f5f35c8925df39a0144afde18ec31bfe040fd7b2cb4bd87",
    "majority3/check-lump-SN": "90f31f651f2f1a7cb14672dfeb7e8eda2d1495eb3e78e7abbcec4bd236a3afbd",
    "majority3/lump-SN": "950ce5e1cfa1e4fc9f4d2bb8b8f090216d86df25b88aa5411730ce0a8eb05d9e",
    "majority3/check-lump-Sdelta": "90f31f651f2f1a7cb14672dfeb7e8eda2d1495eb3e78e7abbcec4bd236a3afbd",
    "majority3/lump-Sdelta": "0da1ce16323dbbeadbbabe9adee7241470d63acff234b8553d1a250868b6bf64",
    "majority3/check-lump-full": "d41dc81b1ef616afae097eae52032d82997e950c3fd6924efa69ec0174c13472",
    "majority3/lump-full": "a8d20e41e89bac0fc0bfc5532be2f5f9ada2581386f78c2924444adcaf47cd80",
    "majority3/analyze-micro": "b9bca87bfbc795cb21fd13ea7ff50fb62baede1c5fd40eaf1bf182524be4b459",
    "majority3/analyze-micro-kv": "6adfecb88a989a5b8815f07076a8870ba12e463b552ba4dff8effa9263305657",
    "majority3/analyze-macro-Sdelta": "40a5bd1be2da5c0fda4e95fcbfd8d1a5ca49779e06ba81c80bdea86189ee6c17",
    "majority3/analyze-macro-Sdelta-kv": "34e6048d83aeda0dd2318a24795d08d98efdd513620e61f7ba75d0d971564429",
    "majority3/propagate-micro": "5689f1a006aa1838932d42cba168135e82418b8a4ccac4e984d91780d2d5e47c",
    "majority3/propagate-macro": "6f56b08e2fe353eda7cffd4ed0ddf93d94890908b52890a002ebbcdf40f43ea9",
    "majority3/simulate": "790bbed020bf505002b179dde2a0a3bca401d2235dbc61993ebb4d6d3067b20f",
    "majority3/simulate-projected": "f05ca4004ced5481cb0006aa26d8ffd3e83a35afb7d382b9258bc2fb83affc96",
    "majority3/estimate": "3f80986311fdf281af11e77ff245e5988e76c85da7e2daa47d47a70178ae4a5b",
}


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for model in MODELS:
        out.update(run_model(model, root / model))
    return out


def test_case_list_matches_the_recording(actual):
    assert sorted(actual) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_unchanged(actual, case):
    assert actual[case] == GOLDEN[case]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for model in MODELS:
            for case, digest in run_model(model, Path(tmp) / model).items():
                print(f"    \"{case}\": \"{digest}\",")
