"""Byte identity of CLI documents.

Each command below is run in-process and the SHA-256 of its stdout is
compared with a pinned digest, so any change to what a document holds, the
order of its keys, or how it is rendered shows up here. The argv list covers
every subcommand, both output formats, a pi^2 entry, ``measure --validate``,
one central-point step and an orbit, all three region types (the two staged
ones also on sampled profiles and on pi^2 profiles, one of whose share regions
is a point, and a rate region that is a segment), a longer general-branch
sample, a three-component mixture, and the bounds that do not apply (two edges
per vertex; the high-regime floor below the plate cap; the plate-profile
region at four edges per vertex, which has no crossover line).

A deliberate change of output needs new digests. Print them with

    PYTHONPATH=src python tests/test_cli_documents.py

and paste the printed mapping over ``DIGESTS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import pytest

from tesstopo.cli import PRECISION_ENV, main

COMMANDS = {
    "derive-rational": ["derive", "ve=6", "ep=4", "pv=4"],
    "derive-pi2": ["derive", "--catalog", "ex08_divided_delaunay"],
    "derive-csv": ["derive", "--catalog", "ex04_stit", "--format", "csv"],
    "check-feasible": ["check", "--catalog", "ex15_split_prism"],
    "check-infeasible-csv": ["check", "ve=4", "ep=3", "pv=100", "--format", "csv"],
    "region-pv-ep": ["region", "--type", "pv-ep", "--ve", "24/5", "--resolution", "9"],
    "region-pv-ep-csv": ["region", "--type", "pv-ep", "--ve", "8", "--resolution", "5",
                         "--format", "csv"],
    "region-psi-tau": ["region", "--type", "psi-tau", "ve=4", "ep=7/2", "pv=28/5"],
    "region-kappa-xi-csv": ["region", "--type", "kappa-xi", "--catalog", "ex04_stit",
                            "--format", "csv"],
    "transform-stratum": ["transform", "--op", "stratum",
                          "ve=3", "phi=1", "ends=2", "m2=9"],
    "transform-column-csv": ["transform", "--op", "column", "ve=10/3", "m2=34/3",
                             "--format", "csv"],
    "transform-central-point": ["transform", "--op", "central-point",
                                "--catalog", "ex01_voronoi", "--steps", "2"],
    "transform-central-point-once": ["transform", "--op", "central-point",
                                     "--catalog", "ex01_voronoi"],
    "transform-mixture-two": ["transform", "--op", "mixture",
                              "--component", "ex01_voronoi=1/3",
                              "--component", "ex03_poisson_planes=2/3"],
    "transform-mixture-three": ["transform", "--op", "mixture",
                                "--component", "ex04_stit=1/6",
                                "--component", "ex05_cubic=1/3",
                                "--component", "ex08_divided_delaunay=1/2"],
    "catalog-list": ["catalog", "list"],
    "catalog-show": ["catalog", "show", "ex15_split_prism"],
    "catalog-show-csv": ["catalog", "show", "ex18c_split_rhombic_dodecahedra_finer",
                         "--format", "csv"],
    "catalog-verify": ["catalog", "verify"],
    "measure-validate": ["measure", "--generator", "split_prism", "--validate"],
    "measure-csv": ["measure", "--generator", "parallel_pyramids", "--format", "csv"],
    "stats": ["stats", "--generator", "prism_columns", "--arg", "base=triangle"],
    "sample": ["sample", "--count", "3", "--seed", "7"],
    "sample-longer": ["sample", "--count", "25", "--seed", "11"],
    "region-psi-tau-sampled": ["region", "--type", "psi-tau", "ve=1195/256",
                               "ep=4099863/1223680", "pv=623205597/179044352"],
    # a rate region that is a segment: the plate-corner ceiling is tau <= 0
    "region-psi-tau-segment": ["region", "--type", "psi-tau", "ve=9/2", "ep=3", "pv=3"],
    # a sampled profile whose share polygon has six corners
    "region-kappa-xi-sampled": ["region", "--type", "kappa-xi", "ve=505/64",
                                "ep=2083953/517120", "pv=721657179/197656576",
                                "psi=3169861581833119/1008949864169472",
                                "tau=757238110365775069/516582330454769664"],
    "sample-face-to-face-csv": ["sample", "--count", "2", "--seed", "4",
                                "--face-to-face", "--format", "csv"],
    # rows that do not apply: the plate-corner ceiling at ve = 2, the
    # high-regime floor below the plate cap, and no crossover line at ve = 4
    "check-ve-two": ["check", "ve=2", "ep=3", "pv=3"],
    "check-below-cap": ["check", "ve=6", "ep=7/2", "pv=4", "xi=1/4", "kappa=0",
                        "psi=1", "tau=1/2"],
    "region-pv-ep-degenerate": ["region", "--type", "pv-ep", "--ve", "4"],
    # staged regions on pi^2 profiles; ex08's share region is one point
    "region-psi-tau-pi2": ["region", "--type", "psi-tau", "--catalog",
                           "ex08_divided_delaunay"],
    "region-kappa-xi-pi2": ["region", "--type", "kappa-xi", "--catalog",
                            "ex13a_weighted_mixture"],
    "region-kappa-xi-pi2-point": ["region", "--type", "kappa-xi", "--catalog",
                                  "ex08_divided_delaunay"],
}

DIGESTS = {
    "catalog-list": "e093dfead2bf60334ce50457643d3be029c611d5031f310128019e51dacff724",
    "catalog-show": "e2235951b42ab7f48178a433a3d282ce0a80afd20a1656f96fc0ddd98c199a89",
    "catalog-show-csv": "98186a0d8a4e0cba2bf97254f1d8f142f912b9a80ccc1aa7708c64ab0867f81a",
    "catalog-verify": "1c604dba1b6adec718541028fcc71f141136048f64585a98d842673e90e72522",
    "check-feasible": "f6fe607435d061c4545498facfa6916e30f6535918b11da3c5286d5ddc247b50",
    "check-below-cap": "bd4b253a281d3033a52fac459cdaa2555a2b86194b47352922f79b2567fe629c",
    "check-infeasible-csv": "d3179611837a8190afd893e6512aca650aac6651981312ca58d0e598698b631a",
    "check-ve-two": "7d8cfb825ae8ca3fc4cef828b56099822eefc8b68bcf2d2588f5419a2242c051",
    "derive-csv": "d736d6bba5a35008448b8a45ad0c445cdcb7fe6254f8899cebb6d048abb86647",
    "derive-pi2": "39e0f55f0b81189f34dd17820d78b5f38d4f20bba96e444c3b51fe29c3d21246",
    "derive-rational": "41e52f24756fbe5b7510cea307176f6661b5e1f1a7620932ff3846e4a1bbed6b",
    "measure-csv": "108eec7991c8bac5628905bdc4c4d45a0c63b44fcb73947350db39da5c51cf81",
    "measure-validate": "9955c289678c237ddd4addccca5efeaefe57cd9393c9e8236eda714f1639afeb",
    "region-kappa-xi-pi2": "80df6d3298f4b8e9aa6f79911710f0c6fc1d7362cd6e2ca46033789196d426fd",
    "region-kappa-xi-pi2-point": "4d6b7f8cb12a8354959a18c565d7ecd8eb0892c2e63117fa2501d96b7accb1c8",
    "region-kappa-xi-csv": "5dfc0dfd65c4994d47af3cd6285ae23bb842dea71c7e6056b3a413771f01396e",
    "region-kappa-xi-sampled": "7081eff71e07c3d0d42399a07a9e5575d35f3fa766a672c368b8d18bb41f81fe",
    "region-psi-tau": "9c61ca14a0dae139a8460e77169fac5b78e0e85513a4231cfc8076cab8cce91a",
    "region-psi-tau-pi2": "346c5e0a35ed5bd9f8e21a796b26a2b2c8660b06924f30b1f421d4ef0c9425e5",
    "region-psi-tau-sampled": "3c5d425d3e393befaae5a0794ac8253b82133de61d38a2d09a92071517c86a0b",
    "region-psi-tau-segment": "e16fa0c3e72865498b3d5b98266ab65fc4200fdda048c6e941b2d5bcd249366a",
    "region-pv-ep": "f415c477b341ae0b47219a9e443b06cf8e5c160d469c2dc40fe77cd810749949",
    "region-pv-ep-degenerate": "f8ab8a667fea69926783023658c4b9c7c23cd8fd3606eb1e70893bd68ade418c",
    "region-pv-ep-csv": "e02fc1a505fabc14113a72c58023bb6509f039f62fa274f69dd1fc4c3dc11ce0",
    "sample": "074157c46e05de43777348acbef4280c1e989e609750406bdb0043c9f39cd490",
    "sample-face-to-face-csv": "ad0c2bb70580ba912614a64d3055a0c61cf26d776713ee67e8f52c539a92ff50",
    "sample-longer": "de13649c4fff397d6e089176f0104f7032d2f9b75b431ffb24f892050e6ae716",
    "stats": "73d51c2d823a2bbb578e9b38d3350f12b4e66b043451be814ef59acbc36e3292",
    "transform-central-point": "70480ea903a9f41a54bbe222c928908a614167a21298f9f111a82f16b55f626d",
    "transform-central-point-once": "6cba62af9e3fc28d186700a5c45cd2f07ea23aaa248b38678ddb6b8feff57425",
    "transform-column-csv": "2b22800575d8aedd62a330b4b64288c6a06a3be8fb8bea6b013b26db779a8e92",
    "transform-mixture-three": "daebff7c71deef7670902abdacf562896547207feec3ae46923bb9d025e6dbd5",
    "transform-mixture-two": "d8d588bf62727a71296b3d15b4580f31bd6244fa2588301bd23acf390c7bd5f7",
    "transform-stratum": "16ae6ec187d7a979891e61b9f4fd6ec1baf7fbe6ea4f254b407cd1cbe0a569b0",
}


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code in (0, 1) and out.getvalue(), f"{argv} exited {code}"
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_every_command_is_an_argv_with_a_digest():
    assert sorted(COMMANDS) == sorted(DIGESTS)
    assert all(isinstance(argv, list) for argv in COMMANDS.values())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_document_bytes_are_pinned(name, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    assert stdout_digest(COMMANDS[name]) == DIGESTS[name]


if __name__ == "__main__":
    os.environ.pop(PRECISION_ENV, None)
    print("DIGESTS = {")
    for key in sorted(COMMANDS):
        print(f'    "{key}": "{stdout_digest(COMMANDS[key])}",')
    print("}")
