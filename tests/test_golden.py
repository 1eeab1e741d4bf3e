"""Golden digests: `synth` and `profile` output must stay byte-identical.

The digests were recorded from the code before the lean read/write path
(one-pass `loads`, cyclic GC off in `cli.main`).  A change that alters
the circuit JSON, a report or the profile CSV on purpose records new
digests here and says why.
"""

import hashlib
import json
import random

import pytest

from qsprep.cli import main

OUTPUTS = ("circuit.json", "synth.json", "profile.csv", "profile.json")

#: flags -> sha256 of each output, for the seeded n=8 target below
GOLDEN = {
    (): {
        "circuit.json": "4f07f4e970934e1d63fd268aceb3a04f327371f44509fba9feb5fae3e2d1938f",
        "synth.json": "241250356cc3acf542e9d74d92ea7732d071c8ea637aefb8c2371c7737341cfa",
        "profile.csv": "420d6b50c8420a876911d737cadd857f97b2c53141a544cc136b1d50354ed00c",
        "profile.json": "867471a3b83bd216d843922af4ba4942aee4f83f49a2663c53a6a526e2c605b5",
    },
    ("--dirty-b1", "--epsilon", "1e-6"): {
        "circuit.json": "9d3fa44efff7605a3a40787b47f2dc61202223504f8eb9348d678dac1f9c67f2",
        "synth.json": "22c133432532b9fec2ce619e7bf64f8c0f6118e9a702d441c32a6175e4f31c97",
        "profile.csv": "7650d02366eb8269bd0662cc5e6096583d34c4fdf7e52bd891b3f837f814b60c",
        "profile.json": "31674d66e63a1fa78af327f22b2b74c9cde3f43908b75462aa576cce82ff1713",
    },
}


def golden_target() -> dict:
    """Dense real n=8 target from a fixed stdlib seed."""
    rng = random.Random(8)
    return {"amplitudes": [rng.uniform(0.05, 1.0) for _ in range(1 << 8)]}


def output_digests(workdir, flags) -> dict:
    """Run synth then profile in ``workdir`` (relative paths keep the reports stable)."""
    (workdir / "target.json").write_text(json.dumps(golden_target()))
    profile_flags = [f for f in flags if f != "--dirty-b1"]
    assert main(["synth", "--in", "target.json", *flags,
                 "--out", "circuit.json", "--report", "synth.json"]) == 0
    assert main(["profile", "--in", "circuit.json", *profile_flags,
                 "--out", "profile.csv", "--report", "profile.json"]) == 0
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("flags", list(GOLDEN), ids=["paper", "dirty_b1_epsilon"])
def test_outputs_match_golden_digests(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    assert output_digests(tmp_path, flags) == GOLDEN[flags]
