"""Byte-golden CLI regression: the sha256 of every file the CLI writes.

The digests pin the exact bytes ``simulate``, ``compare``, ``identify`` and
``sweep`` emit on six configurations, so a change meant to keep behaviour
fails here if it moves a single output byte. Sinusoid disturbances are left
out on purpose: the last ulp of ``math.sin`` belongs to the platform's libm.
"""

import hashlib

import pytest

from qpcontrol.cli import main

CONFIGS = {
    "defaults": [],
    "zero_order_step": [
        "plant.kind=zero_order",
        "plant.disturbance.kind=step",
        "plant.disturbance.amplitude=2.0",
        "plant.disturbance.step_frame=100",
    ],
    "first_order_noise_intra": [
        "plant.disturbance.kind=seeded_noise",
        "plant.disturbance.amplitude=0.5",
        "plant.disturbance.seed=11",
        "kind_pattern=intra_every:12",
    ],
    "fixed": ["mode=fixed"],
    # The QP winds up at the qp_min clamp and stays there.
    "target_60": ["objective.target_psnr=60"],
    # The double-integral policy on every frame; the step gives it a nonzero
    # error, since at the defaults the PSNR sits exactly on the target.
    "intra_step": [
        "kind_pattern=intra",
        "plant.disturbance.kind=step",
        "plant.disturbance.amplitude=2.0",
        "plant.disturbance.step_frame=100",
    ],
}

COMMANDS = {
    "simulate": [],
    "compare": [],
    "identify": [],
    "sweep": ["--grid", "objective.lambda=0,0.8,1", "--grid", "gains.kp=1.0,2.12"],
}

# Recorded from the CLI before the per-run plant stepper replaced
# step_plant in the run loop (target_60 and intra_step: before the per-run
# controller stepper replaced controller_frame); regenerate only for an
# intended output change.
GOLDEN = {
    ('defaults', 'simulate'): {
        'metrics.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
        'trace.csv': 'fae8bc43d1fc9f0320155cd67240e58cd7a5c360f4494c71acf01ac74add260e',
    },
    ('defaults', 'compare'): {
        'comparison.txt': 'e1996d2e6c256f0c2a21a86a3746ce704c14edbb74f68a6633b9bf9c5cd68013',
        'metrics_controlled.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
        'metrics_fixed.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
    },
    ('defaults', 'identify'): {
        'identify_report.txt': '77538b9804959d13291028fb686557395a314fdfd173998aa472d1eb12d11dfd',
        'impulse_response.csv': 'ad86a8b171b35443271a93c51d20ba53e6604c714de1251c5329fe25585a059b',
    },
    ('defaults', 'sweep'): {
        'sweep.csv': '9746ede2b4877bdd4cba2bd53993a5d13fa2ece45d75e0283c24015d08ef6d34',
    },
    ('zero_order_step', 'simulate'): {
        'metrics.json': '7311657186d06cb4b0ac0f0efb08d5c974034c6119c9624b4e6f1d081153e5fa',
        'trace.csv': 'd55f6ba87650e787c174f1fa97991df2d0ce91ab5be32e9b71924d889746e95e',
    },
    ('zero_order_step', 'compare'): {
        'comparison.txt': 'f797f3a0909c1147af160f930211c791a12ca7d7f01ada297f7b1a1ed9ee1bdc',
        'metrics_controlled.json': '7311657186d06cb4b0ac0f0efb08d5c974034c6119c9624b4e6f1d081153e5fa',
        'metrics_fixed.json': '153c8883768fd123219617836cda884f520d9ad61afa86bf9834fca9bd30fc1b',
    },
    ('zero_order_step', 'identify'): {
        'identify_report.txt': 'a2546b9d304a5e916b46151b9d467e60cad44d769163298aa7b2e212ee5de1db',
        'impulse_response.csv': 'aea156b8c4326de57608c74c27e88567c07df6614d78049d161a1caf4070b54b',
    },
    ('zero_order_step', 'sweep'): {
        'sweep.csv': '8474bd7364a401d8d6ff56d9e5a5fe1143ad8affd59d96d35955f8c7e103c935',
    },
    ('first_order_noise_intra', 'simulate'): {
        'metrics.json': '7eca99734d2648f7255832cf95353c0a6bb5ec5df0f2499c8bf3c57315fa8855',
        'trace.csv': 'e105886e009d1a3ccde309198dae3fea8d217de9ecbb006bd724cb476c8ed80c',
    },
    ('first_order_noise_intra', 'compare'): {
        'comparison.txt': '4338b8a64be2e365003a69647c5d5f106dc6b24be396b7e9f256a82ab48d1ebd',
        'metrics_controlled.json': '7eca99734d2648f7255832cf95353c0a6bb5ec5df0f2499c8bf3c57315fa8855',
        'metrics_fixed.json': 'feb744db7056a3f9bb179335ca3c6ff43989f6dcbe4b574b92c1b09bfb2cf820',
    },
    ('first_order_noise_intra', 'identify'): {
        'identify_report.txt': '77538b9804959d13291028fb686557395a314fdfd173998aa472d1eb12d11dfd',
        'impulse_response.csv': 'ad86a8b171b35443271a93c51d20ba53e6604c714de1251c5329fe25585a059b',
    },
    ('first_order_noise_intra', 'sweep'): {
        'sweep.csv': '125da903e72f7ec6484f0e38a01bffde019d222453f0c58e4d48145a44e3f2cd',
    },
    ('fixed', 'simulate'): {
        'metrics.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
        'trace.csv': 'fae8bc43d1fc9f0320155cd67240e58cd7a5c360f4494c71acf01ac74add260e',
    },
    ('fixed', 'compare'): {
        'comparison.txt': 'e1996d2e6c256f0c2a21a86a3746ce704c14edbb74f68a6633b9bf9c5cd68013',
        'metrics_controlled.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
        'metrics_fixed.json': '982d700cc19376ad00c382d46c45504a4a414fc27c6a8ef15918737072fdfca6',
    },
    ('fixed', 'identify'): {
        'identify_report.txt': '77538b9804959d13291028fb686557395a314fdfd173998aa472d1eb12d11dfd',
        'impulse_response.csv': 'ad86a8b171b35443271a93c51d20ba53e6604c714de1251c5329fe25585a059b',
    },
    ('fixed', 'sweep'): {
        'sweep.csv': '9746ede2b4877bdd4cba2bd53993a5d13fa2ece45d75e0283c24015d08ef6d34',
    },
    ('target_60', 'simulate'): {
        'metrics.json': '2e101438d1a0de15e266520803373dddc0c47e7c6478c673e37eba6d0663a49c',
        'trace.csv': 'd7b2bf460e0b406dec5fb1fb34abdec8de0a5b14b9ee4127e39a41303a8c4e1b',
    },
    ('target_60', 'compare'): {
        'comparison.txt': '3d14f7ada414d6443b80eb38ba2d11c3fea73a09a6c9236b209ec88455265938',
        'metrics_controlled.json': '2e101438d1a0de15e266520803373dddc0c47e7c6478c673e37eba6d0663a49c',
        'metrics_fixed.json': '38d72e01d76c0f8d9f8bc8b8e97fb2ceb1d3eb1423f161042113d39270398368',
    },
    ('target_60', 'identify'): {
        'identify_report.txt': '77538b9804959d13291028fb686557395a314fdfd173998aa472d1eb12d11dfd',
        'impulse_response.csv': 'ad86a8b171b35443271a93c51d20ba53e6604c714de1251c5329fe25585a059b',
    },
    ('target_60', 'sweep'): {
        'sweep.csv': '9e9854d24645a9c60812140ef1a30b34b6e6a20ed8c54ad6dac505c51f60df5a',
    },
    ('intra_step', 'simulate'): {
        'metrics.json': '15a238a203b8899d61de2d84cfe1e3de9acce5c3adb01d460c9f234c8fc5d49f',
        'trace.csv': '19b99354989072289ed747ecbebde936f40f7e4ef6ee3e8a303ed098e5dcc6cd',
    },
    ('intra_step', 'compare'): {
        'comparison.txt': '766d719d75e43bee0f6fd7b111bd9a39d41b5f0a26bb05944ea2716c08206a8b',
        'metrics_controlled.json': '15a238a203b8899d61de2d84cfe1e3de9acce5c3adb01d460c9f234c8fc5d49f',
        'metrics_fixed.json': 'b7ec284cbc5f9f1f875015104614a65c2f36f001f1eef3af12c5a697de787595',
    },
    ('intra_step', 'identify'): {
        'identify_report.txt': '77538b9804959d13291028fb686557395a314fdfd173998aa472d1eb12d11dfd',
        'impulse_response.csv': 'ad86a8b171b35443271a93c51d20ba53e6604c714de1251c5329fe25585a059b',
    },
    ('intra_step', 'sweep'): {
        'sweep.csv': '2afe7bd6480e99ee33674cda0778fb4225783f1050b4544eeda477d3913a37d9',
    },
}


def emitted_digests(out, config, command):
    """Run one CLI command and map each file it wrote to its sha256."""
    argv = [command, "--out", str(out), *COMMANDS[command]]
    for override in CONFIGS[config]:
        argv += ["--set", override]
    assert main(argv) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_emitted_bytes_match_the_golden_digests(tmp_path, config, command):
    assert emitted_digests(tmp_path, config, command) == GOLDEN[config, command]
