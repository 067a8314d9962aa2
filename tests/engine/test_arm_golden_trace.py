"""Bit-exactness guard for the paper's robot-arm round.

The other golden traces (``test_golden_trace.py``) run only
:class:`~repro.models.LinearGaussianModel`. These hex traces pin
:class:`~repro.models.RobotArmModel` end to end, controls included: the
truth simulation, the transition's noise, control and velocity updates, the
likelihood, and the exchange's top-t selection, on the reference stages
under two dtype policies and on the compiled (fused) round. The
``reference-float64`` trace was dumped before the transition's column-wise
updates and the sliced top-t replaced the broadcast forms, and it has not
moved since. The two float32-state traces (``reference-mixed``,
``compiled``) were re-pinned once when the transition began drawing its
noise and adding its controls at the state dtype; the float32 likelihood
and the clamped RWS CDF that came with that change move neither.
"""

import numpy as np
import pytest

from repro.bench.harness import arm_truth
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import RobotArmModel

N_STEPS = 12

BASE = dict(n_particles=16, n_filters=16, topology="ring", n_exchange=2, seed=3)

CASES = {
    "reference-mixed": dict(BASE, dtype_policy="mixed"),
    "reference-float64": dict(BASE, dtype_policy="float64"),
    "compiled": dict(BASE, execution="compiled"),
}

# float64 estimate sequences, 12 steps x 9 state coordinates each, as raw
# little-endian bytes.
GOLDEN = {
    "compiled": (
        "000000a0dc3fa83f000000c025aca2bf000000409425c83f00000080b038cc3f"
        "000000c06a98c43f0000000069deed3f000000e0fca7d1bf000000c0ab54cfbf"
        "00000080668bd13f000000407452d33f00000080ad0e9c3f000000401750babf"
        "000000608332d83f00000060662cb13f000000808538c23f0000002068eac6bf"
        "000000e0ace5b4bf000000201df5c13f000000e0bfe3d23f000000e08659bf3f"
        "000000603861b1bf000000c089ace33f000000c018d59cbf00000000bc3fde3f"
        "00000040ba06b63f00000020ca0dc23f00000000d3db77bf000000e0854ac23f"
        "000000200652b53f00000060dd49abbf00000000625ce03f00000040efefc23f"
        "000000202e0cef3f00000040ec1c843f00000040eb3fa5bf0000000005e0823f"
        "00000040e8aed83f00000080be56813f000000405952b5bf000000007a6cdf3f"
        "000000e0b9d2c83f00000060a926ea3f00000080a719d13f00000080b10ad53f"
        "000000e0300db3bf000000009635d63f000000e07f9ca9bf00000000b86a8dbf"
        "000000a0b7abe33f000000e006d2c93f00000020b6c8f13f000000a0f479c63f"
        "00000080a7d3a93f00000040dce2cfbf000000609fedd73f000000008b3a8d3f"
        "00000040a236c03f000000c08510e73f000000e08247c43f000000e0b083ee3f"
        "00000080f7b4ca3f000000809661adbf000000000dfad7bf000000201154d73f"
        "000000a0ffaab9bf000000e09eb3c83f00000060e0ebda3f000000c04208bd3f"
        "000000401432f13f000000c0c493c03f00000080de0fe43f000000e0cc2fd1bf"
        "00000020eef2cf3f00000000b2bab1bf000000809369c83f000000608611e13f"
        "000000c07b1bb03f000000c0b93af13f00000060f65dc73f000000e04f4fe63f"
        "0000006017c7c1bf000000e09f75dd3f000000001a4bcabf000000009e25c43f"
        "000000e0551fe13f000000a08fa3b43f000000601d02ef3f0000004041ebd43f"
        "00000040edf6b63f00000060ef62ddbf000000a0b13de23f000000000970d1bf"
        "000000e0d0adcd3f00000000c00eda3f000000e0d7d5d23f000000004315f03f"
        "000000a0087fd83f000000c0b3c0c53f000000e0fa50d7bf000000c00417db3f"
        "000000604d1cccbf0000006014efd73f000000205b0ae13f000000e05b88d23f"
        "000000801242ef3f0000002021b5df3f000000e0e688c93f00000040bd70d1bf"
    ),
    "reference-float64": (
        "56156cc4a5e9ce3ff1d513947c6fbabfec432b523ccfc83ff3bdc1aa4002d33f"
        "9b4543bfe4eddc3fd4a4bcf3df95e73fdbb57933fbb1b7bf4f118f7f08fdd6bf"
        "fab88bcd3ab2d13fce145aaf61f2ce3f8a34c3968105973f3ca2fcc55ab0a5bf"
        "c0f5428ecae6c73f29c9eb82882ec9bff31879876f60f23f649c6c9c856ea5bf"
        "d69cdc261ef2cbbf68979fc07f9c653fcf1ca32e5993cd3f3eba0502614a7ebf"
        "8677d7a35fa1c4bf2a9ad148f4f3e33fbc28f469e3a38a3fa8fb89073331e23f"
        "28fead6a9dd2be3f3194ab6c91a1a7bf88bd07048130b93f50a999669556d23f"
        "a13d9ee52211b93f4ae2ecda10e5c7bfc7ac1b2a3a73e13f19abefe98a0dc63f"
        "17f32e618799e43fbf8b4e66a92ed13f23bf1a604b5ea8bfc9f76c16c623c43f"
        "853fc915b40ed53fd480a8a4e929b53f40e8af14769e723f4ed5eed90f8ae03f"
        "398f57b69123c53f92ec92de8f72e93fabbbf3455f9fc93f987e3dc5c73adebf"
        "cc2e7550e566dbbfeca526a9f32ed23fda98b820d7dfa93fad42b4422dd4ba3f"
        "4d4f9b94b31be33fddd7a924f477c73ff8601cedf7b2e93f4a9deb61229cb83f"
        "1c3a1e310a68e0bf2fb93a49dd31d8bf9cf05b3df808e13f82f57c9b0ca1a0bf"
        "12e4b6bde916c13fd298925b8058e43fd05493d61970c23fb1a21a9b9508e63f"
        "393ed87ecef1d43ffc6fc963a4fdd5bf36f6627e3a36cfbf4065e9484c55d63f"
        "ffc2b306988bbbbf247f8de757d3da3fd6178d08d768e03fbc691ffef9a7b03f"
        "759636df2b73e73f0c362687caa8ba3fdc3939ad3c87ddbf0f9e6af634f1d4bf"
        "04e0562e3c23d33f201fd62923d1b5bfcb6764dab2a3d23ff80ce5d74185dc3f"
        "8807cea395fbaf3f015e69ee483be73fae8797f3779dcf3f4dcc1aff8ec6b6bf"
        "49709d1fa0eebbbfcf2261579b67e23faa5977a1516fd3bf6decb7270766d43f"
        "0f6f492d28d6da3f37880b82db2fc83fe82b26357ea3e93f4175603298d5d63f"
        "aa31f6755ba6d63fe276538d7cefa33f4e4e23a68651e53fd0b36451e618d3bf"
        "6508a83bd52ad83fce2bdeae9cecd93fbd64770591cec63f78203d62cae8ea3f"
        "5b5df64225f1cb3fd89252a01cfcd63fb6bd95a31d14a13fb95c1cf1ce8edb3f"
        "6f8b9f83889bc4bf6142493823bed13f86d9bcf9c553e03f765252f07ec7d43f"
        "1d8730f3e9d9ea3f9da4eb03759fd03f04dfb8010ceea93f9e6825b90291c3bf"
    ),
    "reference-mixed": (
        "000000a0dc3fa83f000000c025aca2bf000000409425c83f00000080b038cc3f"
        "000000c06a98c43f0000000069deed3f000000e0fca7d1bf000000c0ab54cfbf"
        "00000080668bd13f000000407452d33f00000080ad0e9c3f000000401750babf"
        "000000608332d83f00000060662cb13f000000808538c23f0000002068eac6bf"
        "000000e0ace5b4bf000000201df5c13f000000e0bfe3d23f000000e08659bf3f"
        "000000603861b1bf000000c089ace33f000000c018d59cbf00000000bc3fde3f"
        "00000040ba06b63f00000020ca0dc23f00000000d3db77bf000000e0854ac23f"
        "000000200652b53f00000060dd49abbf00000000625ce03f00000040efefc23f"
        "000000202e0cef3f00000040ec1c843f00000040eb3fa5bf0000000005e0823f"
        "00000040e8aed83f00000080be56813f000000405952b5bf000000007a6cdf3f"
        "000000e0b9d2c83f00000060a926ea3f00000080a719d13f00000080b10ad53f"
        "000000e0300db3bf000000009635d63f000000e07f9ca9bf00000000b86a8dbf"
        "000000a0b7abe33f000000e006d2c93f00000020b6c8f13f000000a0f479c63f"
        "00000080a7d3a93f00000040dce2cfbf000000609fedd73f000000008b3a8d3f"
        "00000040a236c03f000000c08510e73f000000e08247c43f000000e0b083ee3f"
        "00000080f7b4ca3f000000809661adbf000000000dfad7bf000000201154d73f"
        "000000a0ffaab9bf000000e09eb3c83f00000060e0ebda3f000000c04208bd3f"
        "000000401432f13f000000c0c493c03f00000080de0fe43f000000e0cc2fd1bf"
        "00000020eef2cf3f00000000b2bab1bf000000809369c83f000000608611e13f"
        "000000c07b1bb03f000000c0b93af13f00000060f65dc73f000000e04f4fe63f"
        "0000006017c7c1bf000000e09f75dd3f000000001a4bcabf000000009e25c43f"
        "000000e0551fe13f000000a08fa3b43f000000601d02ef3f0000004041ebd43f"
        "00000040edf6b63f00000060ef62ddbf000000a0b13de23f000000000970d1bf"
        "000000e0d0adcd3f00000000c00eda3f000000e0d7d5d23f000000004315f03f"
        "000000a0087fd83f000000c0b3c0c53f000000e0fa50d7bf000000c00417db3f"
        "000000604d1cccbf0000006014efd73f000000205b0ae13f000000e05b88d23f"
        "000000801242ef3f0000002021b5df3f000000e0e688c93f00000040bd70d1bf"
    ),
}


def _trace(case_kwargs) -> str:
    model = RobotArmModel()
    truth = arm_truth(N_STEPS, seed=21, model=model)
    pf = DistributedParticleFilter(model, DistributedFilterConfig(**case_kwargs))
    pf.initialize()
    ests = np.stack([pf.step(truth.measurements[k], truth.controls[k])
                     for k in range(N_STEPS)])
    if case_kwargs.get("execution") == "compiled":
        assert pf.pipeline.stage_names == ("fused",)
    return ests.astype(np.float64).tobytes().hex()


@pytest.mark.parametrize("case", sorted(CASES))
def test_arm_round_matches_golden_trace(case):
    assert _trace(CASES[case]) == GOLDEN[case]
