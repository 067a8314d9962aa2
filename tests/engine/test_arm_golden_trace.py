"""Bit-exactness guard for the paper's robot-arm round.

The other golden traces (``test_golden_trace.py``) run only
:class:`~repro.models.LinearGaussianModel`. These hex traces pin
:class:`~repro.models.RobotArmModel` end to end, controls included: the
truth simulation, the transition's noise, control and velocity updates, the
likelihood, and the exchange's top-t selection. They were dumped before the
transition's column-wise updates and the sliced top-t replaced the broadcast
forms, so they show that rewrite changes no bit, on the reference stages
under two dtype policies and on the compiled (fused) round.
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
        "000000c0a5e9ce3f000000a07c6fbabf000000403ccfc83f000000a04002d33f"
        "000000c0e4eddc3f00000000e095e73f00000020fbb1b7bf0000008008fdd6bf"
        "000000c03ab2d13f000000c061f2ce3f000000608105973f000000c05ab0a5bf"
        "000000a0cae6c73f00000080882ec9bf000000806f60f23f000000c0856ea5bf"
        "000000201ef2cbbf00000000829c653f000000205993cd3f000000e0604a7ebf"
        "000000a05fa1c4bf00000040f4f3e33f00000080e2a38a3f000000003331e23f"
        "000000609dd2be3f0000008091a1a7bf000000408130b93f000000609556d23f"
        "000000002311b93f000000e010e5c7bf000000203a73e13f000000e08a0dc63f"
        "000000608799e43f00000060a92ed13f000000804b5ea8bf00000040c623c43f"
        "00000020b40ed53f000000c0e929b53f00000020799e723f000000e00f8ae03f"
        "000000c09123c53f000000e08f72e93f000000405f9fc93f000000c0c73adebf"
        "00000040e566dbbf000000c0f32ed23f00000040d7dfa93f000000802dd4ba3f"
        "000000a0b31be33f00000020f477c73f00000000f8b2e93f00000080229cb83f"
        "000000200a68e0bf00000040dd31d8bf00000060f808e13f000000200ca1a0bf"
        "000000e0e916c13f000000608058e43f000000e01970c23f000000c09508e63f"
        "00000080cef1d43f00000060a4fdd5bf000000403a36cfbf000000604c55d63f"
        "00000000988bbbbf0000000058d3da3f00000020d768e03f00000000faa7b03f"
        "000000202c73e73f00000060caa8ba3f000000803c87ddbf000000e034f1d4bf"
        "000000403c23d33f0000002023d1b5bf000000e0b2a3d23f000000004285dc3f"
        "0000000096fbaf3f000000e0483be73f000000c0779dcf3f000000208fc6b6bf"
        "00000000a0eebbbf000000809b67e23f000000c0516fd3bf000000200766d43f"
        "0000000028d6da3f000000c0db2fc83f000000607ea3e93f0000006098d5d63f"
        "000000805ba6d63f000000407eefa33f000000e08651e53f00000080e618d3bf"
        "00000020d52ad83f000000809cecd93f0000004091cec63f000000a0cae8ea3f"
        "000000c025f1cb3f000000a01cfcd63f000000601f14a13f00000000cf8edb3f"
        "000000c0889bc4bf0000004023bed13f00000000c653e03f000000207fc7d43f"
        "00000020ead9ea3f00000020759fd03f000000c00beea93f000000800291c3bf"
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
        "000000c0a5e9ce3f000000a07c6fbabf000000403ccfc83f000000a04002d33f"
        "000000c0e4eddc3f00000000e095e73f00000020fbb1b7bf0000008008fdd6bf"
        "000000c03ab2d13f000000c061f2ce3f000000608105973f000000c05ab0a5bf"
        "000000a0cae6c73f00000080882ec9bf000000806f60f23f000000c0856ea5bf"
        "000000201ef2cbbf00000000829c653f000000205993cd3f000000e0604a7ebf"
        "000000a05fa1c4bf00000040f4f3e33f00000080e2a38a3f000000003331e23f"
        "000000609dd2be3f0000008091a1a7bf000000408130b93f000000609556d23f"
        "000000002311b93f000000e010e5c7bf000000203a73e13f000000e08a0dc63f"
        "000000608799e43f00000060a92ed13f000000804b5ea8bf00000040c623c43f"
        "00000020b40ed53f000000c0e929b53f00000020799e723f000000e00f8ae03f"
        "000000c09123c53f000000e08f72e93f000000405f9fc93f000000c0c73adebf"
        "00000040e566dbbf000000c0f32ed23f00000040d7dfa93f000000802dd4ba3f"
        "000000a0b31be33f00000020f477c73f00000000f8b2e93f00000080229cb83f"
        "000000200a68e0bf00000040dd31d8bf00000060f808e13f000000200ca1a0bf"
        "000000e0e916c13f000000608058e43f000000e01970c23f000000c09508e63f"
        "00000080cef1d43f00000060a4fdd5bf000000403a36cfbf000000604c55d63f"
        "00000000988bbbbf0000000058d3da3f00000020d768e03f00000000faa7b03f"
        "000000202c73e73f00000060caa8ba3f000000803c87ddbf000000e034f1d4bf"
        "000000403c23d33f0000002023d1b5bf000000e0b2a3d23f000000004285dc3f"
        "0000000096fbaf3f000000e0483be73f000000c0779dcf3f000000208fc6b6bf"
        "00000000a0eebbbf000000809b67e23f000000c0516fd3bf000000200766d43f"
        "0000000028d6da3f000000c0db2fc83f000000607ea3e93f0000006098d5d63f"
        "000000805ba6d63f000000407eefa33f000000e08651e53f00000080e618d3bf"
        "00000020d52ad83f000000809cecd93f0000004091cec63f000000a0cae8ea3f"
        "000000c025f1cb3f000000a01cfcd63f000000601f14a13f00000000cf8edb3f"
        "000000c0889bc4bf0000004023bed13f00000000c653e03f000000207fc7d43f"
        "00000020ead9ea3f00000020759fd03f000000c00beea93f000000800291c3bf"
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
