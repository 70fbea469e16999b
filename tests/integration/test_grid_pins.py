"""Every grid scenario's points, pinned.

For each :class:`~repro.experiments.registry.GridScenario`, the SHA-256 of
its ordered ``spec_hash`` list (one hash a line) under ``quick_config()``.
A change that adds, drops, reorders or alters a grid point of any scenario
fails here under that scenario's name; a grid change that is meant must say
so by re-pinning it.
"""

import hashlib

import pytest

from repro.experiments.config import quick_config
from repro.experiments.registry import SCENARIOS, GridScenario
from repro.experiments.runner import spec_hash

PINNED = {
    "fig11": "ba65e9c7934f668cddb8583ae7eeaa0e40524a13db908dc94917926e9a128e6b",
    "fig11-k8": "831a6f371cefd2ae74e5b983fa2d14979108727fa5bf0db4ba20a2e88f97dc6b",
    "fig11-k16": "7360ae2a33390ce703029299924af2c3392130c6a6027096baf03a9cb799f9f3",
    "fig11-k32": "7c1488cc5025c99bdfc4e9da8a3cd9c7e7d047743505d947c94792e713f6e505",
    "fig12": "6373e5a5bfae4b1efde8c899120731b39828a9f63819dbafa0ddaa1077b03ecc",
    "fig13": "dc30ef59aa6aecac1ce85bc89a69dfeab010239e559f43f6ecf84b5d9f7eae6c",
    "fig14": "6107627b3cdf081b5201db376c618e2318da57d2c8ee53d52661866d86edbfbf",
    "fig15": "66cb02a5d686f9d30d0dcad853adf48e06d2adf8ab2b218d5b9fd09cbcdbc6d3",
    "fig16": "4b2d1ef03be088c076f404ff9d4f54ca34e1cbd495adf307358c4b99f52ae8ae",
    "ablations": "df9206ae4411126160b809c43cea17a7aa9291dc73dab9cdb76619a91e66a0a9",
    "incast": "fd99f286a2615ebd13d90ebec1711a2ecd3e9fbcd737e3a16bf07282885537f6",
    "multi-failure": "3c3d8182ece7848690e90aa36538e87b0cf78c8fc3da5b3d6b3e55fedaf9847c",
    "recovery-sweep": "d1e0abf90a7c681676502900c14f35bbc1732369f5939d56adc45ff9f32e796a",
    "recovery-curve": "9ee27f7bfb4ac179add05788ff0ddfb5d9a3a5755500274ebda5ce40bb52370b",
    "transport-sensitivity": "08988305f36119462374ba4038894ccaa12aff3ee613f512a6557ccbe6b863f9",
    "flow-size-sensitivity": "94bcc6074c97e8d1c232116695a7745c0d84fec87b904a89f7716ee9837f833a",
    "fluid-vs-packet": "adadcbadacad4936ba1a689c56250b6a15b5718dd330f2b6c5c7449260666f24",
    "fluid-million": "ed37e7b68f8259b53f87db96af7cc4eee654cb4d68c509b955aa61c62457b6a5",
}

GRIDS = {name: scenario for name, scenario in SCENARIOS.items()
         if isinstance(scenario, GridScenario)}


@pytest.mark.parametrize("name", sorted(set(GRIDS) | set(PINNED)))
def test_grid_points_are_pinned(name):
    hashes = "\n".join(spec_hash(spec) for spec in GRIDS[name].build_specs(quick_config()))
    assert hashlib.sha256(hashes.encode()).hexdigest() == PINNED[name]
