"""Architecture configurations for the three evaluated platforms."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.memory.layout import (
    DataMemoryLayout,
    IMOrganization,
    InstructionMemoryLayout,
)


@dataclass(frozen=True)
class ArchConfig:
    """Complete structural description of one platform.

    Defaults correspond to the paper's designs: 8 TamaRISC cores, 96 kB of
    instruction memory in 8 banks (4096 24-bit words each) and 64 kB of
    data memory in 16 banks (2048 16-bit words each).

    ``instr_broadcast`` / ``data_broadcast`` exist so the ablations of
    Section IV-C2 (e.g. "with only the broadcasting mechanism implemented
    in the I-Xbar") can be reproduced; both default to the full proposed
    design.
    """

    name: str
    im_org: IMOrganization
    n_cores: int = 8
    im_banks: int = 8
    im_bank_words: int = 4096
    dm_banks: int = 16
    dm_bank_words: int = 2048
    dm_shared_words_per_bank: int = 768
    instr_broadcast: bool = True
    data_broadcast: bool = True
    im_power_gating: bool = False

    def __post_init__(self):
        for size in ("n_cores", "im_banks", "im_bank_words", "dm_banks",
                     "dm_bank_words"):
            if getattr(self, size) < 1:
                raise ConfigurationError(
                    f"{size} must be at least 1, got {getattr(self, size)}")
        if self.im_org == IMOrganization.PRIVATE:
            if self.im_banks != self.n_cores:
                raise ConfigurationError(
                    "private IM needs one bank per core")
            if self.im_power_gating:
                raise ConfigurationError(
                    "mc-ref cannot gate IM banks: every core needs its "
                    "own program copy")
        if self.im_power_gating and self.im_org != IMOrganization.BANKED:
            raise ConfigurationError(
                "power gating requires the banked IM organisation "
                "(interleaving touches every bank)")

    # -- derived layouts ---------------------------------------------------------

    def im_layout(self) -> InstructionMemoryLayout:
        return InstructionMemoryLayout(
            organization=self.im_org,
            banks=self.im_banks,
            bank_words=self.im_bank_words,
        )

    def dm_layout(self) -> DataMemoryLayout:
        return DataMemoryLayout(
            banks=self.dm_banks,
            bank_words=self.dm_bank_words,
            n_cores=self.n_cores,
            shared_words_per_bank=self.dm_shared_words_per_bank,
        )

    @property
    def has_ixbar(self) -> bool:
        """mc-ref wires cores directly to their banks; ulpmc adds the I-Xbar."""
        return self.im_org != IMOrganization.PRIVATE

    @property
    def im_bytes(self) -> int:
        return self.im_banks * self.im_bank_words * 3

    @property
    def dm_bytes(self) -> int:
        return self.dm_banks * self.dm_bank_words * 2


#: The reference architecture of Dogan et al., PATMOS 2011.
MC_REF = ArchConfig(name="mc-ref", im_org=IMOrganization.PRIVATE,
                    instr_broadcast=False)

#: Proposed architecture, interleaved instruction mapping.
ULPMC_INT = ArchConfig(name="ulpmc-int", im_org=IMOrganization.INTERLEAVED)

#: Proposed architecture, banked instruction mapping with power gating.
ULPMC_BANK = ArchConfig(name="ulpmc-bank", im_org=IMOrganization.BANKED,
                        im_power_gating=True)

_BY_NAME = {
    MC_REF.name: MC_REF,
    ULPMC_INT.name: ULPMC_INT,
    ULPMC_BANK.name: ULPMC_BANK,
}

#: Names of the three evaluated architectures, in paper order.
ARCH_NAMES = tuple(_BY_NAME)


def build_config(name: str, **overrides) -> ArchConfig:
    """Look up one of the paper's architectures, optionally overridden.

    >>> build_config("ulpmc-int", data_broadcast=False).data_broadcast
    False
    """
    if name not in _BY_NAME:
        raise ConfigurationError(
            f"unknown architecture {name!r}; expected one of {ARCH_NAMES}")
    config = _BY_NAME[name]
    return replace(config, **overrides) if overrides else config
