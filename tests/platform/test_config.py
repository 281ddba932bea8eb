"""Platform configuration validation."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.layout import IMOrganization
from repro.platform import build_platform
from repro.platform.config import (
    ARCH_NAMES,
    ArchConfig,
    MC_REF,
    ULPMC_BANK,
    ULPMC_INT,
    build_config,
)


class TestFactory:
    def test_paper_architectures(self):
        assert ARCH_NAMES == ("mc-ref", "ulpmc-int", "ulpmc-bank")
        assert build_config("mc-ref") is MC_REF
        assert build_config("ulpmc-int") is ULPMC_INT
        assert build_config("ulpmc-bank") is ULPMC_BANK

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            build_config("ulpmc-foo")

    def test_overrides(self):
        config = build_config("ulpmc-int", data_broadcast=False)
        assert not config.data_broadcast
        assert ULPMC_INT.data_broadcast  # original untouched


class TestPaperGeometry:
    def test_memory_sizes(self):
        assert MC_REF.im_bytes == 96 * 1024
        assert MC_REF.dm_bytes == 64 * 1024

    def test_ixbar_presence(self):
        assert not MC_REF.has_ixbar
        assert ULPMC_INT.has_ixbar and ULPMC_BANK.has_ixbar

    def test_gating_only_on_bank_org(self):
        assert not MC_REF.im_power_gating
        assert not ULPMC_INT.im_power_gating
        assert ULPMC_BANK.im_power_gating


class TestValidation:
    def test_private_im_needs_bank_per_core(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(name="bad", im_org=IMOrganization.PRIVATE,
                       im_banks=4)

    def test_mcref_cannot_gate(self):
        with pytest.raises(ConfigurationError, match="program copy"):
            ArchConfig(name="bad", im_org=IMOrganization.PRIVATE,
                       im_power_gating=True)

    def test_interleaved_cannot_gate(self):
        with pytest.raises(ConfigurationError, match="interleav"):
            ArchConfig(name="bad", im_org=IMOrganization.INTERLEAVED,
                       im_power_gating=True)

    @pytest.mark.parametrize("override", [{"n_cores": 0}, {"n_cores": -1},
                                          {"im_bank_words": 0}])
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_sizes_must_be_positive(self, arch, override):
        """Through the library API too, not only the CLI's DSE axes."""
        with pytest.raises(ConfigurationError, match="at least 1"):
            build_platform(arch, **override)

    def test_layouts_derived(self):
        assert MC_REF.im_layout().organization == IMOrganization.PRIVATE
        assert ULPMC_BANK.im_layout().organization == IMOrganization.BANKED
        assert MC_REF.dm_layout().banks == 16
