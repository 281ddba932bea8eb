"""Analytical ranking model: calibrated power x first-order cycle scaling.

The explorer must rank hundreds of configurations without simulating
them.  It anchors on the *measured* full-geometry reference runs (one
per architecture and LUT mapping, the same runs that calibrate the
power model) and perturbs them along each axis with first-order
scaling laws:

* **Cores** — per-core work is a property of the program, so event
  counters scale with ``n_cores / 8``; broadcast savings scale with the
  number of *other* cores a merge can absorb (``(c-1)/7``).
* **Bank conflicts** — stalls grow with the number of contending peers
  (``(c-1)/7``) and shrink with the number of effective banks the
  accesses spread over (inverse proportionality, the classic balls-in-
  bins first-order term).  Predicted cycles are the anchor cycles plus
  the per-core stall delta.
* **Bank geometry** — per-access energies and per-bank leakage scale
  with the modelled bank area (periphery + cells); crossbar delivery
  energies scale with the Mesh-of-Trees node count.
* **Node and voltage** — the :mod:`repro.power.technology` tables.

By construction the prediction is *exact* at the anchors: an 8-core
paper-geometry point reproduces its reference simulation bit-for-bit,
which is what the differential suite pins.  Everything else is an
estimate whose fidelity ``benchmarks/bench_dse.py`` measures against
escalated cycle-accurate runs and gates in CI.

``MODEL_VERSION`` participates in the sweep-cache key: bump it whenever
a formula changes so stale cached rankings can never leak into a new
front.
"""

from __future__ import annotations

from dataclasses import replace

from repro.platform.config import ArchConfig
from repro.platform.stats import CoreStats, SimulationStats
from repro.power.area import AreaModel
from repro.power.dvfs import NOMINAL_PERIOD_NS
from repro.power.power_model import PowerModel
from repro.power.technology import tech_node
from repro.dse.space import DesignPoint, TOTAL_LEADS

#: Cache-key fingerprint of the analytical formulas below.
MODEL_VERSION = "dse-analytical/1"

#: Core count of the calibration anchors (the paper geometry).
ANCHOR_CORES = 8

#: ECG sampling rate: one 8-lead sample tuple every 4 ms.
SAMPLE_RATE_HZ = 250.0


def _mot_nodes(masters: int, banks: int) -> int:
    """Closed-form Mesh-of-Trees node count: M(B-1) + B(M-1)."""
    return masters * (banks - 1) + banks * (masters - 1)


def _effective_im_banks(config: ArchConfig, program_words: int) -> int:
    """Banks the instruction stream actually spreads over."""
    return config.im_layout().banks_used(program_words, config.n_cores)


class AnalyticalModel:
    """Predicts metrics for any :class:`DesignPoint` from the anchors.

    Construction is free; the calibrated reference simulations load
    lazily on first use, so a fully-cached sweep never simulates.
    ``fast_forward`` is the engine those reference simulations run on.
    """

    def __init__(self, fast_forward: bool = True):
        self.fast_forward = fast_forward
        self._cal = None
        self._stats_cache: dict[tuple, SimulationStats] = {}

    # -- anchors ----------------------------------------------------------------

    @property
    def cal(self):
        if self._cal is None:
            from repro.power.calibration import calibrated_set
            self._cal = calibrated_set(fast_forward=self.fast_forward)
        return self._cal

    def _anchor(self, arch: str, huffman_private: bool):
        """(built benchmark, reference result) of one arch and mapping."""
        from repro.power.calibration import reference_results
        return reference_results(arch, huffman_private,
                                 fast_forward=self.fast_forward)

    def _program_words(self, huffman_private: bool) -> int:
        built, _ = self._anchor("mc-ref", huffman_private)
        return built.benchmark.program.size_bytes // 3

    def _useful_ops_per_core(self, huffman_private: bool) -> float:
        """Per-core useful work: the mc-ref reference instruction count."""
        _, result = self._anchor("mc-ref", huffman_private)
        return result.stats.total_retired / ANCHOR_CORES

    def _block_samples(self, huffman_private: bool) -> int:
        built, _ = self._anchor("mc-ref", huffman_private)
        return built.spec.n_samples

    # -- cycle / activity prediction --------------------------------------------

    def predicted_stats(self, point: DesignPoint) -> SimulationStats:
        """Synthetic :class:`SimulationStats` for one structural config.

        Exact at the 8-core paper geometry; first-order everywhere else.
        Cached per structural key (voltage and node do not change it).
        """
        key = point.structural_key()
        if key in self._stats_cache:
            return self._stats_cache[key]

        config = point.arch_config()
        _, reference = self._anchor(point.arch, point.huffman_private)
        anchor = reference.stats
        anchor_config = reference.system.config
        program_words = self._program_words(point.huffman_private)
        c = point.n_cores
        share = c / ANCHOR_CORES

        def per_core(total):
            return total / ANCHOR_CORES

        # Broadcast savings: merges absorb up to c-1 peer requests.
        peer_ratio = (c - 1) / (ANCHOR_CORES - 1)
        im_fetches = anchor.im_fetches * share
        im_savings = anchor.im_broadcast_savings * peer_ratio
        im_accesses = anchor.im_bank_accesses \
            + (im_fetches - anchor.im_fetches) \
            - (im_savings - anchor.im_broadcast_savings)
        dm_deliveries = anchor.dm_deliveries * share
        dm_savings = anchor.dm_broadcast_savings * peer_ratio
        dm_accesses = anchor.dm_bank_accesses \
            + (dm_deliveries - anchor.dm_deliveries) \
            - (dm_savings - anchor.dm_broadcast_savings)

        # Conflict stalls: ~ (contending peers) / (effective banks).
        if config.has_ixbar:
            im_eff_anchor = _effective_im_banks(anchor_config,
                                                program_words)
            im_eff = _effective_im_banks(config, program_words)
            im_stall_pc = per_core(anchor.im_stalled_requests) \
                * peer_ratio * (im_eff_anchor / im_eff)
            im_conflicts = anchor.im_conflict_events * peer_ratio \
                * (im_eff_anchor / im_eff)
        else:
            im_stall_pc = 0.0
            im_conflicts = 0.0
        dm_ratio = anchor_config.dm_banks / config.dm_banks
        dm_stall_pc = per_core(anchor.dm_stalled_requests) \
            * peer_ratio * dm_ratio
        dm_conflicts = anchor.dm_conflict_events * peer_ratio * dm_ratio

        stall_delta_pc = (im_stall_pc - per_core(anchor.im_stalled_requests)
                          + dm_stall_pc
                          - per_core(anchor.dm_stalled_requests))
        retired_pc = per_core(anchor.total_retired)
        cycles = max(anchor.total_cycles + stall_delta_pc, retired_pc)
        stall_pc = max(per_core(anchor.total_stall_cycles)
                       + stall_delta_pc, 0.0)

        banks_used = _effective_im_banks(config, program_words)
        gated = config.im_banks - banks_used if config.im_power_gating \
            else 0

        stats = SimulationStats(
            arch=point.arch,
            total_cycles=cycles,
            cores=[CoreStats(retired=retired_pc, stall_cycles=stall_pc)
                   for _ in range(c)],
            im_bank_accesses=im_accesses,
            im_fetches=im_fetches,
            im_broadcasts=anchor.im_broadcasts,
            im_broadcast_savings=im_savings,
            im_conflict_events=im_conflicts,
            im_stalled_requests=im_stall_pc * c,
            im_bank_transitions=anchor.im_bank_transitions * share,
            im_banks_used=banks_used,
            im_banks_gated=gated,
            dm_bank_accesses=dm_accesses,
            dm_reads_delivered=anchor.dm_reads_delivered * share,
            dm_writes_delivered=anchor.dm_writes_delivered * share,
            dm_broadcasts=anchor.dm_broadcasts,
            dm_broadcast_savings=dm_savings,
            dm_conflict_events=dm_conflicts,
            dm_stalled_requests=dm_stall_pc * c,
            dm_private_accesses=anchor.dm_private_accesses * share,
            dm_shared_accesses=anchor.dm_shared_accesses * share,
            sync_cycles=anchor.sync_cycles,
        )
        self._stats_cache[key] = stats
        return stats

    # -- component scaling -------------------------------------------------------

    def _scaled_components(self, config: ArchConfig):
        """Per-event energies and leakage rescaled to this geometry."""
        cal = self.cal
        area = AreaModel(config)
        s_im = area.memory_bank_kge(config.im_bank_words * 3) \
            / area.memory_bank_kge(4096 * 3)
        s_dm = area.memory_bank_kge(config.dm_bank_words * 2) \
            / area.memory_bank_kge(2048 * 2)
        s_dx = _mot_nodes(config.n_cores, config.dm_banks) \
            / _mot_nodes(ANCHOR_CORES, 16)
        s_ix = _mot_nodes(config.n_cores, config.im_banks) \
            / _mot_nodes(ANCHOR_CORES, 8) if config.has_ixbar else 1.0
        energies = replace(
            cal.energies,
            im_access=cal.energies.im_access * s_im,
            dm_access=cal.energies.dm_access * s_dm,
            dxbar_delivery=cal.energies.dxbar_delivery * s_dx,
            ixbar_delivery=cal.energies.ixbar_delivery * s_ix,
            ixbar_transition=cal.energies.ixbar_transition * s_ix,
        )
        leakage = replace(
            cal.leakage,
            im_per_bank=cal.leakage.im_per_bank * s_im,
            dm_per_bank=cal.leakage.dm_per_bank * s_dm,
        )
        return energies, leakage

    # -- metrics -----------------------------------------------------------------

    def metrics_from_stats(self, point: DesignPoint,
                           stats: SimulationStats,
                           source: str) -> dict:
        """Objective metrics for ``point`` given (predicted or simulated)
        activity statistics — one formula for both fidelity sides."""
        cal = self.cal
        config = point.arch_config()
        node = tech_node(point.tech_nm)
        tech = cal.technology
        energies, leakage = self._scaled_components(config)
        model = PowerModel(config, stats, energies, leakage, tech,
                           post_layout_factor=cal.post_layout_factor)

        frequency_hz = (1e9 / NOMINAL_PERIOD_NS) \
            * tech.speed_factor(point.voltage) * node.speed_scale
        useful_per_block = self._useful_ops_per_core(
            point.huffman_private) * point.n_cores
        ops_per_cycle = useful_per_block / stats.total_cycles
        throughput_mops = frequency_hz * ops_per_cycle / 1e6

        dynamic_w = model.dynamic_power(
            frequency_hz, point.voltage).total * node.dynamic_scale
        leakage_w = model.total_leakage(point.voltage) * node.leakage_scale
        total_w = dynamic_w + leakage_w

        # One simulated block covers n_cores leads; a full 8-lead sample
        # tuple therefore costs (8 / n_cores) blocks.
        n_samples = self._block_samples(point.huffman_private)
        blocks_per_s = frequency_hz / stats.total_cycles
        sample_tuples_per_s = blocks_per_s * n_samples \
            * point.n_cores / TOTAL_LEADS
        energy_per_sample_nj = total_w / sample_tuples_per_s * 1e9

        area = AreaModel(config)
        area_mm2 = area.total_mm2() * node.area_scale

        return {
            "source": source,
            "cycles_per_block": stats.total_cycles,
            "ops_per_cycle": ops_per_cycle,
            "frequency_mhz": frequency_hz / 1e6,
            "throughput_mops": throughput_mops,
            "dynamic_mw": dynamic_w * 1e3,
            "leakage_mw": leakage_w * 1e3,
            "total_mw": total_w * 1e3,
            "energy_per_sample_nj": energy_per_sample_nj,
            "area_kge": area.total_kge() * node.area_scale,
            "area_mm2": area_mm2,
            "im_banks_used": stats.im_banks_used,
            "im_banks_gated": stats.im_banks_gated,
            "real_time_ok": sample_tuples_per_s >= SAMPLE_RATE_HZ,
        }

    def evaluate(self, point: DesignPoint) -> dict:
        """Analytical metrics for one design point."""
        return self.metrics_from_stats(point, self.predicted_stats(point),
                                       source="analytical")


def objectives(metrics: dict) -> tuple[float, float, float]:
    """Minimisation vector: (energy/sample, -throughput, area)."""
    return (metrics["energy_per_sample_nj"],
            -metrics["throughput_mops"],
            metrics["area_mm2"])
