"""Per-component power analysis and the effect of each paper feature.

Reproduces the paper's reasoning chain on one page: where mc-ref's power
goes (Fig 3), what instruction broadcasting does to it (Table II), and
what power gating adds at the leakage floor (Fig 8) — then runs the two
ablations (no data broadcast, no instruction broadcast) to show each
mechanism's contribution to core synchronisation.

Run:  python examples/power_breakdown.py
"""

from repro.experiments.common import ARCHES, fmt_power
from repro.power.calibration import calibrated_set, reference_results


def main() -> None:
    cal = calibrated_set()

    print("=== dynamic power by component (8 MOps/s, 1.2 V) ===")
    components = ("cores", "im", "dm", "dxbar", "ixbar", "clock")
    print(f"{'arch':<11}" + "".join(f"{c:>9}" for c in components)
          + f"{'total':>9}")
    for arch in ARCHES:
        model = cal.power_model(arch)
        frequency = 8e6 / cal.ops_per_cycle(arch)
        breakdown = model.dynamic_power(frequency, 1.2, post_layout=False)
        cells = breakdown.as_dict()
        print(f"{arch:<11}"
              + "".join(f"{1e3 * cells[c]:>9.3f}" for c in components)
              + f"{1e3 * breakdown.total:>9.3f}  mW")

    print("\n=== leakage at the minimum supply (0.5 V) ===")
    for arch in ARCHES:
        model = cal.power_model(arch)
        leak = model.leakage_power(cal.technology.v_min)
        gated = cal.results[arch].stats.im_banks_gated
        print(f"{arch:<11} im={fmt_power(leak['im']):>9} "
              f"dm={fmt_power(leak['dm']):>9} "
              f"logic={fmt_power(leak['logic']):>9} "
              f"({gated} IM banks power-gated)")

    print("\n=== what keeps the cores synchronised? (ablations) ===")
    print(f"{'configuration':<42}{'cycles':>9}{'IM accesses':>13}"
          f"{'sync %':>8}")
    rows = [
        ("full proposed design (ulpmc-bank)", {}),
        ("huffman LUTs shared (DM conflicts)", {"huffman_private": False}),
        ("no data broadcast (cores desynchronise)",
         {"huffman_private": False, "data_broadcast": False}),
        ("no instruction broadcast (one access/fetch)",
         {"huffman_private": False, "instr_broadcast": False}),
    ]
    for label, kwargs in rows:
        __, reference = reference_results("ulpmc-bank", **kwargs)
        stats = reference.stats
        print(f"{label:<42}{stats.total_cycles:>9}"
              f"{stats.im_bank_accesses:>13}"
              f"{100 * stats.sync_fraction:>8.1f}")
    print("\nthe paper's chain: DM organisation + data broadcast keep the "
          "cores in lockstep, which is what lets instruction broadcast "
          "collapse 8 fetches into 1 IM access (86% IM power reduction)")


if __name__ == "__main__":
    main()
