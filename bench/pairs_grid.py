"""Generator for the ``pairs_grid`` scenario: saturated WiFi pairs on a grid.

Each pair is a saturated station and its access point 5 m east of it, one
pair per grid point, 40 m apart, with log-distance loss (exponent 3), so a
20 dBm station trips the -82 dBm carrier sense of neighbours within about
116 m. One saturated WiMAX subscriber station with a collocated WiFi
interface and CTS-to-self reservation sits in the middle grid cell; its
base station is 150 m east of it.

The layout depends only on the pair count; the seed becomes the scenario's
PRNG seed. Equal (seed, pairs) give byte-identical YAML. The pair-count
sweep is run through ``run.py --pairs``.
"""

from __future__ import annotations

import math

SPACING_M = 40.0
AP_OFFSET_M = 5.0
BS_OFFSET_M = 150.0
DURATION_US = 600_000
WARMUP_US = 200_000


def pairs_grid_yaml(seed: int, pairs: int) -> str:
    """Scenario YAML text for ``pairs`` WiFi pairs plus one WiMAX cell."""
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    side = math.ceil(math.sqrt(pairs))
    # middle of a grid cell, never on a station: zero distance has no path loss
    centre = (side // 2 - 0.5) * SPACING_M
    lines = [
        f"# pairs_grid: {pairs} saturated WiFi pairs, {SPACING_M:g} m grid, "
        "one WiMAX station with CTS-to-self reservation at the centre",
        f"duration_us: {DURATION_US}",
        f"warmup_us: {WARMUP_US}",
        f"seed: {seed}",
        "medium:",
        "  path_loss: {kind: log-distance, exponent: 3.0, "
        "reference_loss_db: 40.05, frequency_mhz: 2400.0}",
        "reservation:",
        "  enabled: true",
        "nodes:",
        f"  - {{id: bs, kind: wimax-bs, position: [{centre + BS_OFFSET_M:.1f}, "
        f"{centre:.1f}], system: wimax}}",
        f"  - {{id: ss, kind: wimax-ss, position: [{centre:.1f}, {centre:.1f}], "
        "bs: bs, system: wimax,",
        "     traffic: {kind: wimax, dl_saturated: true, ul_saturated: true}}",
        f"  - {{id: ss_wifi, kind: wifi, position: [{centre:.1f}, {centre:.1f}], "
        "collocated_with: ss, system: wimax, traffic: {kind: none}}",
    ]
    for i in range(pairs):
        x = (i % side) * SPACING_M
        y = (i // side) * SPACING_M
        lines.append(f"  - {{id: sta{i}, kind: wifi, position: [{x:.1f}, {y:.1f}], "
                     f"peer: ap{i}, system: pair{i},")
        lines.append("     traffic: {kind: saturated, frame_bytes: 1500}}")
        lines.append(f"  - {{id: ap{i}, kind: wifi, position: [{x + AP_OFFSET_M:.1f}, "
                     f"{y:.1f}], system: pair{i}, traffic: {{kind: none}}}}")
    return "\n".join(lines) + "\n"

