"""Quickstart: simulate read disturb on an MLC NAND block and mitigate it.

Walks the paper's core loop in a dozen lines of API:

1. build a simulated flash block and wear it to 8K P/E cycles;
2. program pseudo-random data and hammer the block with reads;
3. watch the raw bit error rate climb;
4. run Vpass Tuning and see how much disturb the tuned Vpass avoids.

Run:  python examples/quickstart.py
"""

from repro import (
    FlashBlock,
    FlashGeometry,
    MonteCarloTunableBlock,
    RngFactory,
    VpassTuner,
)
from repro.physics.read_disturb import vpass_exposure_weight

GEOMETRY = FlashGeometry(blocks=1, wordlines_per_block=32, bitlines_per_block=8192)


def main() -> None:
    block = FlashBlock(GEOMETRY, RngFactory(42))

    # Age the block the way the paper's testbed does, then fill it.
    block.cycle_wear_to(8000)
    block.program_random()
    print(f"block ready: {block}")

    print("\nRBER vs. read disturb count (nominal Vpass):")
    applied = 0
    for reads in (0, 100_000, 300_000, 1_000_000):
        block.apply_read_disturb(reads - applied)
        applied = reads
        rber = block.measure_block_rber()
        print(f"  {reads:>9,} reads -> RBER {rber:.2e}")

    # Fresh block for the mitigation story.
    block.erase()
    block.program_random()
    tunable = MonteCarloTunableBlock(block, characterize=False)
    outcome = VpassTuner().tune_after_refresh(tunable)
    print(
        f"\nVpass Tuning: margin M={outcome.margin} bits -> "
        f"Vpass {outcome.vpass:.0f} ({outcome.reduction_percent:.1f}% below nominal)"
    )
    factor = 1.0 / float(vpass_exposure_weight(outcome.vpass))
    print(f"each read now disturbs {factor:.0f}x less than at nominal Vpass")


if __name__ == "__main__":
    main()
