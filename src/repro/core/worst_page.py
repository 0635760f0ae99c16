"""Manufacturing-time prediction of a block's worst-case page.

Paper, Section 3: "After manufacturing, we statically find the predicted
worst-case page by programming pseudo-randomly generated data to each page
within the block, and then immediately reading the page to find the error
count."  The page with the highest count is recorded; one daily read of it
yields the maximum estimated error (MEE).
"""

from __future__ import annotations

import numpy as np

from repro.flash.block import FlashBlock


def predict_worst_page(block: FlashBlock, now: float = 0.0) -> int:
    """Program pseudo-random data and return the page with most raw errors.

    The block is erased and re-programmed as part of the procedure (it runs
    once, after manufacturing).  Measurement reads are excluded from
    disturb accounting, as a factory characterization pass would be; the
    whole profile is one batched error count over the block.
    """
    block.erase(now)
    block.program_random(now)
    pages = np.arange(block.geometry.pages_per_block, dtype=np.int64)
    errors = block.page_error_counts(pages, now)
    return int(np.argmax(errors))
