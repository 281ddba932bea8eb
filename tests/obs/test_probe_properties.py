"""Property test for sampled per-event delivery.

``set_sampling(event, N)`` delivers exactly the occurrences at indices
``0, N, 2N, ...`` while counting every occurrence, over
hypothesis-generated rates and stream lengths.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ProbeBus


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.integers(0, 100))
def test_sampling_drops_exactly_expected_events(every, total):
    """Delivery keeps indices 0, N, 2N, ...; the count stays exact."""
    bus = ProbeBus()
    delivered = []
    bus.subscribe("core.retire", lambda *args: delivered.append(args))
    bus.set_sampling("core.retire", every)
    for index in range(total):
        bus.emit("core.retire", index, 0, index)
    assert delivered == [(index, 0, index)
                        for index in range(0, total, every)]
    assert len(delivered) == (math.ceil(total / every) if total else 0)
    if every > 1:
        assert bus.occurrences("core.retire") == total
        assert bus.sampling("core.retire") == every
    else:
        # every=1 removes the policy entirely.
        assert bus.sampling("core.retire") == 1
