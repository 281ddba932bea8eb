"""Campaign determinism properties.

The acceptance contract of the resilience subsystem: a fixed-seed
campaign produces identical fault sites, per-trial outcomes and
campaign digests across the exact and fast-forward engines, across
worker counts, and across cold vs resumed executions — every
scheduling and engine knob is invisible to the simulated bits.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm.checkpoint import Checkpoint, spec_key
from repro.resilience import (
    build_campaign,
    campaign_digest,
    execute_trial,
    run_campaign,
)

#: Small geometry: the per-process golden cache makes trial N cheap,
#: but exact-engine trials still dominate the budget.
GEOMETRY = dict(n_samples=64, n_measurements=32)


@settings(max_examples=3, deadline=None)
@given(campaign_seed=st.integers(min_value=0, max_value=2 ** 16))
def test_same_plan_seed_identical_across_engines(campaign_seed):
    """Same campaign seed => identical fault sites, outcomes and
    digests whether trials run exact or fast-forward."""
    ff_specs = build_campaign(3, "mc-ref", campaign_seed=campaign_seed,
                              **GEOMETRY)
    exact_specs = [replace(spec, fast_forward=False)
                   for spec in ff_specs]
    ff = [execute_trial(spec) for spec in ff_specs]
    exact = [execute_trial(spec) for spec in exact_specs]
    assert [r.fault for r in ff] == [r.fault for r in exact]
    assert [r.outcome for r in ff] == [r.outcome for r in exact]
    assert [r.identity_row() for r in ff] \
        == [r.identity_row() for r in exact]
    assert campaign_digest(ff) == campaign_digest(exact)


def test_digest_identical_across_worker_counts():
    specs = build_campaign(4, "mc-ref", campaign_seed=7, **GEOMETRY)
    one = run_campaign(specs, workers=1)
    four = run_campaign(specs, workers=4)
    assert one.ok and four.ok
    assert [r.identity_row() for r in one.results] \
        == [r.identity_row() for r in four.results]
    assert one.digest() == four.digest()


def test_resumed_campaign_digest_bit_identical(tmp_path):
    """A checkpointed campaign resumed after partial completion
    recomputes nothing and reproduces the cold digest exactly."""
    specs = build_campaign(4, "mc-ref", campaign_seed=11, **GEOMETRY)
    checkpoint = tmp_path / "campaign.jsonl"
    cold = run_campaign(specs, workers=2, checkpoint=checkpoint)
    assert cold.ok and cold.resumed == 0

    # Drop the final record, simulating a kill before the last trial.
    lines = checkpoint.read_text().splitlines()
    checkpoint.write_text("\n".join(lines[:-1]) + "\n")
    partial = Checkpoint(checkpoint).load()
    assert len(partial) == 3

    resumed = run_campaign(specs, workers=2, checkpoint=checkpoint,
                           resume=True)
    assert resumed.ok
    assert resumed.resumed == 3  # only the dropped trial recomputed
    assert resumed.digest() == cold.digest()
    assert [r.identity_row() for r in resumed.results] \
        == [r.identity_row() for r in cold.results]
    # The recomputed trial was re-checkpointed: a second resume is
    # fully satisfied from the store.
    again = run_campaign(specs, workers=2, checkpoint=checkpoint,
                         resume=True)
    assert again.resumed == 4
    assert again.digest() == cold.digest()


def test_campaign_identity_excludes_the_engine():
    from repro.resilience import campaign_identity
    ff = build_campaign(3, "mc-ref", campaign_seed=5, **GEOMETRY)
    exact = build_campaign(3, "mc-ref", campaign_seed=5,
                           fast_forward=False, **GEOMETRY)
    assert campaign_identity(ff) == campaign_identity(exact)
    # ... but the spec keys differ, so checkpoints never cross engines.
    assert spec_key(ff[0]) != spec_key(exact[0])
