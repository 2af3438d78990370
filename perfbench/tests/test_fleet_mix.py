from collections import Counter

from workloads import JOBS_PER_BATCH, REPEATS_PER_BATCH, SHAPES, WARM_SLOTS, FleetMix


def stream(seed, batches=3):
    mix = FleetMix(seed)
    jobs = mix.warmup()
    for _ in range(batches):
        jobs += mix.next_batch()
    return jobs


def test_same_seed_gives_the_same_jobs():
    assert stream(7) == stream(7)


def test_another_seed_gives_different_jobs():
    a, b = stream(7), stream(8)
    assert [(j.problem, j.t_final) for j in a] != [(j.problem, j.t_final) for j in b]


def test_every_batch_has_the_same_composition():
    mix = FleetMix(3)
    mix.warmup()
    for _ in range(3):
        batch = mix.next_batch()
        assert len(batch) == JOBS_PER_BATCH
        repeats = [j for j in batch if j.repeat_of]
        assert len(repeats) == REPEATS_PER_BATCH
        fresh = Counter((j.problem, j.zones, j.order, j.backend)
                        for j in batch if not j.repeat_of)
        assert fresh == Counter({s[:4]: s[5] for s in SHAPES})


def test_repeats_copy_an_earlier_job_exactly():
    jobs = stream(11)
    seen = {}
    for job in jobs:
        if job.repeat_of:
            first = seen[job.repeat_of]  # earlier in the stream
            assert job.config() == first.config() and job.problem == first.problem
        seen[job.job_id] = job
    assert len({j.job_id for j in jobs}) == len(jobs)


def test_warmup_fills_the_warm_pool_with_the_popular_shapes():
    warm = FleetMix(1).warmup()
    assert [(j.problem, j.zones, j.order, j.backend) for j in warm] == \
        [s[:4] for s in SHAPES[:WARM_SLOTS]]
    assert len(SHAPES) > WARM_SLOTS
