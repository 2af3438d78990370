"""Tests for `repro.service`: the fault-tolerant simulation fleet.

The `-k smoke` subset (`PYTHONPATH=src python -m pytest -q
tests/test_service.py -k smoke`) is the fast end-to-end slice: submit /
wait, warm-pool bit-identity, cached results, and journal recovery.
The chaos test at the bottom is the acceptance scenario from the
issue: a mixed-priority burst under injected sticky-GPU / rank /
timeout faults, with exactly-once accounting checked against the
journal itself.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.service import (
    AdmissionError,
    BreakerConfig,
    CircuitBreaker,
    FleetConfig,
    JobHandle,
    JobJournal,
    JobQueue,
    JobResult,
    JobSpec,
    JournalCorruptionError,
    QueueConfig,
    RetryPolicy,
    ResultStore,
    SimulationFleet,
    recover,
    state_digest,
)

TINY = RunConfig(zones=4, t_final=0.02)


def inline_fleet(**kwargs) -> SimulationFleet:
    """A workers=0 fleet: jobs run deterministically via `process()`."""
    kwargs.setdefault("config", FleetConfig(workers=0))
    return SimulationFleet(kwargs.pop("config"), start=False, **kwargs)


class TestJobSpec:
    def test_content_key_identifies_the_computation(self):
        a = JobSpec("sedov", TINY, job_id="a")
        b = JobSpec("sedov", TINY, priority=5, job_id="b")
        assert a.content_key() == b.content_key()  # identity ignores QoS
        c = JobSpec("sedov", TINY.replace(zones=5), job_id="c")
        assert a.content_key() != c.content_key()
        d = JobSpec("sod", TINY, job_id="d")
        assert a.content_key() != d.content_key()

    def test_round_trips_through_dict(self):
        spec = JobSpec("noh", TINY, priority=3, deadline_s=1.5,
                       max_attempts=2, job_id="j1")
        back = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.content_key() == spec.content_key()

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec("sedov", TINY, max_attempts=0)
        with pytest.raises(ValueError):
            JobSpec("sedov", TINY, deadline_s=0.0)
        with pytest.raises(TypeError):
            JobSpec("sedov", config={"zones": 4})


class TestQueue:
    def _submit(self, q, problem="sedov", **kw):
        spec = JobSpec(problem, TINY, job_id=kw.pop("job_id", f"j{len(q)}"),
                       **kw)
        handle = JobHandle(spec)
        return q.submit(spec, handle), handle

    def test_priority_order_fifo_within_priority(self):
        q = JobQueue(QueueConfig(max_depth=8))
        for jid, pri in (("lo1", 0), ("hi", 2), ("lo2", 0), ("mid", 1)):
            self._submit(q, job_id=jid, priority=pri)
        order = [q.get(0.0).spec.job_id for _ in range(4)]
        assert order == ["hi", "mid", "lo1", "lo2"]

    def test_full_queue_rejects_with_retry_hint(self):
        q = JobQueue(QueueConfig(max_depth=2, shed_lower_priority=False))
        self._submit(q, job_id="a")
        self._submit(q, job_id="b")
        with pytest.raises(AdmissionError) as err:
            self._submit(q, job_id="c")
        assert err.value.reason == "queue-full"
        assert err.value.retry_after_s > 0

    def test_higher_priority_displaces_lowest(self):
        q = JobQueue(QueueConfig(max_depth=2))
        self._submit(q, job_id="low", priority=0)
        self._submit(q, job_id="mid", priority=1)
        displaced, _ = self._submit(q, job_id="vip", priority=5)
        assert displaced.spec.job_id == "low"
        assert displaced.cancelled
        displaced2, _ = self._submit(q, job_id="vip2", priority=5)
        assert displaced2.spec.job_id == "mid"
        # Equal priority does NOT displace: strictly-higher only.
        with pytest.raises(AdmissionError):
            self._submit(q, job_id="vip3", priority=5)
        order = [q.get(0.0).spec.job_id for _ in range(2)]
        assert order == ["vip", "vip2"]

    def test_doomed_deadline_rejected_under_load(self):
        q = JobQueue(QueueConfig(max_depth=4, default_service_s=10.0))
        self._submit(q, job_id="a")
        self._submit(q, job_id="b")  # queue now half full
        with pytest.raises(AdmissionError) as err:
            self._submit(q, job_id="doomed", deadline_s=0.001)
        assert err.value.reason == "doomed-deadline"
        # force=True (journal recovery) bypasses admission control.
        spec = JobSpec("sedov", TINY, deadline_s=0.001, job_id="forced")
        q.submit(spec, JobHandle(spec), force=True)
        assert len(q) == 3

    def test_ewma_tracks_service_time(self):
        q = JobQueue(QueueConfig(default_service_s=1.0, ewma_alpha=0.5))
        q.observe_service(3.0)
        assert q.ewma_service_s == pytest.approx(2.0)

    def test_closed_queue_rejects_and_drains(self):
        q = JobQueue()
        self._submit(q, job_id="a")
        q.close()
        with pytest.raises(AdmissionError) as err:
            self._submit(q, job_id="b")
        assert err.value.reason == "closed"
        assert q.get(0.0).spec.job_id == "a"
        assert q.get(0.0) is None  # closed + drained


class TestBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        br = CircuitBreaker("hybrid", BreakerConfig(failure_threshold=3))
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed"
        br.record_success()  # success resets the streak
        for _ in range(3):
            br.record_failure()
        assert br.state == "open"

    def test_cooldown_then_probe_then_close(self):
        br = CircuitBreaker(
            "hybrid", BreakerConfig(failure_threshold=1, cooldown_jobs=3)
        )
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()  # denial 1
        assert not br.allow()  # denial 2
        assert br.allow()      # denial 3 -> half-open, this is the probe
        assert br.state == "half-open"
        assert not br.allow()  # only one probe at a time
        br.record_success()
        assert br.state == "closed"

    def test_failed_probe_reopens(self):
        br = CircuitBreaker(
            "hybrid", BreakerConfig(failure_threshold=1, cooldown_jobs=1)
        )
        br.record_failure()
        assert br.allow()  # immediate half-open probe
        br.record_failure()
        assert br.state == "open"
        transitions = [(t.source, t.target) for t in br.transitions]
        assert transitions == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "open"),
        ]


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        j = JobJournal(tmp_path / "j.jsonl")
        j.append("submit", job={"job_id": "a", "problem": "sedov",
                                "config": {}})
        j.append("complete", job_id="a", content_key="k")
        records = j.replay()
        assert [r["type"] for r in records] == ["submit", "complete"]
        assert [r["seq"] for r in records] == [0, 1]

    def test_seq_continues_across_restart(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JobJournal(path).append("submit", job={"job_id": "a"})
        j2 = JobJournal(path)
        assert j2.append("complete", job_id="a") == 1

    def test_corrupt_line_lenient_vs_strict(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JobJournal(path)
        j.append("submit", job={"job_id": "a"})
        j.append("complete", job_id="a")
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"job_id": "a"', '"job_id": "X"')
        lines.append('{"torn')  # torn tail from a crash mid-append
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="corrupt"):
            records = JobJournal(path).replay()
        assert [r["type"] for r in records] == ["complete"]
        with pytest.raises(JournalCorruptionError):
            JobJournal(path, strict=True)

    def test_recover_classifies_jobs(self, tmp_path):
        j = JobJournal(tmp_path / "j.jsonl")
        done = JobSpec("sedov", TINY, job_id="done")
        interrupted = JobSpec("sod", TINY, job_id="interrupted")
        queued = JobSpec("noh", TINY, job_id="queued")
        shed = JobSpec("noh", TINY, job_id="shed")
        for spec in (done, interrupted, queued, shed):
            j.append("submit", job=spec.to_dict())
        j.append("start", job_id="done")
        j.append("complete", job_id="done", content_key="k1")
        j.append("start", job_id="interrupted")  # no terminal: crashed
        j.append("shed", job_id="shed", reason="queue full")
        state = recover(j)
        assert [s.job_id for s in state.pending] == ["interrupted", "queued"]
        assert state.completed == {"done": "k1"}
        assert state.interrupted == ["interrupted"]

    def test_torn_tail_does_not_swallow_the_next_record(self, tmp_path):
        """A crash tore the last line: reopening ends it, so the next
        record lands on a line of its own and only the fragment is lost."""
        path = tmp_path / "j.jsonl"
        _write_journal(path, 3, kinds=("submit",))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.warns(UserWarning, match="corrupt"):
            j = JobJournal(path)
        j.append("submit", job=_submit("new"))
        with pytest.warns(UserWarning, match="corrupt"):
            state = recover(j)
        assert [s.job_id for s in state.pending] == ["j0", "j1", "new"]
        assert j.recovered_corrupt_lines == 1

    def test_non_utf8_byte_corrupts_only_its_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 3, kinds=("submit",))
        raw = bytearray(path.read_bytes())
        raw[raw.index(b'"j1"') + 1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.warns(UserWarning, match="corrupt"):
            j = JobJournal(path)
        assert j.recovered_corrupt_lines == 1
        with pytest.warns(UserWarning, match="corrupt"):
            assert [r["job"]["job_id"] for r in j.replay()] == ["j0", "j2"]
        with pytest.raises(JournalCorruptionError, match="line 2"):
            JobJournal(path, strict=True)

    def test_smoke_fleet_start_replays_the_journal_once(self, tmp_path, monkeypatch):
        """Opening the journal and recovering from it read the file once:
        one warning for the torn line, one digest per intact line."""
        import repro.service.journal as journal_mod

        path = tmp_path / "j.jsonl"
        _write_journal(path, 3, kinds=("submit",))
        path.write_bytes(path.read_bytes()[:-20])
        digests = []
        real_digest = journal_mod._record_digest
        monkeypatch.setattr(journal_mod, "_record_digest",
                            lambda r: digests.append(r["seq"]) or real_digest(r))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fleet = SimulationFleet(FleetConfig(workers=0), journal_path=path,
                                    start=False)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "line 3 is corrupt" in messages[0]
        assert digests == [0, 1]
        assert [h.job_id for h in fleet.recovered] == ["j0", "j1"]
        fleet.shutdown(wait=False)

    def test_duplicate_terminal_records_first_wins(self, tmp_path):
        j = JobJournal(tmp_path / "j.jsonl")
        j.append("submit", job=JobSpec("sedov", TINY, job_id="a").to_dict())
        j.append("complete", job_id="a", content_key="k1")
        j.append("fail", job_id="a", error="late duplicate")
        state = recover(j)
        assert state.pending == []
        assert state.completed == {"a": "k1"}


def _submit(job_id: str) -> dict:
    return JobSpec("sedov", TINY, job_id=job_id).to_dict()


def _write_journal(path, n: int, kinds=("submit", "start", "complete")):
    """`n` records cycling through `kinds`, one job per cycle (j0, j1...)."""
    j = JobJournal(path, sync=False)
    for i in range(n):
        kind, job = kinds[i % len(kinds)], f"j{i // len(kinds)}"
        if kind == "submit":
            j.append(kind, job=_submit(job))
        else:
            j.append(kind, job_id=job, content_key="k")


def _still_holds(damaged: bytes, line: bytes) -> bool:
    """Whether a line of `damaged` still reads as `line`'s record: byte
    equal, or changed only where JSON cannot see (a space overwritten
    by a tab, an exponent's e by E), which parses to the same record."""
    want = json.loads(line)
    for piece in damaged.split(b"\n"):
        try:
            if json.loads(piece) == want:
                return True
        except ValueError:
            continue
    return False


class TestJournalRecoveryProperty:
    # Derandomized and bounded: every run draws the same journals.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6), data=st.data())
    def test_smoke_journal_recovery_at_random_cut_and_flip(self, n, data):
        """A journal of 2-6 records, cut at any byte and optionally with
        one byte overwritten, reopens leniently, takes one more submit
        and replays exactly the records whose lines survived, then the
        new one; strict mode replays the same or raises the typed error."""
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            path, copy = Path(tmp) / "j.jsonl", Path(tmp) / "strict.jsonl"
            _write_journal(path, n)
            raw = path.read_bytes()
            damaged = bytearray(raw[: data.draw(st.integers(0, len(raw)), "cut")])
            if damaged and data.draw(st.booleans(), "flip"):
                at = data.draw(st.integers(0, len(damaged) - 1), "at")
                damaged[at] = data.draw(st.integers(0, 255), "byte")
            damaged = bytes(damaged)
            expected = [json.loads(line) for line in raw.split(b"\n")[:-1]
                        if _still_holds(damaged, line)]
            path.write_bytes(damaged)
            copy.write_bytes(damaged)

            j = JobJournal(path, sync=False)
            j.append("submit", job=_submit("new"))
            records = j.replay()
            assert records[:-1] == expected
            assert records[-1:] and records[-1]["job"]["job_id"] == "new"
            assert recover(j).pending[-1].job_id == "new"

            try:
                strict = JobJournal(copy, strict=True, sync=False)
            except JournalCorruptionError:
                return
            strict.append("submit", job=_submit("new"))
            assert strict.replay()[:-1] == expected


class TestResultStore:
    def _result(self, state):
        return JobResult(job_id="a", status="succeeded", problem="sedov",
                         content_key="k", steps=3,
                         state_sha256=state_digest(state))

    def _state(self):
        from repro.hydro.state import HydroState

        rng = np.random.default_rng(7)
        return HydroState(rng.random((5, 2)), rng.random(4),
                          rng.random((5, 2)), 0.25)

    def test_disk_round_trip_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        state = self._state()
        store.put("k", self._result(state), state)
        result, loaded = store.get("k")
        assert result.cached and result.steps == 3
        assert state_digest(loaded) == state_digest(state)
        assert np.array_equal(loaded.v, state.v)
        assert "k" in store and len(store) == 1
        assert store.get("missing") is None

    def test_corrupt_archive_is_a_miss_lenient_raises_strict(self, tmp_path):
        store = ResultStore(tmp_path)
        state = self._state()
        store.put("k", self._result(state), state)
        path = tmp_path / "result_k.npz"
        path.write_bytes(path.read_bytes()[:40])  # truncate
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.get("k") is None
        with pytest.raises(JournalCorruptionError):
            ResultStore(tmp_path, strict=True).get("k")

    def test_memory_mode(self):
        store = ResultStore()
        state = self._state()
        store.put("k", self._result(state), state)
        result, loaded = store.get("k")
        assert result.cached
        assert np.array_equal(loaded.x, state.x)


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_job_and_attempt(self):
        p = RetryPolicy(base_delay_s=0.01, jitter=0.5)
        assert p.delay_s("a", 0) == p.delay_s("a", 0)
        assert p.delay_s("a", 0) != p.delay_s("b", 0)
        assert p.delay_s("a", 1) != p.delay_s("a", 0)

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03,
                        jitter=0.0)
        assert p.delay_s("j", 0) == pytest.approx(0.01)
        assert p.delay_s("j", 1) == pytest.approx(0.02)
        assert p.delay_s("j", 4) == pytest.approx(0.03)  # capped

    def test_deadline_growth(self):
        p = RetryPolicy(deadline_growth=10.0)
        spec = JobSpec("sedov", TINY, deadline_s=0.1, job_id="j")
        assert p.attempt_deadline_s(spec, 0) == pytest.approx(0.1)
        assert p.attempt_deadline_s(spec, 2) == pytest.approx(10.0)
        assert p.attempt_deadline_s(JobSpec("sedov", TINY, job_id="n"), 1) is None


class TestFleetSmoke:
    def test_smoke_submit_wait_rollup(self):
        fleet = inline_fleet()
        handles = [fleet.submit("sedov", TINY.replace(zones=4 + i))
                   for i in range(3)]
        fleet.process()
        results = [h.wait(60) for h in handles]
        assert all(r.ok for r in results)
        assert all(r.state_sha256 for r in results)
        roll = fleet.rollup()
        assert roll["jobs"]["completed"] == 3
        assert roll["throughput_jobs_per_s"] > 0
        assert roll["latency_s"]["p99"] >= roll["latency_s"]["p50"] > 0
        fleet.shutdown(wait=False)

    def test_smoke_warm_pool_is_bit_identical(self):
        # reuse_results off forces the second job to actually execute,
        # on the warm solver the first job left in the pool.
        fleet = inline_fleet(config=FleetConfig(workers=0,
                                                reuse_results=False))
        h1 = fleet.submit("sedov", TINY)
        h2 = fleet.submit("sedov", TINY)
        fleet.process()
        r1, r2 = h1.result, h2.result
        assert not r1.warm and r2.warm
        assert r1.state_sha256 == r2.state_sha256
        assert fleet.rollup()["jobs"]["warm_hits"] == 1

    def test_smoke_warm_pool_arena_survives_mesh_size_changes(self):
        # One fleet arena backs every pooled solver. A solver evicted to
        # make room (different mesh shape) hands its workspace blocks
        # back, so rebuilding that shape later re-leases them instead of
        # allocating — and the recycled buffers change no bits.
        fleet = inline_fleet(config=FleetConfig(workers=0, warm_pool_size=1,
                                                reuse_results=False))
        h_a = fleet.submit("sedov", TINY)                    # pools solver A
        fleet.process()
        h_b1 = fleet.submit("sedov", TINY.replace(zones=5))  # B built, evicted
        fleet.process()
        allocs_after_b = fleet.rollup()["arena"]["block_allocations"]
        h_b2 = fleet.submit("sedov", TINY.replace(zones=5))  # B rebuilt
        h_a2 = fleet.submit("sedov", TINY)                   # A reused warm
        fleet.process()
        arena = fleet.rollup()["arena"]
        # B2's workspaces came entirely from B1's freed blocks.
        assert arena["block_allocations"] == allocs_after_b
        assert arena["block_reuses"] > 0
        assert arena["high_water_bytes"] > 0
        # Recycled blocks and solver.reset() reuse are both bit-identical.
        assert h_b2.result.state_sha256 == h_b1.result.state_sha256
        assert h_a2.result.warm
        assert h_a2.result.state_sha256 == h_a.result.state_sha256
        fleet.shutdown(wait=False)

    def test_smoke_repeat_submission_served_from_cache(self):
        fleet = inline_fleet()
        h1 = fleet.submit("sedov", TINY)
        fleet.process()
        h2 = fleet.submit("sedov", TINY)  # finished before process():
        assert h2.done                     # served from the store in O(1)
        assert h2.result.cached
        assert h2.result.state_sha256 == h1.result.state_sha256

    def test_smoke_recovered_twin_served_from_store(self, tmp_path):
        # A job stranded by the crash whose twin (same computation,
        # another job id) completed first is served at recovery.
        journal = tmp_path / "journal.jsonl"
        f1 = inline_fleet(journal_path=journal,
                          config=FleetConfig(workers=0, reuse_results=False))
        first = f1.submit("sedov", TINY, job_id="first")
        f1.submit("sedov", TINY, job_id="twin")
        f1.process(1)
        f1.kill()

        f2 = inline_fleet(journal_path=journal)
        (twin,) = f2.recovered
        assert twin.done and twin.result.cached and twin.result.wall_s == 0.0
        assert twin.result.job_id == "twin" and twin.result.status == "succeeded"
        assert twin.result.state_sha256 == first.result.state_sha256
        assert [r["type"] for r in JobJournal(journal).replay()] == [
            "submit", "submit", "start", "complete", "complete"]
        jobs = f2.rollup()["jobs"]
        assert (jobs["submitted"], jobs["recovered"], jobs["completed"],
                jobs["cached"]) == (1, 1, 1, 1)
        assert [e["event"] for e in f2.events if e.get("job_id") == "twin"] == [
            "job_recovered_cached"]

    def test_smoke_queued_duplicate_served_from_store(self, tmp_path):
        # Both submissions miss the store and queue; the second is served
        # from it once the first has completed.
        journal = tmp_path / "journal.jsonl"
        fleet = inline_fleet(journal_path=journal)
        first = fleet.submit("sedov", TINY, job_id="first")
        twin = fleet.submit("sedov", TINY, job_id="twin")
        assert not twin.done
        fleet.process()
        assert twin.result.cached and twin.result.wall_s == 0.0
        assert twin.result.job_id == "twin" and twin.result.status == "succeeded"
        assert twin.result.state_sha256 == first.result.state_sha256
        assert [r["type"] for r in JobJournal(journal).replay()] == [
            "submit", "submit", "start", "complete", "complete"]
        jobs = fleet.rollup()["jobs"]
        assert (jobs["submitted"], jobs["completed"], jobs["cached"]) == (2, 2, 1)
        assert [e["event"] for e in fleet.events if e.get("job_id") == "twin"] == [
            "job_admitted", "job_cached"]

    def test_smoke_journal_recovery_after_kill(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        f1 = inline_fleet(journal_path=journal)
        configs = [TINY.replace(max_steps=m) for m in (1, 2, 3, 4)]
        handles = [f1.submit("sedov", c) for c in configs]
        f1.process(2)
        f1.kill()  # crash double: 2 jobs done, 2 stranded in the journal
        survivors = {h.job_id: h.result.state_sha256
                     for h in handles if h.done}
        assert len(survivors) == 2

        f2 = inline_fleet(journal_path=journal)
        assert len(f2.recovered) == 2
        f2.process()
        assert all(h.result.ok for h in f2.recovered)
        # Resubmitting a pre-crash computation reuses its stored bits.
        f3 = inline_fleet(journal_path=journal)
        h = f3.submit("sedov", configs[0])
        assert h.done and h.result.cached
        assert h.result.state_sha256 == handles[0].result.state_sha256

    def test_smoke_recovery_resumes_elastic_rank_job(self, tmp_path):
        # A rank_schedule job stranded in the journal must replay after
        # recovery on the *resized* communicator, bit-for-bit: elastic
        # runs are deterministic, so the recovered digest has to match a
        # fresh run of the same config, whose manifest records the grow.
        journal = tmp_path / "journal.jsonl"
        elastic = TINY.replace(ranks=4, rank_schedule="2:8",
                               max_steps=6, t_final=1.0)
        f1 = inline_fleet(journal_path=journal)
        h = f1.submit("sedov", elastic)
        f1.kill()  # crash before a single process() tick: job stranded
        assert not h.done

        f2 = inline_fleet(journal_path=journal)
        assert len(f2.recovered) == 1
        f2.process()
        res = f2.recovered[0].result
        assert res.ok
        assert res.steps == 6

        from repro.api import run

        report = run("sedov", elastic)
        assert state_digest(report.state) == res.state_sha256
        assert report.manifest.solver["rank_history"] == [
            {"step": 2, "nranks": 8, "reason": "resize"}
        ]
        f2.shutdown(wait=False)

    def test_smoke_warm_pool_keeps_each_jobs_max_steps(self):
        # A pooled solver runs with the config it was built from, so a
        # job with another step budget must not reuse it.
        fleet = inline_fleet(config=FleetConfig(workers=0,
                                                reuse_results=False))
        long_run = TINY.replace(t_final=1.0)
        h3 = fleet.submit("sedov", long_run.replace(max_steps=3))
        fleet.process()
        h7 = fleet.submit("sedov", long_run.replace(max_steps=7))
        fleet.process()
        assert h3.result.steps == 3
        assert h7.result.steps == 7
        assert not h7.result.warm
        fleet.shutdown(wait=False)

    def test_smoke_warm_pool_keeps_each_jobs_tuning_objective(self):
        fleet = inline_fleet(config=FleetConfig(workers=0,
                                                reuse_results=False))
        hybrid = TINY.replace(backend="hybrid")
        for objective in ("time", "energy"):
            h = fleet.submit("sedov", hybrid.replace(tuning_objective=objective))
            fleet.process()
            assert h.result.ok and not h.result.warm
            assert fleet.rollup()["tuning"]["last"]["objective"] == objective
        fleet.shutdown(wait=False)

    def test_smoke_recovers_submit_records_that_carry_engine(self, tmp_path):
        # Submit records journaled while RunConfig still had `engine` and
        # `rank_step` fields, or while `cpu-serial` and `cpu-parallel`
        # were backends, carry them in their config; they must recover,
        # with `engine` and `rank_step` dropped whatever their value, and
        # `cpu-serial`, `cpu-parallel` and `workers` > 0 mapped to
        # `cpu-fused` with no workers.
        journal = tmp_path / "journal.jsonl"
        old = JobJournal(journal)
        for job_id, fields in (
                ("fused", {"engine": "fused"}),
                ("legacy", {"engine": "legacy"}),
                ("legacy-workers", {"engine": "legacy", "workers": 2}),
                ("serial", {"backend": "cpu-serial"}),
                ("parallel", {"backend": "cpu-parallel", "workers": 2}),
                ("auto", {"rank_step": "auto"}),
                ("loop", {"rank_step": "loop"}),
                ("vectorized", {"rank_step": "vectorized"})):
            job = JobSpec("sedov", TINY, job_id=job_id).to_dict()
            job["config"].update(fields)
            old.append("submit", job=job)
        assert '"backend": "cpu-parallel", ' in journal.read_text()
        fleet = inline_fleet(journal_path=journal)
        recovered = {h.job_id: h.spec.config for h in fleet.recovered}
        fused = TINY.replace(backend="cpu-fused")
        assert recovered == {
            "fused": TINY,
            "legacy": TINY,
            "legacy-workers": fused,
            "serial": fused,
            "parallel": fused,
            "auto": TINY,
            "loop": TINY,
            "vectorized": TINY,
        }
        assert all(cfg.workers == 0 for cfg in recovered.values())
        fleet.process()
        assert all(h.result.ok for h in fleet.recovered)
        fleet.shutdown(wait=False)

    def test_smoke_poll_and_handle_surface(self):
        fleet = inline_fleet()
        h = fleet.submit("sedov", TINY)
        assert h.poll() == "pending" and not h.done and h.result is None
        with pytest.raises(TimeoutError):
            h.wait(timeout=0.0)
        fleet.process()
        assert h.poll() == "succeeded" and h.done


class TestFleetBehavior:
    def test_unknown_problem_rejected_at_submit(self):
        fleet = inline_fleet()
        with pytest.raises(ValueError, match="unknown problem"):
            fleet.submit("kelvin-helmholtz", TINY)

    def test_duplicate_job_id_rejected(self):
        fleet = inline_fleet()
        fleet.submit("sedov", TINY, job_id="same")
        with pytest.raises(ValueError, match="duplicate"):
            fleet.submit("sod", TINY, job_id="same")

    def test_shed_jobs_terminate_their_handles(self):
        fleet = inline_fleet(config=FleetConfig(
            workers=0, queue=QueueConfig(max_depth=1)))
        low = fleet.submit("sedov", TINY, priority=0)
        vip = fleet.submit("sedov", TINY.replace(zones=5), priority=5)
        assert low.done and low.result.status == "shed"
        with pytest.raises(AdmissionError):
            fleet.submit("sedov", TINY.replace(zones=6), priority=5)
        fleet.process()
        assert vip.result.ok
        assert fleet.rollup()["jobs"]["shed"] == 2

    def test_cancel_queued_job(self):
        fleet = inline_fleet()
        h = fleet.submit("sedov", TINY)
        assert fleet.cancel(h)
        assert h.result.status == "cancelled"
        assert not fleet.cancel(h)  # already terminal
        assert fleet.process() == 0

    def test_deadline_timeout_retries_with_grown_budget(self):
        fleet = inline_fleet(config=FleetConfig(
            workers=0,
            retry=RetryPolicy(base_delay_s=1e-4, deadline_growth=1e4)))
        h = fleet.submit("sedov", TINY, deadline_s=1e-5, max_attempts=3)
        fleet.process()
        r = h.result
        assert r.ok and r.timeouts >= 1 and r.retries >= 1
        assert fleet.rollup()["jobs"]["timeouts"] >= 1

    def test_exhausted_attempts_fail_terminally(self):
        fleet = inline_fleet(config=FleetConfig(
            workers=0,
            retry=RetryPolicy(base_delay_s=1e-4, deadline_growth=1.0)))
        h = fleet.submit("sedov", TINY, deadline_s=1e-6, max_attempts=2)
        fleet.process()
        r = h.result
        assert r.status == "failed" and r.attempts == 2
        assert "deadline" in r.error

    def test_threaded_workers_drain_a_burst(self):
        fleet = SimulationFleet(FleetConfig(workers=2))
        handles = [fleet.submit("sedov", TINY.replace(max_steps=m))
                   for m in range(1, 7)]
        results = [h.wait(120) for h in handles]
        assert len(results) == 6 and all(r.ok for r in results)
        fleet.shutdown()
        assert fleet.rollup()["jobs"]["completed"] == 6

    def test_resilient_jobs_take_the_cold_path(self):
        fleet = inline_fleet()
        h = fleet.submit(
            "sedov", TINY.replace(faults="state:6:blowup",
                                  checkpoint_every=3, max_steps=12))
        fleet.process()
        r = h.result
        assert r.ok and not r.warm

    def test_fleet_manifest_export(self, tmp_path):
        from repro.telemetry import FleetManifest

        fleet = inline_fleet()
        fleet.submit("sedov", TINY)
        fleet.process()
        # `repro serve --manifest` writes the rollup this way.
        manifest = FleetManifest.from_rollup(fleet.rollup())
        manifest.write(tmp_path / "fleet.json")
        data = json.loads((tmp_path / "fleet.json").read_text())
        assert data["jobs"]["completed"] == 1
        assert "p99" in data["latency_s"]
        assert "jobs/s" in manifest.summary() or "jobs" in manifest.summary()


class TestBreakerIntegration:
    HYBRID = RunConfig(zones=4, t_final=0.02, backend="hybrid", max_steps=20)

    def test_sticky_gpu_faults_open_then_probe_recloses(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        fleet = inline_fleet(config=FleetConfig(
            workers=0,
            breaker=BreakerConfig(failure_threshold=2, cooldown_jobs=2)),
            tracer=tracer)
        # Two sticky-GPU jobs: each degrades mid-run -> breaker opens.
        for seed in range(2):
            fleet.submit("sedov",
                         self.HYBRID.replace(faults="gpu:1!",
                                             fault_seed=seed))
        fleet.process()
        assert fleet.breakers.breaker("hybrid").state == "open"

        # While open, hybrid jobs degrade to cpu-fused *before* running.
        h = fleet.submit("sedov", self.HYBRID.replace(zones=5))
        fleet.process()
        assert h.result.ok and h.result.degraded
        assert h.result.backend == "cpu-fused"
        degrades = [e for e in fleet.events if e["event"] == "job_degraded"]
        assert degrades and degrades[0]["target"] == "cpu-fused"

        # Cooldown elapses -> half-open probe on real hybrid -> closed.
        probe = fleet.submit("sedov", self.HYBRID.replace(zones=6))
        fleet.process()
        assert probe.result.ok and probe.result.backend == "hybrid"
        assert fleet.breakers.breaker("hybrid").state == "closed"
        moves = [(t.source, t.target)
                 for t in fleet.breakers.breaker("hybrid").transitions]
        assert moves == [("closed", "open"), ("open", "half-open"),
                         ("half-open", "closed")]
        # Fleet lifecycle events are mirrored as tracer instants.
        names = {e["name"] for e in tracer.events}
        assert "breaker_transition" in names and "job_degraded" in names


class TestChaos:
    """The acceptance scenario: a mixed burst under injected faults."""

    def test_chaos_burst_exactly_once_with_breaker_cycle(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        fleet = SimulationFleet(
            FleetConfig(
                workers=0,
                queue=QueueConfig(max_depth=64),
                breaker=BreakerConfig(failure_threshold=2, cooldown_jobs=2),
                retry=RetryPolicy(base_delay_s=1e-4, deadline_growth=1e4),
            ),
            journal_path=journal,
            start=False,
        )
        handles = []
        # 2 sticky-GPU hybrid jobs (open the breaker), then a stream of
        # mixed-priority clean jobs, rank-fault jobs, and timeout jobs.
        for seed in range(2):
            handles.append(fleet.submit(
                "sedov", RunConfig(zones=4, t_final=0.02, backend="hybrid",
                                   faults="gpu:1!", fault_seed=seed,
                                   max_steps=20)))
        for i in range(12):
            handles.append(fleet.submit(
                "sedov", RunConfig(zones=4, t_final=0.02, max_steps=3 + i),
                priority=i % 3))
        for i in range(2):
            handles.append(fleet.submit(
                "sod", RunConfig(zones=4, t_final=0.02, ranks=2,
                                 faults="rank:2:1", checkpoint_every=4,
                                 max_steps=8 + i)))
        for i in range(2):
            handles.append(fleet.submit(
                "noh", RunConfig(zones=4, t_final=0.02, max_steps=4 + i),
                deadline_s=1e-5, max_attempts=3))
        # Hybrid jobs submitted while the breaker is open degrade; the
        # later ones probe and re-close it.
        for i in range(4):
            handles.append(fleet.submit(
                "sedov", RunConfig(zones=5 + i, t_final=0.02,
                                   backend="hybrid", max_steps=6)))
        assert len(handles) >= 20
        fleet.process()
        results = [h.wait(300) for h in handles]

        # Every non-shed job completed, and exactly once: one terminal
        # journal record per job id, checked against the journal itself.
        assert all(r.status in ("succeeded", "shed") for r in results)
        assert sum(r.ok for r in results) >= 20
        terminal: dict[str, int] = {}
        for record in JobJournal(journal).replay():
            if record["type"] in ("complete", "fail", "shed", "cancel"):
                terminal[record["job_id"]] = (
                    terminal.get(record["job_id"], 0) + 1
                )
        assert set(terminal) == {h.job_id for h in handles}
        assert all(n == 1 for n in terminal.values())

        # The breaker opened under the sticky faults, degraded hybrid
        # work to cpu-fused instantly, and re-closed after a probe.
        moves = [(t.source, t.target)
                 for t in fleet.breakers.breaker("hybrid").transitions]
        assert ("closed", "open") in moves
        assert ("half-open", "closed") in moves
        assert any(e["event"] == "job_degraded" for e in fleet.events)
        assert any(r.degraded and r.backend == "cpu-fused" for r in results)
        # Timeout jobs recovered through deadline growth, not luck.
        assert any(r.ok and r.timeouts > 0 for r in results)

    def test_chaos_kill_mid_burst_recovers_bit_identically(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        f1 = SimulationFleet(FleetConfig(workers=0), journal_path=journal,
                             start=False)
        configs = [RunConfig(zones=4, t_final=0.02, max_steps=m)
                   for m in range(1, 11)]
        handles = [f1.submit("sedov", c) for c in configs]
        f1.process(4)
        f1.kill()
        done_digests = {h.spec.content_key(): h.result.state_sha256
                        for h in handles if h.done}
        assert len(done_digests) == 4

        f2 = SimulationFleet(FleetConfig(workers=0), journal_path=journal,
                             start=False)
        assert len(f2.recovered) == 6
        f2.process()
        assert all(h.result.ok for h in f2.recovered)
        assert f2.rollup()["jobs"]["completed"] == 6

        # A third fleet sees every computation as already done and
        # serves each bit-identically from the store without running.
        f3 = SimulationFleet(FleetConfig(workers=0), journal_path=journal,
                             start=False)
        assert len(f3.recovered) == 0
        for cfg in configs:
            h = f3.submit("sedov", cfg)
            assert h.done and h.result.cached
            key = h.spec.content_key()
            if key in done_digests:
                assert h.result.state_sha256 == done_digests[key]
