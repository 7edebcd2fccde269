"""Engine recovery paths: crashed supervised workers, interrupt
flushing, the CLI's clean SIGINT/SIGTERM exits, and resume-sweep."""

from __future__ import annotations

import os
import signal

import pytest

from repro.__main__ import main
from repro.harness import engine as engine_mod
from repro.harness import supervisor as supervisor_mod
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.journal import JobJournal, job_key
from repro.harness.supervisor import RetryPolicy

BUDGET = 2_000
WARMUP = 200


def _jobs(workloads=("art", "dot", "mcf")):
    return [
        make_job(w, max_instructions=BUDGET, warmup_instructions=WARMUP)
        for w in workloads
    ]


def _always_crash(send, jobs, *args):
    """Module-level (picklable) stand-in for the supervisor's
    ``_child_main`` that dies the way a segfaulting worker does."""
    os._exit(13)


class TestBrokenPool:
    """A worker of a plain ``--jobs N`` sweep dies: no chaos plan, so
    this is the production path, not the chaos harness."""

    def test_one_dying_worker_no_longer_loses_the_batch(
        self, tmp_path, monkeypatch
    ):
        """Regression: one worker calling ``os._exit`` must not lose the
        batch; the supervisor reclaims and retries only its job."""
        monkeypatch.setenv(
            supervisor_mod._ENV_CRASH_ONCE, str(tmp_path / "latch")
        )
        engine = ExperimentEngine(
            workers=2, cache=ResultCache(tmp_path / "cache")
        )
        outcomes = engine.run(_jobs())
        assert all(outcome.ok for outcome in outcomes)
        assert engine.stats.leases_reclaimed >= 1
        assert engine.stats.jobs_retried >= 1
        assert engine.stats.jobs_quarantined == 0

    def test_persistent_crasher_is_quarantined_not_looped(
        self, tmp_path, monkeypatch
    ):
        """A chain that crashes its worker on every attempt ends as
        poison records after ``max_attempts`` strikes, not a loop."""
        monkeypatch.setattr(supervisor_mod, "_child_main", _always_crash)
        engine = ExperimentEngine(
            workers=2, cache=ResultCache(tmp_path / "cache")
        )
        outcomes = engine.run(_jobs(("art", "dot")))
        assert all(not outcome.ok for outcome in outcomes)
        assert all(
            outcome.error["type"] == "PoisonJobError"
            and outcome.error["strikes"] == RetryPolicy().max_attempts
            for outcome in outcomes
        )
        assert engine.stats.jobs_quarantined == 2

    def test_journal_records_pool_reclaims(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            supervisor_mod._ENV_CRASH_ONCE, str(tmp_path / "latch")
        )
        journal = JobJournal(tmp_path / "j", fsync=False)
        engine = ExperimentEngine(
            workers=2, cache=ResultCache(tmp_path / "cache"),
            journal=journal,
        )
        jobs = _jobs()
        engine.run(jobs)
        state = journal.recover()
        assert state.unfinished() == []
        assert sum(r.strikes for r in state.jobs.values()) >= 1


class TestInterruptFlush:
    def test_interrupt_keeps_finished_work_durable(
        self, tmp_path, monkeypatch
    ):
        """A SIGINT mid-sweep: jobs that finished are already in the
        cache and journal; the journal records the interruption; a
        resumed run replays them instead of recomputing."""
        jobs = _jobs(("art", "dot"))
        real = engine_mod._execute_job

        def interrupt_on_dot(job, *args, **kwargs):
            if job.workload == "dot":
                raise KeyboardInterrupt
            return real(job, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "_execute_job", interrupt_on_dot)
        cache = ResultCache(tmp_path / "cache")
        journal = JobJournal(tmp_path / "j", fsync=False)
        engine = ExperimentEngine(cache=cache, journal=journal)
        with pytest.raises(KeyboardInterrupt):
            engine.run(jobs)

        state = journal.recover()
        assert state.interrupted
        done = [r for r in state.jobs.values() if r.state == "done"]
        assert len(done) == 1  # art finished before the interrupt

        monkeypatch.setattr(engine_mod, "_execute_job", real)
        resumed = ExperimentEngine(
            cache=cache, journal=JobJournal(tmp_path / "j", fsync=False)
        )
        outcomes = resumed.run(jobs)
        assert all(outcome.ok for outcome in outcomes)
        assert resumed.stats.jobs_cached == 1  # art replayed, not re-run


class TestSignalExits:
    def _fake_figure(self, exc):
        def figure(**kwargs):
            raise exc
        return figure

    def test_sigint_exits_130_without_traceback(
        self, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        monkeypatch.setitem(
            cli._FIGURES, "5", self._fake_figure(KeyboardInterrupt())
        )
        assert main(["figure", "5"]) == 130
        err = capsys.readouterr().err
        assert "interrupted (SIGINT)" in err
        assert "Traceback" not in err

    def test_sigterm_exits_143(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def figure(**kwargs):
            # Raise the real signal: the installed handler must convert
            # it into a clean exit, not a KeyboardInterrupt traceback.
            os.kill(os.getpid(), signal.SIGTERM)
            raise AssertionError("signal was not delivered")

        monkeypatch.setitem(cli._FIGURES, "5", figure)
        assert main(["figure", "5"]) == 143
        err = capsys.readouterr().err
        assert "interrupted (SIGTERM)" in err

    def test_handlers_are_restored_after_main(self):
        before = signal.getsignal(signal.SIGTERM)
        main(["list"])
        assert signal.getsignal(signal.SIGTERM) == before


class TestResumeSweepCLI:
    def test_resume_sweep_replays_interrupted_run(
        self, tmp_path, capsys, monkeypatch
    ):
        journal_dir = str(tmp_path / "journal")
        code = main([
            "figure", "5", "--workloads", "art,dot",
            "--instructions", str(BUDGET), "--warmup", str(WARMUP),
            "--journal-dir", journal_dir,
        ])
        assert code == 0
        capsys.readouterr()

        code = main(["resume-sweep", "--journal-dir", journal_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "replayed from cache" in captured.out
        assert "re-simulated" in captured.out
        assert "0 unfinished" in captured.err

    def test_resume_sweep_requires_journal_dir(self, capsys):
        assert main(["resume-sweep"]) == 2
        assert "requires --journal-dir" in capsys.readouterr().err

    def test_resume_sweep_with_empty_journal(self, tmp_path, capsys):
        assert main(
            ["resume-sweep", "--journal-dir", str(tmp_path / "nothing")]
        ) == 2
        assert "no recoverable journal" in capsys.readouterr().err

    def test_chaos_flag_round_trips_through_cli(self, tmp_path, capsys):
        # --no-cache keeps the jobs genuinely pending (a warm cache
        # would replay everything and give chaos nothing to disturb).
        code = main([
            "figure", "5", "--workloads", "art",
            "--instructions", str(BUDGET), "--warmup", str(WARMUP),
            "--jobs", "2", "--no-cache",
            "--journal-dir", str(tmp_path / "j"),
            "--chaos", "seed=7", "kill-rate=0.2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "chaos: kills=" in captured.err
        assert "reclaimed=" in captured.err


class TestHardenedStores:
    def test_disk_full_disables_cache_not_the_sweep(
        self, tmp_path, monkeypatch
    ):
        import errno

        cache = ResultCache(tmp_path / "cache")
        real_replace = os.replace

        def replace_enospc(src, dst):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "replace", replace_enospc)
        key = cache.key_for({"k": 1})
        assert cache.put(key, {"k": 1}, {"ipc": 1.0}, 0.1) is False
        assert cache.disabled
        monkeypatch.setattr(os, "replace", real_replace)
        # Still off for the rest of the run — degraded, not flapping.
        assert cache.put(key, {"k": 1}, {"ipc": 1.0}, 0.1) is False
        engine = ExperimentEngine(cache=cache)
        assert engine.run(_jobs(("art",)))[0].ok

    def test_checkpoint_quarantine_moves_corrupt_snapshot(self, tmp_path):
        from repro.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        prefix = store.prefix_key(_jobs(("art",))[0].spec())
        path = store.path_for(prefix, 1_000)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert store.best(prefix, 2_000) is None
        assert store.quarantined == 1
        assert not path.exists()
        moved = list((tmp_path / "quarantine").rglob("*.ckpt"))
        assert len(moved) == 1
