"""Concurrent ResultCache writers: atomic replace, no debris.

Two real processes ``put()`` the same key at the same instant (a
barrier lines them up).  The crash-safe write protocol — tmp file,
fsync, atomic ``os.replace`` — must leave exactly one valid committed
entry and zero ``*.tmp.*`` debris, whichever writer wins.  This is the
property concurrent ``repro report --jobs N`` processes lean on when
they share one ``.repro-cache/`` and race to fill the same cell.
"""

import multiprocessing
from pathlib import Path

from repro.harness.engine import ResultCache, RunOutcome

KEY = "ab" + "0" * 62


def outcome_for(writer_id: int) -> RunOutcome:
    return RunOutcome(config_name="T", kernel="streams.copy",
                      cycles=float(writer_id + 1), core_ghz=1.25)


def _writer(root: str, barrier, writer_id: int) -> None:
    cache = ResultCache(Path(root))
    barrier.wait(timeout=30)
    cache.put(KEY, outcome_for(writer_id))


class TestConcurrentWriters:
    def test_simultaneous_puts_leave_one_valid_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        procs = [ctx.Process(target=_writer,
                             args=(str(tmp_path), barrier, i))
                 for i in range(n)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0

        committed = list(tmp_path.rglob("*.pkl"))
        assert len(committed) == 1
        assert committed[0].name == f"{KEY}.pkl"
        assert list(tmp_path.rglob("*.tmp.*")) == []

        cache = ResultCache(tmp_path)
        value = cache.get(KEY)
        assert isinstance(value, RunOutcome)
        assert value.cycles in {float(i + 1) for i in range(n)}
        assert cache.corrupt == 0

    def test_interleaved_distinct_keys_all_commit(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        keys = [f"{i:02x}" + "f" * 62 for i in range(3)]

        def put_all(root, barrier, writer_id):
            cache = ResultCache(Path(root))
            barrier.wait(timeout=30)
            for key in keys:
                cache.put(key, outcome_for(writer_id))

        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=put_all,
                             args=(str(tmp_path), barrier, i))
                 for i in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        cache = ResultCache(tmp_path)
        for key in keys:
            assert isinstance(cache.get(key), RunOutcome)
        assert list(tmp_path.rglob("*.tmp.*")) == []
        assert cache.corrupt == 0
