"""Persistent warm worker pool: fork-once processes, pickle-free wake-ups.

`PersistentWorkerPool` is the process-lifecycle substrate under
`runtime.parallel.ZoneParallelExecutor`. The design goal is a dispatch
path whose steady-state cost is two tiny `write(2)`/`read(2)` syscalls
per worker and *zero Python-level allocation*:

- **Fork once.** Workers are forked at `start()`; everything big (the
  force engine, mesh, prepared zone subsets, shared-memory segments) is
  inherited copy-on-write. Nothing mesh-sized ever crosses a pipe.
- **Pickle-free command channel.** Each worker owns an `os.pipe`; the
  parent wakes it by writing one fixed 16-byte packet
  (`struct.Struct("<iid")` = opcode, slot, time) packed with
  `pack_into` into a preallocated per-worker buffer. No pickling, no
  queue locks, no allocation.
- **Byte-ack completion.** Workers share one done pipe and acknowledge
  with a single status byte (`wid` on success, `0x80 | wid` on
  failure). On failure the worker leaves a UTF-8 traceback summary in
  its slot of a shared error segment, which the parent raises from.
- **Bounded on worker death.** The parent holds the done pipe's write
  end, so a dead worker never closes it. `wait()` therefore polls the
  pipe with a timeout and, on every timeout, reaps the workers that
  have not acked with `waitpid(WNOHANG)`: a dead one raises
  `WorkerError` naming its wid, pid and signal, and so does every
  later `dispatch()`. A worker that hangs alive is not detected, and a
  dead one is not respawned.
- **Explicit lifecycle.** `start()` forks, `shutdown()` drains and
  reaps. Pools are reusable across many thousands of dispatches — the
  service warm pool keeps them alive across jobs — and `stats()`
  reports how well the fork cost amortized.

The pool is deliberately dumb about *work*: the only payload a command
carries is `(slot, t)`. The worker body is a callable the owner
provides at construction; it reads its real inputs from shared memory
mapped before the fork. That division is what keeps this layer generic
enough for any engine while keeping the hot path allocation-free.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import struct
from multiprocessing import shared_memory
from time import perf_counter
from typing import Callable

__all__ = ["PersistentWorkerPool", "WorkerError"]

#: Command packet: little-endian (opcode int32, slot int32, t float64).
_COMMAND = struct.Struct("<iid")

_OP_SHUTDOWN = 0
_OP_DISPATCH = 1

#: Bytes reserved per worker for an error report (length-prefixed UTF-8).
_ERRBUF = 4096

#: Ack byte flag marking a failed evaluation.
_ACK_FAIL = 0x80

#: How long `wait()` blocks on the done pipe between liveness checks.
_LIVENESS_MS = 100


class WorkerError(RuntimeError):
    """A worker's evaluation raised, or a worker died; carries the
    per-worker reports."""


class PersistentWorkerPool:
    """Fork-once worker processes woken by fixed-size command packets.

    Parameters
    ----------
    nworkers : number of child processes to fork at `start()`.
    worker_fn : called in the child as `worker_fn(wid, slot, t)` for
        every dispatch; its inputs/outputs live in shared memory mapped
        before the fork. Exceptions are caught, reported through the
        error segment, and re-raised in the parent as `WorkerError`.
    name : label used in error messages and `stats()`.
    """

    def __init__(self, nworkers: int, worker_fn: Callable[[int, int, float], None],
                 name: str = "pool"):
        if nworkers < 1:
            raise ValueError("need at least one worker")
        self.nworkers = int(nworkers)
        self.worker_fn = worker_fn
        self.name = name
        self._pids: list[int] = []
        self._cmd_w: list[int] = []  # parent->worker command write ends
        self._done_r: int = -1  # parent read end of the shared done pipe
        self._done_w: int = -1
        self._done_poll: select.poll | None = None
        #: wid -> how it died, for workers found dead; the pool is
        #: unusable once this is non-empty.
        self._dead: dict[int, str] = {}
        self._err_seg: shared_memory.SharedMemory | None = None
        self._started = False
        self._closed = False
        # Preallocated dispatch state: one packed command buffer per
        # worker plus a reusable ack scratch — steady-state dispatch
        # touches only these.
        self._cmd_buf = [bytearray(_COMMAND.size) for _ in range(self.nworkers)]
        self._ack_buf = bytearray(self.nworkers)
        self.dispatches = 0
        self._started_at = 0.0
        self._dispatch_s = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Fork the workers. Idempotent; cheap to call on a live pool."""
        if self._closed:
            raise RuntimeError(f"{self.name}: pool has been shut down")
        if self._started:
            return
        self._err_seg = shared_memory.SharedMemory(
            create=True, size=self.nworkers * _ERRBUF
        )
        done_r, done_w = os.pipe()
        self._done_r, self._done_w = done_r, done_w
        self._done_poll = select.poll()
        self._done_poll.register(done_r, select.POLLIN)
        for wid in range(self.nworkers):
            cmd_r, cmd_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child
                try:
                    os.close(cmd_w)
                    os.close(done_r)
                    self._child_loop(wid, cmd_r, done_w)
                finally:
                    # Never fall back into the parent's atexit machinery.
                    os._exit(0)
            os.close(cmd_r)
            self._cmd_w.append(cmd_w)
            self._pids.append(pid)
        self._started = True
        self._started_at = perf_counter()
        atexit.register(self.shutdown)

    def _child_loop(self, wid: int, cmd_r: int, done_w: int) -> None:
        """Child body: block on the command pipe, evaluate, ack one byte."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        unpack = _COMMAND.unpack
        want = _COMMAND.size
        buf = bytearray(want)
        view = memoryview(buf)
        err_view = memoryview(self._err_seg.buf)[wid * _ERRBUF:(wid + 1) * _ERRBUF]
        ok = bytes([wid])
        fail = bytes([_ACK_FAIL | wid])
        while True:
            got = 0
            while got < want:
                n = os.readv(cmd_r, [view[got:]])
                if n == 0:  # parent died without shutdown
                    return
                got += n
            opcode, slot, t = unpack(buf)
            if opcode == _OP_SHUTDOWN:
                os.write(done_w, ok)
                return
            try:
                self.worker_fn(wid, slot, t)
                os.write(done_w, ok)
            except Exception as exc:
                msg = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")[: _ERRBUF - 4]
                err_view[:4] = len(msg).to_bytes(4, "little")
                err_view[4:4 + len(msg)] = msg
                os.write(done_w, fail)

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, slot: int, t: float) -> None:
        """Wake every worker with (slot, t). Allocates nothing.

        Raises `WorkerError` if a worker is dead.
        """
        if not self._started or self._closed:
            raise RuntimeError(f"{self.name}: pool is not running")
        if self._dead:
            self._raise_dead()
        t0 = perf_counter()
        for wid in range(self.nworkers):
            buf = self._cmd_buf[wid]
            _COMMAND.pack_into(buf, 0, _OP_DISPATCH, slot, t)
            try:
                os.write(self._cmd_w[wid], buf)
            except BrokenPipeError:
                self._reap(wid, block=True)
                break
        if self._dead:
            self._raise_dead()
        self.dispatches += 1
        self._dispatch_s += perf_counter() - t0

    def wait(self) -> None:
        """Block until every worker acked the last dispatch.

        Raises `WorkerError` with each failed worker's report if any
        ack carries the failure flag, and with the wid, pid and signal
        of any worker that died before acking.
        """
        if self._dead:
            self._raise_dead()
        t0 = perf_counter()
        view = memoryview(self._ack_buf)
        got = 0
        while got < self.nworkers:
            if not self._done_poll.poll(_LIVENESS_MS):
                acked = self._ack_buf[:got]
                for wid in range(self.nworkers):
                    if wid not in acked and wid | _ACK_FAIL not in acked:
                        self._reap(wid)
                if self._dead:
                    self._raise_dead()
                continue
            n = os.readv(self._done_r, [view[got:]])
            if n == 0:
                raise WorkerError(f"{self.name}: done pipe closed unexpectedly")
            got += n
        self._dispatch_s += perf_counter() - t0
        failed = [b & ~_ACK_FAIL for b in self._ack_buf if b & _ACK_FAIL]
        if failed:
            raise WorkerError(
                f"{self.name}: worker failure: "
                + "; ".join(f"worker {w}: {self._read_error(w)}" for w in sorted(failed))
            )

    def _reap(self, wid: int, block: bool = False) -> None:
        """Record worker `wid` as dead if it has exited (`block`: wait
        for the exit, for a worker already known to be gone)."""
        if wid in self._dead:
            return
        pid = self._pids[wid]
        try:
            done, status = os.waitpid(pid, 0 if block else os.WNOHANG)
        except ChildProcessError:  # its status was collected elsewhere
            self._dead[wid] = f"worker {wid} (pid {pid}) exited"
            return
        if done == 0:
            return
        if os.WIFSIGNALED(status):
            how = f"killed by signal {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        self._dead[wid] = f"worker {wid} (pid {pid}) {how}"

    def _raise_dead(self) -> None:
        raise WorkerError(f"{self.name}: " + "; ".join(
            self._dead[w] for w in sorted(self._dead)))

    def _read_error(self, wid: int) -> str:
        view = memoryview(self._err_seg.buf)[wid * _ERRBUF:(wid + 1) * _ERRBUF]
        n = int.from_bytes(view[:4], "little")
        return bytes(view[4:4 + min(n, _ERRBUF - 4)]).decode("utf-8", "replace")

    # -- teardown -----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, reap them, release pipes and the error segment."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for wid, fd in enumerate(self._cmd_w):
                try:
                    _COMMAND.pack_into(self._cmd_buf[wid], 0, _OP_SHUTDOWN, 0, 0.0)
                    os.write(fd, self._cmd_buf[wid])
                except OSError:
                    pass
            for wid, pid in enumerate(self._pids):
                if wid in self._dead:  # already reaped
                    continue
                try:
                    _, status = os.waitpid(pid, 0)
                except ChildProcessError:
                    continue
                if os.waitstatus_to_exitcode(status) not in (0,):  # pragma: no cover
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            for fd in self._cmd_w + [self._done_r, self._done_w]:
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._cmd_w.clear()
            self._pids.clear()
            self._done_poll = None
        if self._err_seg is not None:
            try:
                self._err_seg.close()
                self._err_seg.unlink()
            except Exception:
                pass
            self._err_seg = None
        try:
            atexit.unregister(self.shutdown)
        except Exception:
            pass

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    @property
    def pids(self) -> tuple[int, ...]:
        """Child process ids while running (empty before start/after shutdown)."""
        return tuple(self._pids)

    def stats(self) -> dict:
        """Amortization report: how much the fork-once design paid off."""
        uptime = perf_counter() - self._started_at if self._started else 0.0
        return {
            "name": self.name,
            "workers": self.nworkers,
            "running": self.running,
            "dispatches": self.dispatches,
            "dispatch_s": self._dispatch_s,
            "dispatch_us_mean": (
                1e6 * self._dispatch_s / self.dispatches if self.dispatches else 0.0
            ),
            "uptime_s": uptime,
        }

    def __enter__(self) -> "PersistentWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
