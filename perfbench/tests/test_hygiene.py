import os
import subprocess
import sys
import time
from pathlib import Path

import hygiene

#: A workload stand-in that starts a process and exits without stopping it.
PLANT = ("import subprocess; "
         "print(subprocess.Popen(['sleep', '60'], stdout=subprocess.DEVNULL).pid)")


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def test_catches_and_stops_a_planted_child_process(tmp_path):
    shm_before = hygiene.shm_entries()
    proc = subprocess.Popen([sys.executable, "-c", PLANT], start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    planted = int(proc.communicate(timeout=30)[0])
    found = hygiene.leftovers(proc.pid, shm_before, tmp_path)
    try:
        assert found["pids"] == [planted]
    finally:
        hygiene.clean(found)
    deadline = time.monotonic() + 5
    while _running(planted) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(planted)


def test_removes_its_own_segments_and_temp_files_but_not_others(tmp_path):
    before = hygiene.shm_entries()
    own = hygiene.SHM / f"perfbench-test-own-{os.getpid()}"
    other = hygiene.SHM / f"perfbench-test-other-{os.getpid()}"
    own.write_bytes(b"x")
    other.write_bytes(b"x")
    (tmp_path / "left.txt").write_text("x")
    try:
        found = hygiene.leftovers(-1, before, tmp_path, {own.name})
        assert found["shm"] == [str(own)]
        assert found["foreign_shm"] == [str(other)]
        assert found["paths"] == [str(tmp_path / "left.txt")]
        hygiene.clean(found)
        assert not own.exists() and not any(tmp_path.iterdir())
        assert other.exists()
    finally:
        own.unlink(missing_ok=True)
        other.unlink(missing_ok=True)


def test_workload_logs_the_segments_it_creates(tmp_path):
    from multiprocessing import shared_memory

    import measure

    log = tmp_path / "shm.log"
    undo = measure.log_shared_memory(str(log))
    try:
        seg = shared_memory.SharedMemory(create=True, size=64)
        attached = shared_memory.SharedMemory(name=seg.name)
    finally:
        undo()
    try:
        assert log.read_text().split() == [seg.name]
    finally:
        attached.close()
        seg.close()
        seg.unlink()
