import time

from layers import layer_sum_ms, solver_layers
from tracing import SolverCounters, SpanLog, patch


class Layer:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def test_self_times_add_up_to_the_root_span():
    log = SpanLog()
    inner = log.wrap("spmv", lambda: time.sleep(0.002))
    cg = log.wrap("cg", lambda: (inner(), inner(), time.sleep(0.001)))
    step = log.wrap("step", lambda: (cg(), time.sleep(0.001)))
    run = log.wrap("run", lambda: [step() for _ in range(3)])
    run()
    self_t = log.self_times()
    root = next(i for i, s in enumerate(log.spans) if s[0] == "run")
    total = log.spans[root][4] - log.spans[root][3]
    assert abs(sum(self_t) - total) < 1e-9
    metrics = solver_layers(log, 3, SolverCounters())
    assert abs(layer_sum_ms(metrics) - 1e3 * total / 3) < 1e-6
    assert metrics["spmv.calls_per_step"] == 2
    assert metrics["cg.ms_per_step"] > metrics["cg.self_ms_per_step"] > 0


def test_patch_undo_restores_instance_and_class_attributes():
    obj = Layer()
    undo = patch(obj, "work", lambda s: -1)
    assert obj.work(0) == -1
    undo()
    assert "work" not in vars(obj) and obj.work(0) == 0
    original = Layer.work
    undo = patch(Layer, "work", lambda self, s: -2)
    assert Layer().work(0) == -2
    undo()
    assert Layer.work is original


def test_op_ids_follow_the_thread_and_the_returned_operation():
    log = SpanLog()
    get = log.wrap("queue.get", lambda job: job, op_of=lambda job: job)
    put = log.wrap("results.put", lambda: None)
    log.set_op("job-1")
    get(None)   # a timed-out get serves no operation
    get("job-2")
    put()
    assert [(s[0], s[2]) for s in log.spans] == [
        ("queue.get", None), ("queue.get", "job-2"), ("results.put", "job-2")]
