import trace as layer_trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_times_partition_a_nested_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layer_trace, "perf_counter", clock)
    tracer = layer_trace.Tracer()

    def leaf():
        clock.spend(1.0)

    leaf = tracer.wrap("leaf", leaf, sample=True)

    def middle():
        clock.spend(3.0)
        leaf()

    middle = tracer.wrap("middle", middle)

    def root():
        clock.spend(4.0)
        middle()
        clock.spend(6.0)
        middle()
        leaf()

    tracer.run_id = 1
    tracer.wrap("run", root, coarse=True)()

    assert tracer.calls("run") == 1 and tracer.calls("middle") == 2 and tracer.calls("leaf") == 3
    assert tracer.total_s("run") == 19.0
    assert tracer.total_s("middle") == 8.0
    assert tracer.self_s("run") == 10.0  # 19 - two middles (4 each) - one direct leaf
    assert tracer.self_s("middle") == 6.0
    assert tracer.self_s("leaf") == 3.0
    # every traced second belongs to exactly one name
    assert tracer.self_s("run", "middle", "leaf") == tracer.total_s("run")
    assert tracer.samples["leaf"].values == [1.0, 1.0, 1.0]
    assert tracer.spans == [
        {"name": "run", "run": 1, "parent": None, "start": 0.0, "end": 19.0}
    ]
    metrics = layer_trace.layer_metrics(tracer, 1)
    assert metrics["trace.unattributed_share"] == 10.0 / 19.0


def test_coarse_spans_record_their_parent(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layer_trace, "perf_counter", clock)
    tracer = layer_trace.Tracer()
    inner = tracer.wrap("cell", lambda: clock.spend(2.0), coarse=True)
    tracer.wrap("run", lambda: (inner(), inner()), coarse=True)()
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("run", None), ("cell", 0), ("cell", 0),
    ]
    assert tracer.self_s("run") == 0.0


def test_an_exception_still_closes_the_frame(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layer_trace, "perf_counter", clock)
    tracer = layer_trace.Tracer()

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    boom = tracer.wrap("boom", boom)

    def root():
        try:
            boom()
        except ValueError:
            clock.spend(1.0)

    tracer.wrap("run", root)()
    assert tracer.self_s("boom") == 1.0 and tracer.self_s("run") == 1.0


def test_percentile_needs_ten_samples_beyond_it():
    sample = layer_trace.DurationSample()
    for i in range(999):
        sample.add(float(i))
    assert sample.percentile(99) == 0.0  # 9.99 samples beyond p99
    assert sample.percentile(50) > 0.0
    sample.add(999.0)
    assert 985.0 < sample.percentile(99) < 995.0


def test_duration_sample_stays_bounded_and_spread_out():
    sample = layer_trace.DurationSample()
    for i in range(10 * layer_trace.SAMPLE_CAP):
        sample.add(float(i))
    assert len(sample.values) < layer_trace.SAMPLE_CAP
    assert sample.seen == 10 * layer_trace.SAMPLE_CAP
    assert sample.values[0] == 0.0 and sample.values[-1] > 9 * layer_trace.SAMPLE_CAP


def test_wrappers_are_fully_removed():
    from repro.cluster.resources import ResourcePool
    from repro.experiments import harness
    from repro.sim.simulator import Simulator

    originals = (
        vars(Simulator)["run"], vars(ResourcePool)["can_fit"], harness.build_workload
    )
    undo = layer_trace.install(layer_trace.Tracer())
    assert vars(Simulator)["run"] is not originals[0]
    assert harness.build_workload is not originals[2]
    layer_trace.uninstall(undo)
    assert vars(Simulator)["run"] is originals[0]
    assert vars(ResourcePool)["can_fit"] is originals[1]
    assert harness.build_workload is originals[2]


def test_traced_run_counts_layers_and_leaves_results_alone():
    import repro.api as api

    import check
    from workloads import WORKLOADS

    scenario = {**WORKLOADS["cold_cli"].scenario_for(5)}
    plain = api.run_scenario(scenario, progress=False).results
    tracer = layer_trace.Tracer()
    problems = []
    undo = layer_trace.install(
        tracer, lambda jobs, result: problems.extend(check.simulation_problems(jobs, result))
    )
    try:
        tracer.run_id = 1
        traced = tracer.wrap(
            "run", lambda: api.run_scenario(scenario, progress=False).results, coarse=True
        )()
    finally:
        layer_trace.uninstall(undo)
    assert problems == []
    assert check.result_digest(traced) == check.result_digest(plain)
    metrics = layer_trace.layer_metrics(tracer, 1)
    assert metrics["exp.cells"] == 2
    assert metrics["sim.run_calls"] == 4  # two methods x S1, S3
    assert metrics["sim.jobs"] == 160
    assert metrics["core.train_batches"] == 0
    assert metrics["nn.forward_calls"] == metrics["core.score_calls"] > 0
    names = {stat for stat, (calls, _, _) in tracer.stats.items() if calls}
    total = tracer.self_s(*names)
    assert abs(total - tracer.total_s("run")) < 1e-6 * total
    assert metrics["trace.unattributed_share"] < 0.10
