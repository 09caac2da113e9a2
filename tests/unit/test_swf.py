"""Tests for SWF parsing/writing, including the multi-resource extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.job import Job
from repro.workload.swf import parse_swf, write_swf
from tests.conftest import make_job


def swf_line(
    job_id=1, submit=0, run=100, procs=4, req_procs=4, req_time=200, status=1, extra=()
):
    fields = ["-1"] * 18
    fields[0] = str(job_id)
    fields[1] = str(submit)
    fields[3] = str(run)
    fields[4] = str(procs)
    fields[7] = str(req_procs)
    fields[8] = str(req_time)
    fields[10] = str(status)
    return " ".join(fields + [str(e) for e in extra])


class TestParse:
    def test_basic_fields(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("; comment\n" + swf_line(job_id=3, submit=50, run=120, req_time=600) + "\n")
        jobs = parse_swf(path)
        assert len(jobs) == 1
        job = jobs[0]
        assert job.job_id == 3
        assert job.submit_time == 50.0
        assert job.runtime == 120.0
        assert job.walltime == 600.0
        assert job.request("node") == 4

    def test_skips_failed_jobs(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(swf_line(job_id=1, status=0) + "\n" + swf_line(job_id=2) + "\n")
        jobs = parse_swf(path)
        assert [j.job_id for j in jobs] == [2]
        assert len(parse_swf(path, include_failed=True)) == 2

    def test_skips_zero_runtime(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(swf_line(run=0) + "\n")
        assert parse_swf(path) == []

    def test_falls_back_to_used_procs(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(swf_line(procs=8, req_procs=-1) + "\n")
        assert parse_swf(path)[0].request("node") == 8

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_swf(path)

    def test_non_numeric_field_raises(self, tmp_path):
        path = tmp_path / "t.swf"
        bad = swf_line().split()
        bad[3] = "not-a-number"
        path.write_text(" ".join(bad) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_swf(path)

    def test_lenient_mode_skips_malformed(self, tmp_path):
        path = tmp_path / "t.swf"
        bad = swf_line(job_id=9).split()
        bad[3] = "garbage"
        path.write_text(
            "1 2 3\n" + swf_line(job_id=1) + "\n" + " ".join(bad) + "\n"
            + swf_line(job_id=2) + "\n"
        )
        jobs = parse_swf(path, strict=False)
        assert [j.job_id for j in jobs] == [1, 2]

    # Non-finite times must not become jobs: runtime inf gives an end
    # event that never comes, submit nan reads as 0.0 through
    # max(0.0, nan), and requested time nan a walltime no shadow fits.
    NON_FINITE = [dict(run="inf"), dict(submit="nan"), dict(req_time="nan")]

    @pytest.mark.parametrize("fields", NON_FINITE, ids=["run", "submit", "req_time"])
    def test_non_finite_time_raises_naming_the_line(self, tmp_path, fields):
        path = tmp_path / "t.swf"
        bad = swf_line(job_id=7, **fields)
        path.write_text(swf_line(job_id=1) + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"malformed SWF line: {bad!r}"):
            parse_swf(path)

    @pytest.mark.parametrize("fields", NON_FINITE, ids=["run", "submit", "req_time"])
    def test_lenient_mode_skips_non_finite_time(self, tmp_path, fields):
        path = tmp_path / "t.swf"
        path.write_text(
            swf_line(job_id=1) + "\n" + swf_line(job_id=7, **fields) + "\n"
            + swf_line(job_id=2) + "\n"
        )
        assert [j.job_id for j in parse_swf(path, strict=False)] == [1, 2]

    def test_extension_columns(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(
            "; X-Resource: burst_buffer\n" + swf_line(extra=(12,)) + "\n"
        )
        jobs = parse_swf(path)
        assert jobs[0].request("burst_buffer") == 12

    def test_max_jobs(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("\n".join(swf_line(job_id=i) for i in range(1, 11)) + "\n")
        assert len(parse_swf(path, max_jobs=3)) == 3

    def test_sorted_by_submit(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(
            swf_line(job_id=1, submit=500) + "\n" + swf_line(job_id=2, submit=100) + "\n"
        )
        jobs = parse_swf(path)
        assert [j.job_id for j in jobs] == [2, 1]


class TestRoundTrip:
    def test_write_then_parse(self, tmp_path):
        jobs = [
            make_job(job_id=1, submit=0, runtime=100, walltime=200, nodes=4, bb=2),
            make_job(job_id=2, submit=60, runtime=3000, walltime=3600, nodes=16, bb=0),
        ]
        path = tmp_path / "out.swf"
        write_swf(path, jobs, extra_resources=["burst_buffer"])
        parsed = parse_swf(path)
        assert len(parsed) == 2
        for orig, got in zip(jobs, parsed):
            assert got.job_id == orig.job_id
            assert got.submit_time == orig.submit_time
            assert got.runtime == orig.runtime
            assert got.walltime == orig.walltime
            assert got.request("node") == orig.request("node")
            assert got.request("burst_buffer") == orig.request("burst_buffer")

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),  # submit
                st.integers(1, 10**5),  # runtime
                st.integers(1, 4096),  # nodes
                st.integers(0, 1290),  # bb
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, rows):
        jobs = [
            Job(
                job_id=i + 1,
                submit_time=float(s),
                runtime=float(r),
                walltime=float(r * 2),
                requests={"node": n, "burst_buffer": b},
            )
            for i, (s, r, n, b) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("swf") / "p.swf"
        write_swf(path, jobs, extra_resources=["burst_buffer"])
        parsed = parse_swf(path)
        assert len(parsed) == len(jobs)
        by_id = {j.job_id: j for j in parsed}
        for job in jobs:
            got = by_id[job.job_id]
            assert got.runtime == job.runtime
            assert got.request("node") == job.request("node")
            assert got.request("burst_buffer") == job.request("burst_buffer")

    @settings(max_examples=30, deadline=None)
    @given(
        extras=st.lists(
            st.sampled_from(["burst_buffer", "power", "gpu", "licenses"]),
            min_size=0,
            max_size=3,
            unique=True,
        ),
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**6),   # submit
                st.integers(1, 10**5),   # runtime
                st.floats(1.0, 4.0),     # walltime multiplier
                st.integers(1, 4096),    # nodes
                st.lists(st.integers(0, 500), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=15,
        ),
    )
    def test_roundtrip_preserves_all_fields_property(
        self, tmp_path_factory, extras, rows
    ):
        """write_swf(parse_swf(x)) preserves every job field the format
        carries, including arbitrary `; X-Resource:` extension columns."""
        jobs = [
            Job(
                job_id=i + 1,
                submit_time=float(s),
                runtime=float(r),
                # walltime serialises at whole-second precision
                walltime=float(round(r * mult)),
                requests={"node": n, **dict(zip(extras, amounts))},
            )
            for i, (s, r, mult, n, amounts) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("swf") / "p.swf"
        write_swf(path, jobs, extra_resources=extras)

        header = [
            line for line in path.read_text().splitlines() if line.startswith(";")
        ]
        assert [h.split(":", 1)[1].strip() for h in header if "X-Resource" in h] == extras

        parsed = parse_swf(path)
        assert len(parsed) == len(jobs)
        # parse_swf sorts by (submit, job_id) — the simulator's intake order.
        assert [(j.submit_time, j.job_id) for j in parsed] == sorted(
            (j.submit_time, j.job_id) for j in jobs
        )
        by_id = {j.job_id: j for j in parsed}
        for job in jobs:
            got = by_id[job.job_id]
            assert got.submit_time == job.submit_time
            assert got.runtime == job.runtime
            assert got.walltime == job.walltime
            assert got.request("node") == job.request("node")
            for name in extras:
                assert got.request(name) == job.request(name)

    @settings(max_examples=20, deadline=None)
    @given(
        n_good=st.integers(1, 8),
        junk=st.lists(
            st.sampled_from(["1 2 3", "x y z", "-", "0"]), min_size=1, max_size=4
        ),
    )
    def test_lenient_parse_recovers_good_jobs_property(
        self, tmp_path_factory, n_good, junk
    ):
        """Interleaved malformed lines never corrupt neighbouring jobs."""
        good = [swf_line(job_id=i + 1, submit=i * 10) for i in range(n_good)]
        lines = []
        for i, g in enumerate(good):
            lines.append(g)
            lines.append(junk[i % len(junk)])
        path = tmp_path_factory.mktemp("swf") / "m.swf"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_swf(path)
        jobs = parse_swf(path, strict=False)
        assert [j.job_id for j in jobs] == list(range(1, n_good + 1))
