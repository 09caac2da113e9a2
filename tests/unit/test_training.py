"""Tests for the episode runner and curriculum training (§III-D)."""

import pytest

from repro.core.training import TrainingResult, curriculum_training, train_episodes
from repro.sched.fcfs import FCFSScheduler
from repro.sched.scalar_rl import ScalarRLScheduler
from tests.conftest import make_job
from tests.unit.test_mrsch import small_mrsch


def jobset(n=8, seed_offset=0):
    return [
        make_job(job_id=i + 1, submit=i * 30.0 + seed_offset,
                 runtime=100.0 + 10 * i, nodes=1 + (i % 3), bb=i % 2)
        for i in range(n)
    ]


class TestTrainEpisodes:
    def test_untrainable_scheduler_rejected(self, tiny_system):
        with pytest.raises(TypeError, match="not trainable"):
            train_episodes(FCFSScheduler(), [jobset()], tiny_system)

    def test_losses_recorded_per_episode(self, tiny_system):
        sched = small_mrsch(tiny_system)
        result = train_episodes(sched, [jobset(), jobset(6)], tiny_system)
        assert result.episodes == 2
        assert result.phases == ["train", "train"]
        assert len(result.epsilons) == 2

    def test_training_flag_restored(self, tiny_system):
        sched = small_mrsch(tiny_system)
        train_episodes(sched, [jobset()], tiny_system)
        assert sched.training is False

    def test_training_flag_restored_on_error(self, tiny_system):
        sched = small_mrsch(tiny_system)
        bad = [make_job(job_id=1, nodes=999)]  # exceeds capacity
        with pytest.raises(ValueError):
            train_episodes(sched, [bad], tiny_system)
        assert sched.training is False

    def test_appends_to_existing_result(self, tiny_system):
        sched = small_mrsch(tiny_system)
        result = train_episodes(sched, [jobset()], tiny_system, phase="a")
        result = train_episodes(sched, [jobset()], tiny_system, phase="b", result=result)
        assert result.phases == ["a", "b"]

    def test_works_for_scalar_rl(self, tiny_system):
        sched = ScalarRLScheduler(tiny_system, window_size=4, seed=0)
        result = train_episodes(sched, [jobset()], tiny_system)
        assert result.episodes == 1


class TestCurriculum:
    def test_order_must_permute_phases(self, tiny_system):
        sched = small_mrsch(tiny_system)
        curriculum = {"sampled": [jobset()], "real": [jobset()], "synthetic": [jobset()]}
        with pytest.raises(ValueError):
            curriculum_training(sched, curriculum, tiny_system, order=("sampled", "real"))

    def test_phases_run_in_order(self, tiny_system):
        sched = small_mrsch(tiny_system)
        curriculum = {
            "sampled": [jobset(5)],
            "real": [jobset(5), jobset(5)],
            "synthetic": [jobset(5)],
        }
        result = curriculum_training(
            sched, curriculum, tiny_system, order=("synthetic", "sampled", "real")
        )
        assert result.phases == ["synthetic", "sampled", "real", "real"]


class TestTrainingResult:
    def test_final_loss_tail(self):
        r = TrainingResult(losses=[5.0, 4.0, 1.0, 1.0], phases=[], epsilons=[])
        assert r.final_loss(tail=2) == pytest.approx(1.0)

    def test_final_loss_empty(self):
        assert TrainingResult().final_loss() == 0.0

    @pytest.mark.parametrize("tail", [0, -1])
    def test_final_loss_rejects_empty_tail(self, tail):
        """``losses[-0:]`` is the whole list: a tail of 0 would average
        everything."""
        with pytest.raises(ValueError):
            TrainingResult(losses=[10.0, 1.0, 1.0]).final_loss(tail)
