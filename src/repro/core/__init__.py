"""MRSch core: the paper's primary contribution.

An intelligent multi-resource scheduling agent built on Direct Future
Prediction (DFP, Dosovitskiy & Koltun 2017), adapted to HPC per §III:

``encoding``
    Vector state encoding — (R+2) elements per window job, 2 per
    resource unit (§III-A).
``goal``
    Dynamic resource prioritizing — the Eq. 1 goal vector (§III-B).
``measurements``
    The measurement vector (per-resource utilization, §III-A).
``dfp``
    The DFP network (three input modules, expectation + normalized
    action streams) and the replay-trained agent.
``cnn_state``
    The CNN state-module variant the paper ablates in Fig. 3.
``mrsch``
    :class:`MRSchScheduler` — the agent plugged into the shared
    window/reservation/backfill machinery.
``training``
    Episode runner and the §III-D three-phase curriculum.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.encoding": ["StateEncoder", "IncrementalStateEncoder"],
    "repro.core.goal": ["goal_vector"],
    "repro.core.measurements": ["measurement_vector"],
    "repro.core.dfp": ["DFPConfig", "DFPNetwork", "DFPAgent"],
    "repro.core.cnn_state": ["build_cnn_state_module"],
    "repro.core.mrsch": ["MRSchScheduler"],
    "repro.core.training": ["train_episodes", "curriculum_training", "TrainingResult"],
})
