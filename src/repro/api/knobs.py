"""One declaration per knob: the kind and range of every scalar that
shapes a study, read by the scenario, ``ExperimentConfig`` and the queue
commands' flags.

A row of :data:`KNOBS` is ``(sections, key, kind, domain[, size])``:

* ``sections`` — where the key is accepted: the scenario's top level
  (``scenario``), its ``system`` / ``config`` / ``execution`` sections,
  the ``ExperimentConfig`` fields, or the numeric flags of a CLI command
  in :data:`FLAG_SECTIONS` (keyed by argparse dest). A trailing ``?``
  lets ``None`` stand for "not given" in that section.
* ``kind`` — ``int`` (an int, not a bool), ``num`` (a finite int or
  float, not a bool), ``bool``, ``str``, ``map`` (a mapping), ``ints``
  (a list or tuple of such ints), or ``None`` for a key whose value
  another check owns (a registry lookup, a nested config that validates
  itself).
* ``domain`` — ``positive``, ``non-negative`` (for ``ints``: of every
  item), ``non-empty``, or a tuple of the accepted values; ``size`` fixes
  a list's length.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import inf

__all__ = ["FLAG_SECTIONS", "KNOBS", "check_knobs", "knob_keys"]

KNOBS = (
    ("scenario", "name", "str", None),
    ("scenario", "description", "str", None),
    ("scenario", "methods", None, None),
    ("scenario", "schedulers", None, None),  # alias of methods
    ("scenario", "workloads", None, None),
    # NumPy's generators take non-negative seeds only
    ("scenario ExperimentConfig", "seed", "int", "non-negative"),
    ("scenario?", "seeds", "ints", "non-negative"),
    ("scenario", "replications", "int", "positive"),
    ("scenario", "train", "bool", None),
    ("scenario?", "case_study", "bool", None),
    ("scenario", "system", "map", None),
    ("scenario", "goal", "map", None),
    ("scenario", "options", "map", None),
    ("scenario", "config", "map", None),
    ("scenario", "execution", "map", None),
    ("system", "name", None, None),
    ("system? ExperimentConfig", "nodes", "int", "positive"),
    ("system? ExperimentConfig", "bb_units", "int", "positive"),
    ("config ExperimentConfig", "n_jobs", "int", "positive"),
    ("config ExperimentConfig", "window_size", "int", "positive"),
    ("config ExperimentConfig", "jobs_per_trainset", "int", "positive"),
    # §III-D curriculum: sampled / real / synthetic jobset counts
    ("config ExperimentConfig", "curriculum_sets", "ints", "non-negative", 3),
    ("config ExperimentConfig", "mean_interarrival", "num", "positive"),
    ("config", "ga", "map", None),
    ("ExperimentConfig", "ga_config", None, None),
    ("ExperimentConfig", "system_name", "str", "non-empty"),
    ("execution?", "queue_dir", "str", "non-empty"),
    ("execution?", "workers", "int", "positive"),
    ("execution? work?", "lease_ttl", "num", "positive"),
    ("execution?", "cell_timeout_s", "num", "positive"),
    ("execution", "supervise", "bool", None),
    ("work?", "poll", "num", "positive"),
    ("work?", "cell_timeout", "num", "non-negative"),  # 0: no watchdog
    ("work?", "max_cells", "int", "positive"),
    ("work?", "supervise", "int", "positive"),
    ("work?", "max_crashes", "int", "positive"),
    ("work?", "backoff", "num", "positive"),
    ("doctor", "stale_after", "num", "non-negative"),
    ("queue-status?", "watch", "num", "positive"),
)

#: the sections that are CLI commands: their rows are argparse dests,
#: checked before the command opens a queue, and named in errors as flags
FLAG_SECTIONS = ("work", "doctor", "queue-status")


def _by_section() -> dict[str, dict[str, tuple]]:
    """section -> key -> (nullable, kind, domain, size)."""
    rules: dict[str, dict[str, tuple]] = {}
    for sections, key, *rule in KNOBS:
        for section in sections.split():
            rules.setdefault(section.rstrip("?"), {})[key] = (
                section.endswith("?"), *rule, None
            )[:4]
    return rules


_RULES = _by_section()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    "int": _is_int,
    "num": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and -inf < v < inf,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "map": lambda v: isinstance(v, Mapping),
    "ints": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
}
_DOMAINS = {
    None: lambda v: True,
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "non-empty": lambda v: len(v) > 0,
}
_NOUNS = {"int": "int", "bool": "bool", "str": "string", "map": "mapping"}


def _fits(kind: str, domain, size, value) -> bool:
    if not _KINDS[kind](value):
        return False
    if isinstance(domain, tuple):
        return value in domain
    items = value if kind == "ints" else (value,)
    return all(map(_DOMAINS[domain], items)) and (size is None or len(value) == size)


def _phrase(kind: str, domain, size) -> str:
    if isinstance(domain, tuple):
        return " or ".join(map(repr, domain))
    if kind == "num":
        return f"{domain} (a finite number)"
    if kind == "ints":
        return " ".join(w for w in (str(size) if size else "a list of", domain, "ints") if w)
    words = " ".join(w for w in (domain, _NOUNS[kind]) if w)
    return ("an " if words[0] in "aeiou" else "a ") + words


def knob_keys(section: str) -> tuple[str, ...]:
    """Every key ``section`` accepts, in table order."""
    return tuple(_RULES[section])


def check_knobs(section: str, values: Mapping) -> None:
    """Raise :class:`ValueError` naming the first key of ``values`` that
    ``section`` does not accept or whose value breaks its row."""
    rules = _RULES[section]
    unknown = set(values) - rules.keys()
    if unknown:
        raise ValueError(
            f"unknown {section} field(s) {sorted(unknown)}; allowed: {sorted(rules)}"
        )
    for key, value in values.items():
        nullable, kind, domain, size = rules[key]
        if kind is None or (value is None and nullable) or _fits(kind, domain, size, value):
            continue
        where = f"--{key.replace('_', '-')}" if section in FLAG_SECTIONS else f"{section}.{key}"
        raise ValueError(f"{where} must be {_phrase(kind, domain, size)}, got {value!r}")
