"""Output-correctness gate, independent of the search.

Every check recomputes a result from what the program returned rather
than trusting the number it reported:

* a search run's MED is recomputed with :func:`repro.metrics.error.med`
  from the approximate table its returned settings evaluate to;
* a served artifact's configuration is reloaded with
  :func:`repro.core.serialize.loads` and its MED recomputed the same
  way; every response carrying a fingerprint must carry the same
  artifact bytes as the first response for it;
* a sample of served artifacts has its Verilog simulated with
  :func:`repro.hardware.verilog_sim.simulate_design_rtl` and compared,
  word for word, with the Python evaluation;
* on the default seed, MEDs must equal those recorded in
  ``expected_meds.json``.

Each ``check_*`` function returns a list of failures, empty when
correct: messages, or ``(key, message)`` pairs for the pinned-MED checks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_meds.json")

#: the seed whose MEDs are pinned in ``expected_meds.json``
DEFAULT_SEED = 0


def recomputed_med(target, approx_function) -> float:
    from repro.metrics import distributions, error

    return error.med(target, approx_function, distributions.uniform(target.n_inputs))


def check_run(result) -> List[str]:
    """A search run: the reported MED equals the recomputed one exactly."""
    med = recomputed_med(result.target, result.approx_function)
    if med != result.med:
        return [
            f"{result.target.name}/{result.algorithm}: reported MED "
            f"{result.med!r} != recomputed {med!r}"
        ]
    return []


def _artifact_target(artifact: Dict[str, Any]):
    from repro import compile_api

    target = artifact["target"]
    return compile_api.build_target(target["name"], bits=target["n_inputs"])


def reload_artifact(artifact: Dict[str, Any]):
    """The served configuration as an in-process ``ApproxLUT``."""
    from repro.core import serialize

    return serialize.loads(json.dumps(artifact["config"]), _artifact_target(artifact))


def check_artifact(artifact: Dict[str, Any]) -> List[str]:
    """A served artifact: config reloads and its MED matches exactly."""
    try:
        lut = reload_artifact(artifact)
    except (KeyError, ValueError) as exc:
        return [f"artifact {artifact.get('fingerprint')}: cannot reload: {exc}"]
    med = recomputed_med(lut.target, lut.approx_function)
    if med != artifact["med"]:
        return [
            f"artifact {artifact['fingerprint']}: reported MED "
            f"{artifact['med']!r} != recomputed {med!r}"
        ]
    return []


def check_verilog(artifact: Dict[str, Any]) -> List[str]:
    """Simulate the served Verilog over every input word."""
    from repro.hardware.verilog import emit_design
    from repro.hardware.verilog_sim import simulate_design_rtl

    lut = reload_artifact(artifact)
    design = lut.hardware()
    if emit_design(design) != artifact["verilog"]:
        return [f"artifact {artifact['fingerprint']}: Verilog does not match its config"]
    words = np.arange(1 << lut.target.n_inputs)
    simulated = simulate_design_rtl(design, words)
    expected = np.asarray(lut.evaluate(words), dtype=np.int64)
    mismatches = int(np.count_nonzero(simulated != expected))
    if mismatches:
        return [
            f"artifact {artifact['fingerprint']}: RTL simulation differs from "
            f"the Python evaluation on {mismatches} input word(s)"
        ]
    return []


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def check_expected(
    section: Dict[str, float], observed: Iterable[tuple], label: str
) -> List[tuple]:
    """Observed ``(key, med)`` pairs against the pinned values.

    Returns ``(key, message)`` per mismatch.  Keys absent from
    ``section`` are skipped (a closed loop sends a different number of
    requests each run); every pinned key that was observed must match
    exactly.
    """
    return [
        (key, f"{label} {key}: MED {med!r} != expected {section[key]!r}")
        for key, med in observed
        if key in section and section[key] != med
    ]


def table2_keys(rows: Sequence[tuple]) -> List[tuple]:
    """``(benchmark/algorithm/index, med)`` pairs of one campaign."""
    pairs = []
    for benchmark, algorithm, runs in rows:
        for index, result in enumerate(runs):
            pairs.append((f"{benchmark}/{algorithm}/{index}", result.med))
    return pairs


def check_expected_table2(
    scale: str, seed: int, rows: Sequence[tuple], expected: Optional[Dict] = None
) -> List[tuple]:
    """Pinned campaign MEDs; every run of the default seed must be pinned."""
    if seed != DEFAULT_SEED:
        return []
    expected = load_expected() if expected is None else expected
    label = f"table2/{scale}"
    section = expected.get(label, {})
    observed = table2_keys(rows)
    missing = [
        (key, f"{label} {key}: no expected MED") for key, _ in observed if key not in section
    ]
    return missing + check_expected(section, observed, label)


def check_expected_serve(
    scale: str, seed: int, artifacts: Dict[str, Dict], expected: Optional[Dict] = None
) -> List[tuple]:
    """Pinned served MEDs by fingerprint; at least one must be observed."""
    if seed != DEFAULT_SEED:
        return []
    expected = load_expected() if expected is None else expected
    label = f"serve/{scale}"
    section = expected.get(label, {})
    if not any(fingerprint in section for fingerprint in artifacts):
        return [(None, f"{label}: no served fingerprint has a pinned MED")]
    observed = [(fp, artifact["med"]) for fp, artifact in artifacts.items()]
    return check_expected(section, observed, label)
