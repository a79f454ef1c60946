"""Output oracles: nothing is counted as done unless its answer is right.

* Corpus runs are checked against :data:`DIGESTS_PATH`, one digest per
  (app, mode) taken under the ``interp`` tier, the independent reference
  interpreter (``make_digests.py`` rebuilds the file).  A digest pins the
  run's stdout, exit code, ``sim_time``, time breakdown, API-call count,
  kernel launches and transfer counters, floats bit for bit.
* Translations are checked against the committed goldens in
  ``tests/translate/golden/`` (read only).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
GOLDEN_DIR = HERE.parent / "tests" / "translate" / "golden"

#: the four execution modes of the paper's evaluation (§6), in the order
#: every report lists them
MODES = ("ocl-native", "ocl2cuda", "cuda-native", "cuda2ocl")

#: RunResult fields a digest pins besides stdout and the breakdown
_COUNTERS = ("exit_code", "ok", "sim_time", "api_calls", "kernel_launches",
             "transfer_ops", "transfer_bytes")


# ---------------------------------------------------------------------------
# corpus: (app, mode) pairs and their reference digests
# ---------------------------------------------------------------------------

def corpus_pairs(apps: Sequence[Any]) -> List[Tuple[Any, str]]:
    """Every runnable (app, mode) pair, in corpus order."""
    pairs = []
    for app in apps:
        if app.has_opencl:
            pairs += [(app, "ocl-native"), (app, "ocl2cuda")]
        if app.has_cuda and app.cuda_runs_natively:
            pairs.append((app, "cuda-native"))
            if app.cuda_translatable:
                pairs.append((app, "cuda2ocl"))
    return pairs


def pair_key(app: Any, mode: str) -> str:
    return f"{app.suite}/{app.name}:{mode}"


def run_pair(runner: Any, app: Any, mode: str, tier: str) -> Any:
    """One full app run on ``titan``; translated modes pay for their own
    translation (``cache=None``), as a one-shot user does."""
    if mode == "ocl-native":
        return runner.run_opencl_app(app.name, app.opencl_host,
                                     app.opencl_kernels, exec_tier=tier)
    if mode == "ocl2cuda":
        return runner.run_opencl_translated(app.name, app.opencl_host,
                                            app.opencl_kernels, cache=None,
                                            exec_tier=tier)
    if mode == "cuda-native":
        return runner.run_cuda_app(app.name, app.cuda_source, exec_tier=tier)
    if mode == "cuda2ocl":
        return runner.run_cuda_translated(app.name, app.cuda_source,
                                          cache=None, exec_tier=tier)
    raise ValueError(f"unknown mode {mode!r}")


def digest(result: Any) -> Dict[str, Any]:
    """The observable outcome of one run, as a JSON-safe dict (floats keep
    every bit: ``json`` writes the shortest repr that round-trips)."""
    out = {f: getattr(result, f) for f in _COUNTERS}
    out["stdout_sha256"] = hashlib.sha256(
        result.stdout.encode("utf-8")).hexdigest()
    out["breakdown"] = dict(sorted(result.breakdown.items()))
    return out


def digest_mismatch(result: Any, ref: Optional[Dict[str, Any]]) -> str:
    """'' when ``result`` matches its reference digest, else the first
    field that differs."""
    if ref is None:
        return "no reference digest"
    got = digest(result)
    for field in sorted(set(got) | set(ref)):
        if got.get(field) != ref.get(field):
            return f"{field}: got {got.get(field)!r}, want {ref.get(field)!r}"
    return ""


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, Any]]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["runs"]


def modeled_sums(breakdowns: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-category sums of modeled time, added in one fixed order (the
    order of ``breakdowns``, categories sorted) so equal inputs give
    bit-identical sums."""
    sums: Dict[str, float] = {}
    for bd in breakdowns:
        for cat in sorted(bd):
            sums[cat] = sums.get(cat, 0.0) + bd[cat]
    return dict(sorted(sums.items()))


# ---------------------------------------------------------------------------
# translations: committed goldens
# ---------------------------------------------------------------------------

def load_goldens(golden_dir: Path = GOLDEN_DIR
                 ) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """``(suite/name, direction) -> (host_source, device_source)``."""
    out: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for path in sorted(golden_dir.glob("*.json")):
        suite, direction = path.stem.split("_", 1)
        panel = json.loads(path.read_text(encoding="utf-8"))
        for name, parts in panel.items():
            out[(f"{suite}/{name}", direction)] = (parts["host_source"],
                                                  parts["device_source"])
    return out


def golden_mismatch(name: str, direction: str, result: Any,
                    goldens: Dict[Tuple[str, str], Tuple[str, str]]) -> str:
    """'' when a translation equals its golden, else what differs."""
    from repro.pipeline.cache import result_sources
    want = goldens.get((name, direction))
    if want is None:
        return "no golden translation"
    got = result_sources(result)
    for part, g, w in zip(("host_source", "device_source"), got, want):
        if g != w:
            return f"{part} deviates from golden"
    return ""
