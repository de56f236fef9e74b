"""The exact-result gate: digests of every simulated record, per seed.

A speed-only change to the simulator may not change a single simulated
number.  :func:`digest` hashes a record's canonical JSON (sorted keys,
``repr``-exact floats), and ``reference.json`` holds the digest of every
trial of every workload for each recorded workload seed.  A trial whose
digest differs, or that is missing, fails.

Re-record (only when a change is meant to alter simulated results)::

    python3 perfbench/run.py --record-reference
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Workload seeds with a recorded reference.  ``--seed n`` runs workload
#: seed ``1 + n % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 16


def workload_seed(seed: int) -> int:
    return 1 + seed % REFERENCE_SEEDS


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(records: Sequence[Tuple[str, dict]]) -> Dict[str, str]:
    return {key: digest(record) for key, record in records}


def load(path: Path, workload: str, seed: int) -> Dict[str, str]:
    """The recorded digests of one workload at one workload seed."""
    data = json.loads(Path(path).read_text())
    try:
        return data["workloads"][workload][str(seed)]
    except KeyError:
        raise KeyError(
            f"{path} has no reference for workload {workload!r} at "
            f"workload seed {seed}"
        ) from None


def mismatches(records: Sequence[Tuple[str, dict]],
               reference: Dict[str, str]) -> List[str]:
    """Trial keys whose record differs from, or is missing in, the reference.

    A reference trial the run did not produce is reported too, so a run
    that silently drops a trial fails.
    """
    produced = digests(records)
    bad = [key for key, value in produced.items()
           if reference.get(key) != value]
    bad += [key for key in reference if key not in produced]
    return bad
