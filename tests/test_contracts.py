"""The determinism contracts no lint rule can see, checked at run time.

A compile's bytes must depend only on its job, and a content address only
on its payload.  The lint holds the rest of each contract over the whole
tree — no function writes a global (``DET-GLOBAL-WRITE``), no wall clock
or unordered iteration (``DET-WALL-CLOCK``, ``DET-SET-ITER``, ...) — but it cannot see file, process or socket I/O, or
a callee mutating its caller's argument.  So a child interpreter runs the
compile and fingerprint paths once to import everything they need, installs
an audit hook (in a child, because a hook cannot be removed) and runs them
again: no I/O event may fire, a second run must give the same answers, and
the fingerprinted payload must equal a copy taken before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

CHILD = r"""
import copy
import json
import sys

from repro.pipeline.compile import (
    CompileFailure,
    CompileJob,
    _job_outcome_pooled,
    compile_job,
    compile_job_stats,
)
from repro.util.fingerprint import canonical_fingerprint

JOBS = (  # multi-page winners: a flat 4x4 and a hier heterogeneous 8x8
    CompileJob("laplace", 4, 2),
    CompileJob("laplace", 8, 4, arch="8x8-memcols", backend="hier"),
)
PAYLOAD = {
    "kernel": "sor",
    "pages": [[0, 1], [2, 3]],
    "shape": (2, 2),
    "meta": {"seed": 0, "tags": ["b", "a"], "nested": {"ii": 3, "wrap": None}},
}
BANNED = {"open", "os.listdir", "os.scandir", "os.remove", "os.rename", "os.mkdir"}
PREFIXES = ("shutil.", "subprocess.", "socket.")


def run():
    answers = []
    for job in JOBS:
        answers.append(compile_job(job)[0])
        answers.append(compile_job_stats(job)[0])
        outcome = _job_outcome_pooled(job)
        assert not isinstance(outcome, CompileFailure), outcome
        answers.append(outcome[0])
    answers.append(canonical_fingerprint(PAYLOAD))
    return answers


before = copy.deepcopy(PAYLOAD)
warm = run()
events = []


def hook(event, args):
    if event in BANNED or event.startswith(PREFIXES):
        events.append(f"{event} {args!r:.200}")


sys.addaudithook(hook)
hooked = run()
json.dump(
    {"events": events, "same": hooked == warm, "payload_intact": PAYLOAD == before},
    sys.stdout,
)
"""


def test_compile_and_fingerprint_do_no_io_and_mutate_no_argument():
    src = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["events"] == []
    assert result["same"]
    assert result["payload_intact"]
