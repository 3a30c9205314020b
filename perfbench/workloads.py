"""The benchmark's workloads: the passes each runs and its seeded inputs.

Shared by the harness (``run.py``), the per-iteration script
(``iteration.py``) and the reference script (``reference.py``). It
imports nothing from the program, so the harness stays independent of
the code it measures.
"""

from __future__ import annotations

import random

#: The interpreters one iteration of each workload runs, in order; each
#: is fresh. README.md records why each workload exists.
PASSES = {
    "corpus": ("campaign",),
    "store": ("cold", "warm"),
    "service": ("service",),
    "ptrace": ("campaign",),
}

#: Service load: every iteration submits each cloud app this many times.
SERVICE_PASSES = 4
SERVICE_CLIENTS = 2

#: Coreutils commands whose required-syscall set repeats run to run.
#: ``{dir}`` is a directory the iteration fills with fixed content.
#: (``sort`` is left out: its temp files change its set between runs.)
PTRACE_COMMANDS = {
    "true": ("/bin/true",),
    "echo": ("/bin/echo", "loupe"),
    "cat": ("/bin/cat", "{dir}/input.txt"),
    "ls": ("/bin/ls", "{dir}"),
    "date": ("/bin/date", "-u"),
}
PTRACE_INPUT = "one line of fixed input\n"


def ptrace_argv(label: str, directory: str) -> tuple[str, ...]:
    return tuple(arg.format(dir=directory) for arg in PTRACE_COMMANDS[label])


def generate(name: str, seed: int, reference: dict) -> dict:
    """The inputs of one run: the seed orders the apps (and, for the
    service, assigns the jobs to its client threads)."""
    rng = random.Random(seed)
    if name in ("corpus", "store"):
        apps = sorted(reference["apps"])
        rng.shuffle(apps)
        return {"apps": apps}
    if name == "service":
        jobs = sorted(reference["cloud"]) * SERVICE_PASSES
        rng.shuffle(jobs)
        owners = [index % SERVICE_CLIENTS for index in range(len(jobs))]
        rng.shuffle(owners)
        return {
            "clients": [
                [app for app, owner in zip(jobs, owners) if owner == client]
                for client in range(SERVICE_CLIENTS)
            ]
        }
    labels = sorted(PTRACE_COMMANDS)
    rng.shuffle(labels)
    return {"binaries": labels}


def attempts(name: str, inputs: dict) -> int:
    """Checked outcomes one iteration produces: analyses, jobs, and the
    corpus workload's support plan."""
    if name == "corpus":
        return len(inputs["apps"]) + 1
    if name == "store":
        return 2 * len(inputs["apps"])
    if name == "service":
        return sum(len(jobs) for jobs in inputs["clients"])
    return len(inputs["binaries"])
