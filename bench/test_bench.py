"""Tests of the benchmark itself: the reference checks accept the package's
real outputs and count a corrupted output as a failed job.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Workload  # noqa: E402

INPUTS = {
    "ns-5-7": {"kind": "numerical", "generators": [5, 7]},
    "ns-6-7-16": {"kind": "numerical", "generators": [6, 7, 16]},
    "delta-extras": {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
    "elliptic-2": {"kind": "fixture", "name": "elliptic", "period": 2},
    "strip-3x4": {"kind": "two_point", "genus": 3, "period": 4,
                  "members": [[1, 1], [0, 3], [2, 3]]},
}
ONEPOINT_VERBS = ["validate", "analyze", "poincare", "expand",
                  "verify --check all", "poincare --form closed"]
TWOPOINT_VERBS = ["analyze", "maximals", "poincare", "expand",
                  "verify --check all"]


def _job(verb, name, *args):
    return Job(name, verb, tuple(args))


JOBS = [_job(*verb.split()[:1], name, *verb.split()[1:])
        for name, inp in INPUTS.items()
        for verb in (ONEPOINT_VERBS if inp["kind"] in ("numerical", "delta")
                     else TWOPOINT_VERBS)
        # <6, 7, 16> is no delta sequence, so it has no closed form
        if not (name == "ns-6-7-16" and "closed" in verb)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The runner, and every job's real (exit code, stdout)."""
    runner = run.Runner(Workload("test", INPUTS, JOBS),
                        tmp_path_factory.mktemp("inputs"))
    runner.pkg, _ = run.import_package()
    runner.write_inputs()
    return runner, {job: runner.call(job)[:2] for job in JOBS}


def test_real_outputs_pass(outputs):
    runner, real = outputs
    for job, (code, text) in real.items():
        runner.check(job, code, text)
    assert runner.failures == []
    assert runner.attempted == len(JOBS)


def _edit(text, change):
    obj = json.loads(text)
    change(obj)
    return json.dumps(obj, separators=(",", ":"))


def _flip_coefficient(obj):
    obj["coefficients"][5] = 1 - obj["coefficients"][5]


def _drop_witness(obj):
    c_prop = next(r for r in obj["checks"] if r["check"] == "c_prop")
    c_prop["witnesses"].pop()


def _bump_conductor(obj):
    obj["conductor"] += 1


def _bump_numerator(obj):
    obj["num"][-1]["c"] += 1


def _flip_dim_jump(obj):
    row = obj["dim_jump"][3]
    row[3] = 2 - row[3]


def _swap_signs(obj):
    funceq = next(r for r in obj["checks"] if r["check"] == "funceq")
    details = funceq["details"]
    details["eps_l"], details["eps_p"] = details["eps_p"], details["eps_l"]


def _drop_maximal(obj):
    obj["maximals"].pop(0)


def _flip_symmetric(obj):
    obj["symmetric"] = not obj["symmetric"]


CORRUPTIONS = [
    (_job("expand", "ns-5-7"), _flip_coefficient),
    (_job("expand", "delta-extras"), _flip_coefficient),
    (_job("verify", "elliptic-2", "--check", "all"), _drop_witness),
    (_job("analyze", "ns-6-7-16"), _bump_conductor),
    (_job("poincare", "ns-5-7"), _bump_numerator),
    (_job("poincare", "delta-extras", "--form", "closed"), _bump_numerator),
    (_job("expand", "strip-3x4"), _flip_dim_jump),
    (_job("verify", "ns-5-7", "--check", "all"), _swap_signs),
    (_job("maximals", "elliptic-2"), _drop_maximal),
    (_job("analyze", "strip-3x4"), _flip_symmetric),
]


@pytest.mark.parametrize("job, change", CORRUPTIONS,
                         ids=[f"{j.verb}-{j.input}-{c.__name__}"
                              for j, c in CORRUPTIONS])
def test_corrupted_output_fails(outputs, job, change):
    runner, real = outputs
    code, text = real[job]
    before = runner.failed, runner.wrong
    runner.check(job, code, _edit(text, change))
    assert (runner.failed, runner.wrong) == (before[0] + 1, before[1] + 1)


@pytest.mark.parametrize("job, code", [
    (_job("verify", "elliptic-2", "--check", "all"), 0),
    (_job("verify", "ns-6-7-16", "--check", "all"), 0),
    (_job("verify", "ns-5-7", "--check", "all"), 1),
])
def test_wrong_exit_code_fails(outputs, job, code):
    runner, real = outputs
    assert real[job][0] != code
    before = runner.failed
    runner.check(job, code, real[job][1])
    assert runner.failed == before + 1


@pytest.mark.parametrize("code", [2, ValueError("boom")])
def test_error_or_raise_fails(outputs, code):
    runner, _ = outputs
    before = runner.failed, runner.wrong
    runner.check(_job("validate", "ns-5-7"), code, "")
    assert runner.failed == before[0] + 1
    assert runner.wrong == before[1]


def _brute_maximal(ref, m):
    """Maximality by scanning the whole column and row below m."""
    if not ref.contains(m):
        return False
    m1, m2 = m
    return not any(ref.contains((m1, y)) for y in range(-m1, m2)) and \
        not any(ref.contains((x, m2)) for x in range(-m2, m1))


def _brute_dim_jump(ref, m):
    m1, m2 = m
    return int(any(ref.contains((m1, y)) for y in range(-m1, m2 + 1))) + \
        int(any(ref.contains((x, m2)) for x in range(-m2, m1)))


def test_reference_line_minima_match_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        genus, period = rng.randint(0, 5), rng.randint(1, 5)
        gens = workloads.random_members(rng, genus, period, 3)
        ref = reference.TwoPointRef(
            genus, period, reference.members_rows(genus, period, gens))
        assert reference.strip_closed(genus, period, ref.rows)
        box = ((-6, 6), (-6, 6))
        for m in reference.points(box):
            assert ref.maximal(m) == _brute_maximal(ref, m)
            assert ref.dim_jump(m) == _brute_dim_jump(ref, m)


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 3)
        assert first.inputs == workloads.build(name, 3).inputs
        assert first.jobs == workloads.build(name, 3).jobs
