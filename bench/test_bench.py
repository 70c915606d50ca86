"""Tests of the benchmark harness, run at its smallest size."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from make_reference import popularities, word_counts  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import LADDERS, WORKLOADS, int_digest, load_reference  # noqa: E402

SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {w: run_bench(w, 0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict:
    return {
        w: {name: m["value"] for name, m in last_json(run_bench(w, 1))["metrics"].items()}
        for w in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload, untraced, spec):
    done = untraced[workload]
    result = last_json(done)
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}$", done.stdout, re.M)
        assert result["metrics"][name]["value"] > 0
    assert result["correct"] is True
    assert f"seed={SEED}" in done.stdout
    assert re.search(r"^unscaled: wall_s=\S+ s setup_s=\S+ s host speed", done.stdout, re.M)


def test_known_defect_counts_as_failure(untraced):
    # The CLI point queries at large n exceed Python's 4300-digit limit on
    # int-to-string conversion; nothing else fails.
    counts = last_json(untraced["counts"])
    big_cli_requests = 2 * len(LADDERS["smoke"]["point_k"])
    per_pass = int(re.search(r"requests/pass=(\d+)", untraced["counts"].stdout)[1])
    assert counts["failed"] == big_cli_requests * counts["attempted"] // per_pass
    assert f"known defect: {counts['failed']}" in untraced["counts"].stdout
    for workload in ("certify", "battery"):
        assert last_json(untraced[workload])["failed"] == 0


def test_metric_names_and_units_match_spec(traced, spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    for metrics in traced.values():
        assert set(metrics) == set(PER_LAYER_UNITS)


def test_traced_counters_reach_each_layer(traced):
    assert traced["counts"]["core.calls"] > 0 and traced["counts"]["core.self_s"] > 0
    certify = traced["certify"]
    for name in ("numerics.bisect_root.steps", "numerics.self_s", "interval.ops",
                 "interval.self_s", "poly.evals", "interval.render_decimal.rounds"):
        assert certify[name] > 0, name
    battery = traced["battery"]
    assert battery["oracle.words_scanned"] > 0 and battery["oracle.self_s"] > 0
    assert battery["verify.oracle_equivalence.s"] > 0


def test_core_is_bypassed_on_certify(traced):
    certify = traced["certify"]
    total = sum(certify[f"{layer}.self_s"] for layer in LAYERS)
    assert certify["core.self_s"] < 0.01 * total


def test_reference_reproduced_by_independent_route():
    ref = load_reference()
    for k in LADDERS["smoke"]["point_k"]:
        for n in LADDERS["smoke"]["point_n"]:
            count = next(islice(word_counts(k), n, None))
            popularity = next(islice(popularities(k), n, None))
            assert ref["count"][f"{k}:{n}"]["hex"] == int_digest(count)
            assert ref["popularity"][f"{k}:{n}"]["hex"] == int_digest(popularity)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("counts", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
