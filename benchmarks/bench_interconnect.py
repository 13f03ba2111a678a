"""Benchmark: topology-aware transfer routing under host-uplink contention.

The seed transfer model priced every PCIe copy against a private link, so a
4-GPU pool uploaded four replica slices in the time of one.  With the
interconnect engine the shared host root complex is a contended resource:
concurrent transfers time-share its bandwidth, and every byte kept *off*
the uplink (fused reductions, persistent ring drains, peer-routed delta
packets) buys a second, larger win on a busy host.

This benchmark runs the paper's multi-trial tabu protocol (batched lockstep
trials, 4 simulated GTX 280s) under the dedicated-link and the
shared-uplink topologies, across the full / reduced / persistent transfer
modes with peer routing on and off, and compares

* **contention loss** — the shared-uplink makespan over the dedicated one
  for the same mode; the modes that keep bytes off the host (reduced /
  persistent, with peer-routed delta slices) must lose the least, while
  full mode — hauling the whole ``S x M`` fitness matrix over the root
  complex every iteration — loses the most;
* **uplink pressure** — bytes, transactions, busy time and stall totals of
  the root complex per mode, straight from the engine's per-link
  accounting (peer routing must cut the uplink transaction count);
* **the upload phase** — the 4 simultaneous replica-slice uploads of a
  resident session must take at least 3x the dedicated-link time on the
  shared uplink (each slice sees ~1/4 of the root complex);
* **bit-identical trajectories** — every configuration must reproduce the
  dedicated full-mode per-trial records exactly (topology and routing are
  timing properties, never functional ones).

Run as a script (``python benchmarks/bench_interconnect.py [--smoke]``) or
via ``pytest benchmarks/bench_interconnect.py --benchmark-only``. The script
writes ``benchmarks/BENCH_interconnect.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_interconnect.json`` (``--json`` overrides either).
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from _records import add_record_arguments, resolve_record_path

from repro.core import MultiGPUEvaluator
from repro.harness.experiment import ExperimentRow, _collect_transfer_stats
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import PPPInstanceSpec, instance_seed, make_table_instance

#: Paper-protocol configuration: a Table-2/3 sized instance, 2-Hamming
#: neighborhood, 50 independent tabu trials in batched lockstep, 4 GPUs.
SPEC = (73, 73)
ORDER = 2
TRIALS = 50
MAX_ITERATIONS = 40
DEVICES = 4

#: Reduced configuration for CI smoke runs.
SMOKE_SPEC = (41, 41)
SMOKE_TRIALS = 12
SMOKE_MAX_ITERATIONS = 10

JSON_PATH = Path(__file__).resolve().parent / "BENCH_interconnect.json"

#: (label, transfer_mode, peer_routing) configurations compared under both
#: topologies.  Persistent mode scatters its deltas on-device, so the peer
#: toggle is moot there; full mode has no resident session to route.
CONFIGS = (
    ("full", "full", True),
    ("reduced-no-p2p", "reduced", False),
    ("reduced-p2p", "reduced", True),
    ("persistent", "persistent", True),
)


def run_config(spec, trials, max_iterations, *, transfer_mode, peer_routing, topology):
    """One batched multi-GPU experiment; returns records + engine accounting."""
    m, n = spec
    problem = make_table_instance(PPPInstanceSpec(m, n), trial=0)
    neighborhood = KHammingNeighborhood(problem.n, ORDER)
    evaluator = MultiGPUEvaluator(
        problem,
        neighborhood,
        devices=DEVICES,
        peer_routing=peer_routing,
        topology=topology,
    )
    runner = MultiStartRunner(
        evaluator,
        algorithm="tabu",
        max_iterations=max_iterations,
        transfer_mode=transfer_mode,
    )
    seeds = [instance_seed(m, n, trial) for trial in range(trials)]
    start = time.perf_counter()
    results = runner.run(seeds=seeds)
    wall_s = time.perf_counter() - start
    row = ExperimentRow(instance=PPPInstanceSpec(m, n), order=ORDER)
    _collect_transfer_stats(evaluator, row)
    engine = evaluator.pool.engine
    uplink_transfers = (
        engine.link_transfers("uplink") if engine.topology.uplink is not None else 0
    )
    evaluator.close()
    return {
        "records": [(r.best_fitness, r.iterations, r.success) for r in results],
        "wall_s": wall_s,
        "makespan_s": row.sim_elapsed_s,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "p2p_bytes": row.p2p_bytes,
        "uplink_busy_s": row.uplink_busy_s,
        "uplink_utilization": row.uplink_utilization,
        "uplink_transfers": uplink_transfers,
        "contention_stall_s": row.contention_stall_s,
        "topology": row.topology,
    }


def measure_upload_phase(spec, *, replicas: int = 65536) -> dict:
    """The acceptance scenario: 4 simultaneous replica-slice uploads.

    Opens a resident session over a large replica block under both
    topologies and returns the upload-phase makespans; on the shared root
    complex each slice sees ~1/4 of the uplink, so the phase must take at
    least 3x the dedicated-link time — with bit-identical device state.
    """
    m, n = spec
    problem = make_table_instance(PPPInstanceSpec(m, n), trial=0)
    neighborhood = KHammingNeighborhood(problem.n, ORDER)
    rng = np.random.default_rng(0)
    solutions = rng.integers(0, 2, size=(replicas, problem.n)).astype(np.int8)
    phases = {}
    for topology in ("dedicated", "shared"):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=DEVICES, topology=topology
        )
        evaluator.begin_search(solutions)
        phases[topology] = evaluator.scheduler.makespan
        evaluator.close()
    phases["slowdown"] = phases["shared"] / phases["dedicated"]
    phases["replicas"] = replicas
    return phases


def measure(*, smoke: bool = False) -> dict:
    """Compare modes x topologies; assert ordering and bit-identity."""
    spec = SMOKE_SPEC if smoke else SPEC
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    configs: dict[str, dict] = {}
    for label, transfer_mode, peer_routing in CONFIGS:
        for topology in ("dedicated", "shared"):
            configs[f"{label}/{topology}"] = run_config(
                spec, trials, max_iterations,
                transfer_mode=transfer_mode,
                peer_routing=peer_routing,
                topology=topology,
            )
    reference = configs["full/dedicated"]["records"]
    for label, result in configs.items():
        assert result["records"] == reference, f"{label} trajectories diverged"

    loss = {}
    host_bytes = {}
    for label, _mode, _peer in CONFIGS:
        contended = configs[f"{label}/shared"]
        dedicated = configs[f"{label}/dedicated"]
        loss[label] = contended["makespan_s"] / dedicated["makespan_s"]
        host_bytes[label] = contended["h2d_bytes"] + contended["d2h_bytes"]
        assert contended["makespan_s"] >= dedicated["makespan_s"] * (1 - 1e-12), (
            f"{label}: the shared uplink cannot be faster than dedicated links"
        )
        assert contended["uplink_busy_s"] > 0.0
        assert dedicated["uplink_busy_s"] == 0.0
    # The point of the model: the less a mode ships over the host, the less
    # it loses to contention.  Full mode hauls the whole S x M fitness
    # matrix over the root complex every iteration and loses the most;
    # the reduced and persistent pipelines keep orders of magnitude fewer
    # bytes on the uplink and their makespans barely move.
    assert loss["full"] >= loss["reduced-p2p"]
    assert loss["full"] >= loss["persistent"]
    assert host_bytes["full"] > host_bytes["reduced-no-p2p"]
    assert host_bytes["reduced-no-p2p"] > host_bytes["persistent"]
    # Peer routing replaces the per-device slice uploads with one hub
    # packet + P2P forwards: fewer uplink transactions, bytes on the mesh.
    assert (
        configs["reduced-p2p/shared"]["uplink_transfers"]
        < configs["reduced-no-p2p/shared"]["uplink_transfers"]
    )
    assert configs["reduced-p2p/shared"]["p2p_bytes"] > 0

    upload_phase = measure_upload_phase(spec)
    assert upload_phase["slowdown"] >= 3.0, (
        "4 concurrent replica uploads must take >= 3x the dedicated time "
        f"on the shared uplink, got x{upload_phase['slowdown']:.2f}"
    )

    payload = {
        "benchmark": "interconnect_contention",
        "instance": {"m": spec[0], "n": spec[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "devices": DEVICES,
        "smoke": smoke,
        "configs": {
            label: {key: value for key, value in result.items() if key != "records"}
            for label, result in configs.items()
        },
        "contention_loss": loss,
        "uplink_host_bytes": host_bytes,
        "upload_phase": upload_phase,
    }
    payload["full_vs_persistent_loss_ratio"] = loss["full"] / loss["persistent"]
    payload["full_vs_persistent_uplink_bytes"] = (
        host_bytes["full"] / host_bytes["persistent"]
    )
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="interconnect")
def test_interconnect_contention(benchmark):
    """Modes that keep bytes off the shared uplink lose the least makespan."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["contention_loss"])
    assert payload["contention_loss"]["full"] >= payload["contention_loss"]["persistent"]
    assert payload["upload_phase"]["slowdown"] >= 3.0
    assert payload["full_vs_persistent_uplink_bytes"] > 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_record_arguments(parser)
    args = parser.parse_args(argv)
    resolve_record_path(args, JSON_PATH)
    return args


def main() -> None:
    args = parse_args()
    payload = measure(smoke=args.smoke)
    spec = payload["instance"]
    print(f"instance {spec['m']} x {spec['n']}, {spec['order']}-Hamming, "
          f"{payload['trials']} trials, cap {payload['max_iterations']} iterations, "
          f"{payload['devices']} GPUs")
    header = (f"{'config':<24} {'makespan':>10} {'h2d':>10} {'d2h':>10} {'p2p':>10} "
              f"{'uplink busy':>12} {'stall':>10} {'ops':>6}")
    print(header)
    for label, result in payload["configs"].items():
        print(f"{label:<24} {result['makespan_s'] * 1e3:>8.2f}ms "
              f"{result['h2d_bytes']:>9d}B {result['d2h_bytes']:>9d}B "
              f"{result['p2p_bytes']:>9d}B "
              f"{result['uplink_busy_s'] * 1e3:>10.2f}ms "
              f"{result['contention_stall_s'] * 1e3:>8.2f}ms "
              f"{result['uplink_transfers']:>6d}")
    print("contention loss (shared makespan / dedicated makespan):")
    for label, ratio in payload["contention_loss"].items():
        print(f"  {label:<20} x{ratio:.4f}")
    up = payload["upload_phase"]
    print(f"upload phase ({up['replicas']} replicas over 4 GPUs): "
          f"{up['dedicated'] * 1e3:.2f}ms dedicated -> {up['shared'] * 1e3:.2f}ms "
          f"shared (x{up['slowdown']:.2f} slower)")
    print(f"full mode puts x{payload['full_vs_persistent_uplink_bytes']:.0f} more "
          f"bytes on the uplink than persistent and loses "
          f"x{payload['full_vs_persistent_loss_ratio']:.4f} more makespan")
    write_json(payload, args.json)
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
