#!/usr/bin/env python3
"""One traced `scootertrips run`, in its own process.

Wraps, from outside the program, every public scootertrips function that
`scootertrips.pipeline` calls, the pipeline's artifact digest, the
SnapshotStream batch iterator and kernels.pair_scan, then calls the CLI's
main(["run", ...]). Spans (name, start, end, parent) stay in memory and are
written as JSON when the run ends.

Usage: python3 perfbench/trace_run.py --config C --out-dir O --spans S
(launcher.py starts it with PYTHONPATH naming the program's sources and
PERFBENCH_SPAWNED_AT holding the spawn time, which startup time counts from.)
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import time

perf = time.perf_counter


class Tracer:
    """Nested spans in one thread: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced


def install(tracer: Tracer) -> None:
    from scootertrips import config, ingest, kernels, pipeline

    for name, obj in list(vars(pipeline).items()):
        module = getattr(obj, "__module__", "") or ""
        if name.startswith("_") or not module.startswith("scootertrips.") or module == "scootertrips.pipeline":
            continue
        if inspect.isfunction(obj) or obj is getattr(pipeline, "FixturePlacesClient", None):
            setattr(pipeline, name, tracer.wrap(f"{module.removeprefix('scootertrips.')}.{name}", obj))
    if hasattr(pipeline, "_sha256"):
        pipeline._sha256 = tracer.wrap("pipeline.digest", pipeline._sha256)
    pipeline.run_pipeline = tracer.wrap("pipeline.run_pipeline", pipeline.run_pipeline)
    config.load_config = tracer.wrap("config.load_config", config.load_config)

    scan = kernels.pair_scan

    def pair_scan(codes, *args, **kwargs):
        tracer.counts["kernels.pair_scan.rows"] = tracer.counts.get("kernels.pair_scan.rows", 0) + len(codes)
        return scan(codes, *args, **kwargs)

    kernels.pair_scan = tracer.wrap("kernels.pair_scan", pair_scan)

    batches_of = ingest.SnapshotStream.__iter__

    def traced_iter(stream):
        inner = batches_of(stream)

        def batches():
            while True:
                idx = tracer.open("ingest.next_batch")
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield batch

        return batches()

    ingest.SnapshotStream.__iter__ = traced_iter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", required=True, help="write spans JSON here")
    args = parser.parse_args()

    tracer = Tracer()
    install(tracer)
    from scootertrips import cli

    started_wall = time.time()
    root = tracer.open("cli.main")
    try:
        code = cli.main(["run", "--config", args.config, "--out-dir", args.out_dir])
    finally:
        tracer.close(root)
    ended_wall = time.time()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "startup_s": started_wall - float(os.environ["PERFBENCH_SPAWNED_AT"]),
                "main_end_wall": ended_wall,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
