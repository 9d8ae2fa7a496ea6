"""Training child: embed one train graph with GOSH and commit it to a store.

Run by ``run.py`` in its own process so that its peak RSS is the embed's
alone::

    python3 perfbench/train_child.py SPEC.json

``SPEC.json`` names the ``.npz`` train graph, the store directory, the tool
settings and whether to trace.  The child embeds from scratch, commits the
result as the next version of its lineage and prints one JSON line: that
version, ``embed_s`` (``tool.embed`` plus ``EmbeddingStore.save``), its peak
RSS and, when tracing, the per-layer figures taken by wrapping each layer's
public entry point from here (nothing inside the program is changed).
"""

from __future__ import annotations

import json
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import get_tool  # noqa: E402
from repro.embedding.gosh import GoshEmbedder  # noqa: E402
from repro.embedding.trainer import LevelTrainer  # noqa: E402
from repro.gpu.backends import get_backend  # noqa: E402
from repro.gpu.device import DeviceSpec, SimulatedDevice  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.large.scheduler import LargeGraphTrainer  # noqa: E402
from repro.store import EmbeddingStore  # noqa: E402


class LayerTimer:
    """Wraps methods on their classes and sums seconds and calls per name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)

    def wrap(self, owner, attr: str, name: str, *, keep_results: bool = False) -> None:
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = original(*args, **kwargs)
            self.seconds[name] += perf_counter() - t0
            self.calls[name] += 1
            if keep_results:
                self.results[name].append(out)
            return out

        setattr(owner, attr, timed)


def traced_layers(timer: LayerTimer, kernels) -> None:
    timer.wrap(GoshEmbedder, "coarsen", "coarsen", keep_results=True)
    timer.wrap(LevelTrainer, "train", "train.inmem", keep_results=True)
    timer.wrap(LargeGraphTrainer, "train", "train.large", keep_results=True)
    timer.wrap(type(kernels), "train_epoch", "kernel.epoch")
    timer.wrap(type(kernels), "train_pair", "kernel.pair")
    timer.wrap(EmbeddingStore, "save", "store.save")


def layer_metrics(timer: LayerTimer, device: SimulatedDevice) -> dict[str, float]:
    hierarchy = timer.results["coarsen"][0][0]
    inmem = timer.results["train.inmem"]
    large = timer.results["train.large"]
    out = {
        "coarsen.s": timer.seconds["coarsen"],
        "coarsen.levels": hierarchy.num_levels,
        "coarsen.level1_vertices": (hierarchy.level(1).num_vertices
                                    if hierarchy.num_levels > 1 else 0),
        "train.inmem.s": timer.seconds["train.inmem"],
        "train.updates": sum(s.updates for s in inmem),
        "kernel.epoch.s": timer.seconds["kernel.epoch"],
        "kernel.epoch.calls": timer.calls["kernel.epoch"],
        "store.save_s": timer.seconds["store.save"],
        "device.peak_mb": device.peak_allocated_bytes / 2**20,
    }
    if large:
        out.update({
            "train.large.s": timer.seconds["train.large"],
            "kernel.pair.s": timer.seconds["kernel.pair"],
            "kernel.pair.calls": timer.calls["kernel.pair"],
            "large.rotations": sum(s.rotations for s in large),
            "large.positive_samples": sum(s.positive_samples for s in large),
            "large.submatrix_switches": sum(s.submatrix_switches for s in large),
            "large.pool_produce_s": sum(s.pool_produce_seconds for s in large),
            "large.pool_stall_s": sum(s.pool_stall_seconds for s in large),
        })
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    data = np.load(spec["graph"])
    graph = CSRGraph.from_edges(int(data["num_vertices"]), data["edges"],
                                undirected=True, name=spec["graph_name"])
    device = (SimulatedDevice(spec=DeviceSpec(name="bench", memory_bytes=spec["device_bytes"]))
              if spec["device_bytes"] else SimulatedDevice())
    tool = get_tool(spec["tool"], dim=spec["dim"], epoch_scale=spec["epoch_scale"],
                    device=device, seed=spec["seed"])
    store = EmbeddingStore(spec["store_dir"])
    timer = None
    if spec["trace"]:
        timer = LayerTimer()
        traced_layers(timer, get_backend(tool.config.kernel_backend))

    t0 = perf_counter()
    result = tool.embed(graph)
    entry = store.save(result, graph=graph)
    embed_s = perf_counter() - t0

    report = {
        "embed_s": embed_s,
        "embed_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "version": entry.version,
        "config_hash": entry.config_hash,
        "fingerprint": entry.fingerprint,
        "entry_path": str(entry.path),
        "shape": list(entry.shape),
        "large_parts": (result.stats.get("large_graph") or {}).get("parts_per_level", []),
    }
    if timer is not None:
        report["layers"] = layer_metrics(timer, device)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
