"""Temporal graph statistics (the reproduction's Table 1)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.temporal.graph import TemporalGraph


def graph_statistics(graph: TemporalGraph) -> Dict[str, float]:
    """Summary statistics analogous to the paper's Table 1 columns."""
    columns = graph.columns()
    events = columns.events
    touched = np.unique(np.concatenate([events.src, events.dst, columns.vertex]))
    t0, t1 = graph.time_range if graph.num_activities else (0, 0)
    return {
        "num_vertices": int(touched.shape[0]),
        "num_edge_activities": int(events.time.shape[0]),
        "num_activities": graph.num_activities,
        "num_distinct_edges": graph.num_edge_keys,
        "time_span": t1 - t0,
    }


def table1_rows(
    graphs: Iterable[Tuple[str, TemporalGraph]]
) -> List[Dict[str, object]]:
    """Rows of the Table-1 analogue for a set of named graphs."""
    rows = []
    for name, graph in graphs:
        stats = graph_statistics(graph)
        stats_row: Dict[str, object] = {"graph": name}
        stats_row.update(stats)
        rows.append(stats_row)
    return rows
