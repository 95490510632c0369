"""DuckDB reference results the benchmark checks the program against.

Everything here works on pandas frames collected once per run, outside
the timed phase: the KG's triples/nodes and a task's target ids.

- :func:`tosg_triples` evaluates the d·h pattern of the paper's §III-B as
  SQL: hop ``k`` takes every triple whose subject (and, for ``d=2``,
  object) lies in the hop-``k-1`` frontier; the LP bridge adds every
  triple of the task predicate.
- :func:`sufficiency` and :func:`entropy` restate the Table III
  indicators (``V_T``, ``V_T %``, ``|C'|``, ``|R'|``, Eq. 2) in SQL;
  :func:`disconnected_pct` and :func:`avg_distance` restate the two
  distance indicators with a breadth-first search in plain Python
  (:func:`distances`).
- :func:`induced` is the subgraph of a KG induced by a vertex set, which
  every BRW and IBS sample must equal.
- :func:`checksum` is an order-independent digest of a triple set, the
  same on both sides because both are pandas frames by then.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd


def checksum(triples: pd.DataFrame) -> int:
    """Sum (mod 2⁶⁴) of per-row hashes of ``(s, p, o)``."""
    rows = triples[["s", "p", "o"]].astype({"s": "int64", "p": "object", "o": "int64"})
    return int(pd.util.hash_pandas_object(rows, index=False).to_numpy(np.uint64).sum(dtype=np.uint64))


def _con(**tables) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for name, df in tables.items():
        con.register(name, df)
    return con


def tosg_triples(triples: pd.DataFrame, targets: pd.DataFrame, d: int, h: int,
                 lp_predicate: str | None = None) -> pd.DataFrame:
    """Distinct ``(s, p, o)`` matched by the d·h pattern for ``targets``."""
    ctes = ["f0 AS (SELECT DISTINCT id FROM v)"]
    legs = []
    for k in range(1, h + 1):
        ctes.append(f"out{k} AS (SELECT t.* FROM t WHERE t.s IN (SELECT id FROM f{k - 1}))")
        legs.append(f"SELECT * FROM out{k}")
        nxt = f"SELECT o AS id FROM out{k}"
        if d == 2:
            ctes.append(f"in{k} AS (SELECT t.* FROM t WHERE t.o IN (SELECT id FROM f{k - 1}))")
            legs.append(f"SELECT * FROM in{k}")
            nxt += f" UNION SELECT s AS id FROM in{k}"
        ctes.append(f"f{k} AS ({nxt})")
    if lp_predicate is not None:
        legs.append("SELECT * FROM t WHERE p = $lp")
    sql = "WITH " + ", ".join(ctes) + " SELECT DISTINCT s, p, o FROM (" + " UNION ALL ".join(legs) + ")"
    con = _con(t=triples[["s", "p", "o"]], v=targets[["id"]])
    try:
        return con.execute(sql, {"lp": lp_predicate} if lp_predicate is not None else {}).fetchdf()
    finally:
        con.close()


def node_count(triples: pd.DataFrame, nodes: pd.DataFrame) -> int:
    """KG' vertices: the matched triples' endpoints that are KG vertices."""
    con = _con(t=triples[["s", "o"]], n=nodes[["id"]])
    try:
        return con.execute(
            "SELECT count(*) FROM n WHERE id IN (SELECT s FROM t UNION SELECT o FROM t)"
        ).fetchone()[0]
    finally:
        con.close()


def induced(triples: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame:
    """Every triple whose two endpoints are among ``nodes``."""
    con = _con(t=triples[["s", "p", "o"]], v=nodes[["id"]])
    try:
        return con.execute(
            "SELECT s, p, o FROM t WHERE s IN (SELECT id FROM v) AND o IN (SELECT id FROM v)"
        ).fetchdf()
    finally:
        con.close()


def sufficiency(nodes: pd.DataFrame, triples: pd.DataFrame, targets: pd.DataFrame) -> dict:
    """``V_T``, ``V_T %``, ``|C'|``, ``|R'|`` and the vertex count of KG'."""
    con = _con(n=nodes[["id", "ntype"]], t=triples[["s", "p", "o"]], v=targets[["id"]])
    try:
        n_nodes, n_t, n_c = con.execute(
            "SELECT count(*), count(*) FILTER (WHERE id IN (SELECT id FROM v)),"
            " count(DISTINCT ntype) FROM n"
        ).fetchone()
        (n_r,) = con.execute("SELECT count(DISTINCT p) FROM t").fetchone()
    finally:
        con.close()
    return {"V_T": n_t, "V_T_pct": 100.0 * n_t / max(1, n_nodes), "C'": n_c, "R'": n_r, "nodes": n_nodes}


def entropy(nodes: pd.DataFrame, triples: pd.DataFrame) -> float:
    """Eq. 2: Shannon entropy (bits) of the per-vertex count of distinct
    neighbour types, neighbours taken undirected, isolated vertices 0."""
    con = _con(n=nodes[["id", "ntype"]], t=triples[["s", "o"]])
    try:
        return float(con.execute(
            """
            WITH e AS (SELECT s AS src, o AS dst FROM t UNION SELECT o, s FROM t),
            per AS (SELECT e.src, count(DISTINCT n.ntype) AS c
                    FROM e JOIN n ON n.id = e.dst GROUP BY e.src),
            cnt AS (SELECT coalesce(per.c, 0) AS c, count(*) AS k
                    FROM n LEFT JOIN per ON per.src = n.id GROUP BY 1),
            p AS (SELECT k / sum(k) OVER () AS q FROM cnt)
            SELECT coalesce(-sum(q * log2(q)), 0.0) FROM p WHERE q > 0
            """
        ).fetchone()[0])
    finally:
        con.close()


def distances(triples: pd.DataFrame, sources: list, max_hops: int) -> dict:
    """Hop distance from the nearest source, edges taken undirected, of
    every vertex within ``max_hops`` (sources at 0)."""
    adj: dict = {}
    for s, o in zip(triples["s"].tolist(), triples["o"].tolist()):
        adj.setdefault(s, set()).add(o)
        adj.setdefault(o, set()).add(s)
    dist = {v: 0 for v in sources}
    frontier = list(dist)
    for hop in range(1, max_hops + 1):
        nxt = [v for u in frontier for v in adj.get(u, ()) if v not in dist]
        for v in nxt:
            dist[v] = hop
        frontier = list(dict.fromkeys(nxt))
        if not frontier:
            break
    return dist


def disconnected_pct(nodes: pd.DataFrame, triples: pd.DataFrame, targets: pd.DataFrame,
                     max_hops: int = 20) -> float:
    """% of non-target vertices with no path of at most ``max_hops`` edges
    to a target vertex of the subgraph."""
    in_t = nodes["id"].isin(targets["id"])
    non = nodes["id"][~in_t].tolist()
    if not non:
        return 0.0
    if not in_t.any():
        return 100.0
    reached = distances(triples, nodes["id"][in_t].tolist(), max_hops)
    return 100.0 * sum(v not in reached for v in non) / len(non)


def avg_distance(nodes: pd.DataFrame, triples: pd.DataFrame, targets: pd.DataFrame, *,
                 n_sources: int = 8, max_hops: int = 20, seed: int = 0) -> float:
    """Mean finite distance from ``n_sources`` target vertices, drawn as
    ``avg_distance_to_targets`` draws them from the vertex order of
    ``nodes``, to the non-target vertices; NaN when there is none."""
    ids = nodes["id"].tolist()
    in_t = nodes["id"].isin(targets["id"]).to_numpy()
    t_pos = np.flatnonzero(in_t)
    if len(t_pos) == 0 or in_t.all():
        return float("nan")
    srcs = np.random.default_rng(seed).choice(t_pos, min(n_sources, len(t_pos)), replace=False)
    found = []
    for s in srcs:
        dist = distances(triples, [ids[s]], max_hops)
        found += [dist[v] for v, t in zip(ids, in_t) if not t and dist.get(v, 0) > 0]
    return float(np.mean(found)) if found else float("nan")
