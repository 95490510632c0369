"""The project's one Spark session builder: the ``jobs/`` entrypoints and
the test suite's ``spark`` fixture both call :func:`get_session`.

Master and driver memory are read when the JVM starts (``spark-submit``
arguments or ``PYSPARK_SUBMIT_ARGS``), so they are not set here. Broadcast
joins are off unless a query hints one, so joins exercise the shuffle path
at small scale; ``repro.core.subgraph.probe``, the semi-join against a
small vertex set, hints its broadcast.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    """Get or create the session named ``app``: 64 shuffle partitions,
    Arrow on, no automatic broadcast joins, Spark UI off."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
