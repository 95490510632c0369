"""spark-submit entrypoint: reproduce Table IV (FG vs KG' cost breakdown
for the six NC tasks).

Usage: spark-submit jobs/run_table4.py [sf]
"""
import sys

from repro.bench.tables import table4, to_markdown
from repro.session import get_session

if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("table4")
    df = table4(spark, sf=sf)
    print(to_markdown(df))
    spark.stop()
