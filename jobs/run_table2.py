"""spark-submit entrypoint: reproduce Table II (task summary with
measured split ratios).

Usage: spark-submit jobs/run_table2.py [sf]
"""
import sys

from repro.bench.tables import table2, to_markdown
from repro.session import get_session

if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("table2")
    df = table2(spark, sf=sf)
    print(to_markdown(df))
    spark.stop()
