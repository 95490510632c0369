"""spark-submit entrypoint: reproduce Table III (URW/BRW/IBS/KG-TOSA_d1h1
subgraph quality + accuracy).

Usage: spark-submit jobs/run_table3.py [sf]
"""
import sys

from repro.bench.tables import table3, to_markdown
from repro.session import get_session

if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("table3")
    df = table3(spark, sf=sf)
    print(to_markdown(df))
    spark.stop()
