"""Route-service benchmark: see perfbench/run.py and README.md."""
