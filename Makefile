# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench experiments examples clean

install:
	pip install -e .

# the unit tests plus the gates under tests/gates/ (trace, attribution,
# chaos, perf, cache, report, leaderboard, resilience, ensemble,
# autotune), the host-time benchmark's own tests, and every paper
# table and figure; the gates that render reports write them under
# benchmarks/out/
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src $(PYTHON) -m pytest bench
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# regenerate every paper artifact into benchmarks/out/
experiments: bench
	@ls benchmarks/out/

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/salt_melt.py
	PYTHONPATH=src $(PYTHON) examples/nanocar_drive.py
	PYTHONPATH=src $(PYTHON) examples/ewald_ionic_crystal.py
	PYTHONPATH=src $(PYTHON) examples/custom_model.py
	PYTHONPATH=src $(PYTHON) examples/perf_study.py

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
