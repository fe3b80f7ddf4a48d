# Convenience targets for the CANELy reproduction.

PYTHON ?= python

.PHONY: install test bench examples demo clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The repo benchmark (BENCHMARK.json, bench/README.md).
bench:
	python3 bench/run.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

demo:
	$(PYTHON) -m repro demo --timeline

clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
