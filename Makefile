# Convenience targets for the Esthera-Py reproduction.

PYTHON ?= python

.PHONY: install test bench report examples all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro.cli report -o report.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/robot_arm_tracking.py
	$(PYTHON) examples/platform_projection.py
	$(PYTHON) examples/simt_kernel_playground.py

all: test bench

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
