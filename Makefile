# Convenience targets for the Gossiping-with-Latencies reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full scale-smoke sweep-smoke examples experiments report regress clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_PROFILE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Mega-scale memory smoke: the n=10^5 vector-backend broadcast (one
# bitset word per node) and the n=10^5 chunked-streaming all-to-all,
# each re-run in a subprocess under an enforced RLIMIT_DATA ceiling, the
# n=10^6 graph substrate (erdos_renyi_fast + CSR tables) under a 2 GiB
# ceiling, then the engine_scale regression gate.
scale-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_engine_scale.py -p no:cacheprovider -q
	PYTHONPATH=src $(PYTHON) -m repro regress --suite engine_scale

# Crash-recovery smoke for checkpointed sweeps: SIGKILL an E1 sweep at
# an injected fault point, resume it, and demand the exported canonical
# table bytes match an uninterrupted run; then run E6 as two independent
# shard processes and demand the coordinator's merge matches serial.
SWEEP_TMP ?= /tmp/repro-sweep-smoke
sweep-smoke:
	rm -rf $(SWEEP_TMP) && mkdir -p $(SWEEP_TMP)
	@echo "== kill E1 mid-sweep (expect SIGKILL), then resume"
	! REPRO_FAULT_AT=trial:2:kill PYTHONPATH=src $(PYTHON) -m repro sweep E1 --store $(SWEEP_TMP)/killed >/dev/null 2>&1
	PYTHONPATH=src $(PYTHON) -m repro sweep E1 --store $(SWEEP_TMP)/killed --resume --export $(SWEEP_TMP)/resumed.json >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro sweep E1 --store $(SWEEP_TMP)/clean --export $(SWEEP_TMP)/clean.json >/dev/null
	cmp $(SWEEP_TMP)/resumed.json $(SWEEP_TMP)/clean.json
	@echo "== resumed E1 table is byte-identical to the clean run"
	@echo "== two-shard E6, merged by the coordinator"
	PYTHONPATH=src $(PYTHON) -m repro sweep E6 --shard 0/2 --store $(SWEEP_TMP)/shards >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro sweep E6 --shard 1/2 --store $(SWEEP_TMP)/shards >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro sweep E6 --store $(SWEEP_TMP)/shards --export $(SWEEP_TMP)/merged.json >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro sweep E6 --store $(SWEEP_TMP)/serial --export $(SWEEP_TMP)/serial.json >/dev/null
	cmp $(SWEEP_TMP)/merged.json $(SWEEP_TMP)/serial.json
	@echo "== shard-merged E6 table is byte-identical to the serial run"
	rm -rf $(SWEEP_TMP)

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; echo; done

experiments:
	$(PYTHON) -m repro run-experiment all

# Render the full observability report for one experiment (markdown to
# stdout); override with `make report EXPERIMENT=E12`.
EXPERIMENT ?= E6
report:
	PYTHONPATH=src $(PYTHON) -m repro report $(EXPERIMENT) --profile quick

regress:
	PYTHONPATH=src $(PYTHON) -m repro regress --suite all

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
