.PHONY: all build test verify bench loc surface clean

all: build

build:
	dune build

# `make test` and `make verify` are aliases for `dune runtest`, the
# tier-1 gate (includes the fault-injection and transaction sweeps).
# CI runs the same command under `timeout-minutes`, so a hung sweep
# fails the build instead of stalling it; locally, `timeout 600 make
# test` gives the same guard.
test:
	dune runtest

verify:
	dune build && dune runtest

# Forward experiment names and flags: make bench ARGS="scaling --json out.json"
bench:
	dune exec bench/main.exe -- $(ARGS)

# Line totals of lib/ and test/oracle .ml and .mli files: the net lib/
# delta that CHANGES.md records for each change, and where code moved
# out of lib/ into the test oracles lands.
loc:
	@for d in lib test/oracle; do \
	  printf '%s .ml   %6d\n' $$d $$(find $$d -name '*.ml' -exec cat {} + | wc -l); \
	  printf '%s .mli  %6d\n' $$d $$(find $$d -name '*.mli' -exec cat {} + | wc -l); \
	  printf '%s total %6d\n' $$d $$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
	done

# Public lib/*.mli vals that nothing outside test/ reads.  Fails when one
# is missing from tools/surface_allowlist.txt or an entry there is stale.
surface:
	@python3 tools/surface.py

clean:
	dune clean
