"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is what a user waits for before a pipeline starts: importing eqcausal
(numpy, jsonschema and click with it), validating the config, and building
the model, which for a CSV model includes loading the table.

    python3 perfbench/setup_probe.py <config.json>
"""

import sys
import time

import bootstrap


def main(config_path: str):
    bootstrap.require_program()
    t0 = time.perf_counter()
    from eqcausal import cli
    config = cli.load_config(config_path)
    cli.build_model(config)
    elapsed = time.perf_counter() - t0
    bootstrap.check_imported(sys.modules["eqcausal"])
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1])
