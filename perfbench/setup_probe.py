"""Time one cold set-up in a fresh interpreter; prints the seconds as JSON.

Set-up is what a user pays before the first round: importing picardopt (and
numpy), building the config, problem and rule, starting the ``WorkerPool`` and
making the initial state.  ``run.py`` calls this several times per run and
reports the median.

    python3 perfbench/setup_probe.py '<picardopt.config overrides as JSON>'
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from picardopt import config, rules  # noqa: E402
from picardopt.pool import WorkerPool  # noqa: E402


def main() -> None:
    cfg = config.load_config(None, json.loads(sys.argv[1]))
    rule = config.build_rule(cfg, config.build_problem(cfg))
    settings = config.engine_settings(cfg, record_trajectory=False)
    pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms)
    rules.initial_state(rule)
    setup_s = time.perf_counter() - T0
    pool.close()
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
