"""``python -m repro.experiments``: the experiment driver, which runs
every experiment through the sweep (see :mod:`repro.sweep.__main__`)."""

from ..sweep.__main__ import main

if __name__ == "__main__":
    raise SystemExit(main())
