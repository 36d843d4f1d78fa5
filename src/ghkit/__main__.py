"""``python -m ghkit``: the same entry point as the ``ghkit`` script."""

import sys

from .cli import main

sys.exit(main())
