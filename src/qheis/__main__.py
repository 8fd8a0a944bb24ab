"""``python -m qheis``: the ``qheis`` command."""

import sys

from .cli import main

sys.exit(main())
