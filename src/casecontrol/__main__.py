"""``python -m casecontrol``: the command-line front end of ``cli``."""

import sys

from .cli import main

sys.exit(main())
