import os
import sys

from repro.analysis.cli import main

try:
    status = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader closed stdout early (`... | head`): stop without a
    # traceback, with the status a shell reports for a process that
    # SIGPIPE ended (128 + 13).  Pointing stdout at devnull keeps the
    # interpreter's own flush at exit from raising the same error again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    status = 141
sys.exit(status)
