import gc

from .cli import main

if __name__ == "__main__":
    gc.disable()  # the process ends with main: a pass after it would only scan what the run left
    raise SystemExit(main())
