"""`python -m ghz_synth`: the ghz-synth command line (see `cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
