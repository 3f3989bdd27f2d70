"""``python -m ricci_lab``: the ricci-lab command line."""

from .cli import main

if __name__ == "__main__":
    main()
