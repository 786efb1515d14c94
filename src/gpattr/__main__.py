"""python -m gpattr: the gpattr command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
