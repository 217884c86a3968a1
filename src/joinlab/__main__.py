import sys

if __name__ == "__main__":
    import gc

    gc.disable()  # until cli.run has frozen the import-time heap
    from .cli import run

    sys.exit(run())
