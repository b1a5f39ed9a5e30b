import sys


def run() -> None:
    """Run the CLI on ``sys.argv`` and exit with its status: the entry point of
    ``python -m biaseval`` and of the ``biaseval`` script. SIGTERM, unless the
    process started with it ignored or handled, interrupts as Ctrl-C does."""
    try:
        import signal

        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, signal.default_int_handler)
        from .cli import main

        status = main()
    except KeyboardInterrupt:  # Ctrl-C while the CLI starts
        print("error: interrupted", file=sys.stderr)
        status = 130
    # Under -m, Python exits by SIGINT if a KeyboardInterrupt ever escaped code
    # run from a string (dataclasses builds methods so), even one caught later;
    # each exec of a string clears that mark (bpo-1054041).
    exec("")
    raise SystemExit(status)


if __name__ == "__main__":
    run()
