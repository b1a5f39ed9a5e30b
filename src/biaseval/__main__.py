import sys

try:
    from .cli import console_main
except KeyboardInterrupt:  # Ctrl-C while the CLI is imported
    print("error: interrupted", file=sys.stderr)
    raise SystemExit(130) from None

console_main()
